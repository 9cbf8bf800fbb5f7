open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logmgr = Aries_wal.Logmgr
module Logset = Aries_wal.Logset
module Txnmgr = Aries_txn.Txnmgr
module Lockcodec = Aries_txn.Lockcodec
module Lockmgr = Aries_lock.Lockmgr
module Bufpool = Aries_buffer.Bufpool
module Trace = Aries_trace.Trace

let c_ckpt_taken = Stats.counter Stats.ckpt_taken
let cp_ckpt_master = Crashpoint.point "ckpt.master"

type ck_txn = {
  ct_id : Ids.txn_id;
  ct_state : Txnmgr.state;
  ct_firsts : Lsn.t array;
  ct_lasts : Lsn.t array;
  ct_undo_nxts : Lsn.t array;
  ct_locks : bytes;
}

type body = {
  ck_scan : Lsn.t array;
      (* per stream, the append horizon captured immediately before the
         Begin_ckpt was appended: where analysis starts its scan of that
         stream. ck_scan.(0) = begin_lsn by construction (Begin lands at
         the captured horizon of the control stream). Records appended
         between the capture and the body snapshot are covered twice —
         by the scan and by the body — which fuzzy reconciliation absorbs. *)
  ck_txns : ck_txn list;
  ck_dpt : (Ids.page_id * Lsn.t) list;
  ck_chains : (Ids.page_id * Lsn.t list) list;
      (* per dirty page, every record LSN applied since it became dirty
         (oldest first): instant restart repeats a pending page's history
         by reading exactly these records instead of scanning the log *)
  ck_next_txn : Ids.txn_id;
}

let encode_vec w v =
  Bytebuf.W.u16 w (Array.length v);
  Array.iter (Bytebuf.W.i64 w) v

let decode_vec r =
  let n = Bytebuf.R.u16 r in
  Array.init n (fun _ -> Bytebuf.R.i64 r)

let encode_body b =
  let w = Bytebuf.W.create () in
  Bytebuf.W.i64 w b.ck_next_txn;
  encode_vec w b.ck_scan;
  Bytebuf.W.list w
    (fun w ct ->
      Bytebuf.W.i64 w ct.ct_id;
      Bytebuf.W.u8 w (Txnmgr.state_to_int ct.ct_state);
      encode_vec w ct.ct_firsts;
      encode_vec w ct.ct_lasts;
      encode_vec w ct.ct_undo_nxts;
      Bytebuf.W.bytes w ct.ct_locks)
    b.ck_txns;
  Bytebuf.W.list w
    (fun w (pid, rec_lsn) ->
      Bytebuf.W.i64 w pid;
      Bytebuf.W.i64 w rec_lsn)
    b.ck_dpt;
  Bytebuf.W.list w
    (fun w (pid, chain) ->
      Bytebuf.W.i64 w pid;
      Bytebuf.W.list w Bytebuf.W.i64 chain)
    b.ck_chains;
  Bytebuf.W.contents w

let decode_body bytes =
  let r = Bytebuf.R.of_bytes bytes in
  let ck_next_txn = Bytebuf.R.i64 r in
  let ck_scan = decode_vec r in
  let ck_txns =
    Bytebuf.R.list r (fun r ->
        let ct_id = Bytebuf.R.i64 r in
        let ct_state = Txnmgr.state_of_int (Bytebuf.R.u8 r) in
        let ct_firsts = decode_vec r in
        let ct_lasts = decode_vec r in
        let ct_undo_nxts = decode_vec r in
        let ct_locks = Bytebuf.R.bytes r in
        { ct_id; ct_state; ct_firsts; ct_lasts; ct_undo_nxts; ct_locks })
  in
  let ck_dpt =
    Bytebuf.R.list r (fun r ->
        let pid = Bytebuf.R.i64 r in
        let rec_lsn = Bytebuf.R.i64 r in
        (pid, rec_lsn))
  in
  let ck_chains =
    Bytebuf.R.list r (fun r ->
        let pid = Bytebuf.R.i64 r in
        let chain = Bytebuf.R.list r Bytebuf.R.i64 in
        (pid, chain))
  in
  Bytebuf.R.expect_end r;
  { ck_scan; ck_txns; ck_dpt; ck_chains; ck_next_txn }

(* The checkpoint's redo point on the control stream — kept for the
   Ckpt_take trace event and single-stream callers: the oldest recLSN the
   checkpointed DPT records, or the Begin_ckpt itself when nothing was
   dirty. Per-stream consumers use {!redo_points}. *)
let redo_point ~begin_lsn body =
  List.fold_left (fun acc (_, rec_lsn) -> Lsn.min acc rec_lsn) begin_lsn body.ck_dpt

(* Per stream: where restart redo (and the log-reclamation safety point)
   for this checkpoint starts — the minimum recLSN among checkpointed DPT
   pages routed to the stream, or the stream's ck_scan horizon when none
   is. A page's recLSN is an LSN *on its own stream*, so the per-stream
   minimum is the only meaningful one (cross-stream byte offsets are not
   comparable). *)
let redo_points logs body =
  let starts = Array.copy body.ck_scan in
  List.iter
    (fun (pid, rec_lsn) ->
      let s = Logset.route_page logs pid in
      starts.(s) <- Lsn.min starts.(s) rec_lsn)
    body.ck_dpt;
  starts

let take mgr pool =
  let logs = Txnmgr.logs mgr in
  let wal = Logset.control logs in
  (* capture every stream's append horizon *before* the Begin record: when
     analysis scans stream s from ck_scan.(s) it sees every record appended
     after this instant, so nothing falls between the body snapshot and the
     scan *)
  let ck_scan =
    Array.init (Logset.n logs) (fun i -> Logmgr.end_offset (Logset.stream logs i))
  in
  let begin_rec = Logrec.make ~txn:Ids.nil_txn ~prev_lsn:Lsn.nil Logrec.Begin_ckpt in
  let begin_lsn = Logset.append logs ~stream:0 begin_rec in
  assert (Lsn.compare ck_scan.(0) begin_lsn = 0);
  let lockmgr = Txnmgr.locks mgr in
  let body =
    {
      ck_scan;
      ck_txns =
        List.map
          (fun (t : Txnmgr.txn) ->
            {
              ct_id = t.Txnmgr.txn_id;
              ct_state = t.Txnmgr.state;
              ct_firsts = Array.copy t.Txnmgr.firsts;
              ct_lasts = Array.copy t.Txnmgr.lasts;
              ct_undo_nxts = Array.copy t.Txnmgr.undo_nxts;
              (* the txn's commit-duration lock names: instant restart
                 re-locks a loser's names from here for updates that
                 predate the analysis scan window *)
              ct_locks =
                Lockcodec.encode_list
                  (Lockmgr.held_locks lockmgr ~txn:t.Txnmgr.txn_id);
            })
          (Txnmgr.active_txns mgr);
      ck_dpt = Bufpool.dirty_page_table pool;
      ck_chains = Bufpool.dirty_page_chains pool;
      (* the txn-id high-water mark: transactions that both began and
         ended before this checkpoint appear nowhere else restart can see
         (not live here, not in the analysis scan window), yet their ids
         must never be reissued — the committed-state oracle and the lock
         table key on them *)
      ck_next_txn = Txnmgr.next_txn_id mgr;
    }
  in
  let end_rec =
    Logrec.make ~body:(encode_body body) ~txn:Ids.nil_txn ~prev_lsn:begin_lsn Logrec.End_ckpt
  in
  let end_lsn = Logset.append logs ~stream:0 end_rec in
  (* Crash-ordering: *every* stream must be forced before the master record
     points at this checkpoint. The control stream's force makes the
     Begin/End pair stable (a master naming a checkpoint with no stable
     End_ckpt would leave analysis with nothing to start from); the other
     streams' forces back the body's claims — in particular a Committing
     transaction recorded in the body is treated as ended by analysis, so
     its whole fence-target vector must be stable whenever this checkpoint
     anchors a restart. The crash-point hook between the forces and the
     master update lets the test suite prove a crash in the window is
     survivable (the old master stays valid). *)
  Logset.flush_all logs;
  Crashpoint.hit cp_ckpt_master;
  Logmgr.set_master wal begin_lsn;
  Stats.incr c_ckpt_taken;
  if Trace.enabled () then
    Trace.emit
      (Trace.Ckpt_take
         {
           log = Logmgr.id wal;
           begin_lsn;
           end_lsn;
           redo = redo_point ~begin_lsn body;
         });
  begin_lsn

(* The last *complete* checkpoint: the Begin_ckpt the master points at,
   together with its End_ckpt (found by scanning forward from the master
   for the End whose prev_lsn closes the pair). With the flush-then-master
   ordering above, a non-nil master always has a stable End — but recovery
   code stays defensive and reports None if the pair is broken. *)
let last_complete wal =
  let m = Logmgr.master wal in
  if Lsn.is_nil m then None
  else begin
    let found = ref None in
    (try
       Logmgr.iter_from wal m (fun r ->
           if r.Logrec.kind = Logrec.End_ckpt && Lsn.compare r.Logrec.prev_lsn m = 0 then begin
             found := Some r;
             raise Exit
           end)
     with Exit -> ());
    match !found with
    | Some r -> Some (m, r.Logrec.lsn, decode_body r.Logrec.body)
    | None -> None
  end
