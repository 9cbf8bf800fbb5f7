open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logmgr = Aries_wal.Logmgr
module Logset = Aries_wal.Logset
module Txnmgr = Aries_txn.Txnmgr
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
}

type body = {
  ck_scan : Lsn.t array;
      (* per stream, the append horizon captured immediately before the
         Begin_ckpt was appended: where analysis starts its scan of that
         stream. ck_scan.(0) = begin_lsn by construction (Begin lands at
         the captured horizon of the control stream), so the body leaves
         it out and the decoder takes it back. Records appended
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

(* Body layout: every integer an unsigned LEB128 varint
   ({!Bytebuf.W.uvar}), every list and vector count-prefixed by one.

   - the txn-id high-water mark;
   - the stream count and ck_scan without its stream-0 entry, which is
     the Begin_ckpt's LSN by construction (the End_ckpt's prev_lsn) and
     comes back from the decoder's [begin_lsn];
   - the transaction entries;
   - one entry per dirty page, in ascending page order: the page id as
     its distance from the previous entry's (the first from 0); the
     recLSN as its signed distance back from the Begin_ckpt, zigzag-coded
     (a page on another stream has its own offsets); and the page's
     chain. The chain starts with a tag, twice its length plus one if its
     first LSN is the recLSN itself, which is then not written; each LSN
     written is its distance from the one before (the first from the
     recLSN). Tag 0 means no known chain. Every page distance and every
     chain distance written must be positive, which the encoder checks
     and the decoder re-checks.

   So the in-memory DPT and chain lists are one list on the log: every
   chained page must be in the DPT, with a non-empty chain that starts at
   or after its recLSN. *)
let encode_vec w v =
  Bytebuf.W.uvar w (Array.length v);
  Array.iter (Bytebuf.W.uvar w) v

let decode_vec r = Array.of_list (Bytebuf.R.uvar_list r Bytebuf.R.uvar)

let corrupt fmt = Printf.ksprintf (fun m -> raise (Bytebuf.Corrupt m)) fmt

let refuse fmt = Printf.ksprintf (fun m -> invalid_arg ("Checkpoint.encode_body: " ^ m)) fmt

let zigzag d = if d >= 0 then 2 * d else (-2 * d) - 1

let unzigzag z = if z land 1 = 0 then z lsr 1 else -((z + 1) lsr 1)

let encode_chain w pid rec_lsn chain =
  let starts_at_rec = match chain with l :: _ -> l = rec_lsn | [] -> false in
  Bytebuf.W.uvar w ((2 * List.length chain) + if starts_at_rec then 1 else 0);
  let written = if starts_at_rec then List.tl chain else chain in
  ignore
    (List.fold_left
       (fun prev l ->
         if l <= prev then refuse "page %d chain not ascending (%d after %d)" pid l prev;
         Bytebuf.W.uvar w (l - prev);
         l)
       rec_lsn written)

let decode_chain r pid rec_lsn =
  let tag = Bytebuf.R.uvar r in
  if tag = 1 then corrupt "page %d chain tag 1" pid;
  let n = tag lsr 1 in
  let starts_at_rec = tag land 1 = 1 in
  if n > Bytebuf.R.remaining r + 1 then corrupt "page %d chain of %d exceeds the body" pid n;
  let prev = ref rec_lsn in
  let next i =
    if i = 0 && starts_at_rec then rec_lsn
    else begin
      let d = Bytebuf.R.uvar r in
      if d = 0 then corrupt "page %d chain not ascending" pid;
      prev := !prev + d;
      !prev
    end
  in
  List.init n next

let encode_pages w ~begin_lsn dpt chains =
  Bytebuf.W.uvar w (List.length dpt);
  let _, rest =
    List.fold_left
      (fun (prev, chains) (pid, rec_lsn) ->
        if pid <= prev then refuse "dirty page table not ascending (%d after %d)" pid prev;
        let back = begin_lsn - rec_lsn in
        if rec_lsn < 0 || back > max_int / 2 || back < -(max_int / 2) then
          refuse "page %d recLSN %d out of range of the Begin_ckpt at %d" pid rec_lsn begin_lsn;
        Bytebuf.W.uvar w (pid - prev);
        Bytebuf.W.uvar w (zigzag back);
        match chains with
        | (cpid, chain) :: chains when cpid = pid ->
            if chain = [] then refuse "page %d has an empty chain" pid;
            encode_chain w pid rec_lsn chain;
            (pid, chains)
        | _ ->
            Bytebuf.W.uvar w 0;
            (pid, chains))
      (0, chains) dpt
  in
  match rest with
  | [] -> ()
  | (pid, _) :: _ -> refuse "chain of page %d, not in the dirty page table" pid

let decode_pages r ~begin_lsn =
  let prev = ref 0 in
  let pages =
    Bytebuf.R.uvar_list r (fun r ->
        let d = Bytebuf.R.uvar r in
        if d = 0 then corrupt "dirty page table not ascending";
        let pid = !prev + d in
        prev := pid;
        let rec_lsn = begin_lsn - unzigzag (Bytebuf.R.uvar r) in
        if rec_lsn < 0 then corrupt "page %d recLSN below 0" pid;
        (pid, rec_lsn, decode_chain r pid rec_lsn))
  in
  ( List.map (fun (pid, rec_lsn, _) -> (pid, rec_lsn)) pages,
    List.filter_map (fun (pid, _, chain) -> if chain = [] then None else Some (pid, chain)) pages )

let encode_body ~begin_lsn b =
  let n = Array.length b.ck_scan in
  if n > 0 && b.ck_scan.(0) <> begin_lsn then
    refuse "stream 0 scans from %d, not the Begin_ckpt at %d" b.ck_scan.(0) begin_lsn;
  let w = Bytebuf.W.create () in
  Bytebuf.W.uvar w b.ck_next_txn;
  Bytebuf.W.uvar w n;
  for i = 1 to n - 1 do
    Bytebuf.W.uvar w b.ck_scan.(i)
  done;
  Bytebuf.W.uvar_list w
    (fun w ct ->
      Bytebuf.W.uvar w ct.ct_id;
      Bytebuf.W.u8 w (Txnmgr.state_to_int ct.ct_state);
      encode_vec w ct.ct_firsts;
      encode_vec w ct.ct_lasts;
      encode_vec w ct.ct_undo_nxts)
    b.ck_txns;
  encode_pages w ~begin_lsn b.ck_dpt b.ck_chains;
  Bytebuf.W.contents w

let decode_body ~begin_lsn bytes =
  let r = Bytebuf.R.of_bytes bytes in
  let ck_next_txn = Bytebuf.R.uvar r in
  let n = Bytebuf.R.uvar r in
  if n > Bytebuf.R.remaining r + 1 then corrupt "%d streams exceed the body" n;
  let ck_scan = Array.make n begin_lsn in
  for i = 1 to n - 1 do
    ck_scan.(i) <- Bytebuf.R.uvar r
  done;
  let ck_txns =
    Bytebuf.R.uvar_list r (fun r ->
        let ct_id = Bytebuf.R.uvar r in
        let ct_state = Txnmgr.state_of_int (Bytebuf.R.u8 r) in
        let ct_firsts = decode_vec r in
        let ct_lasts = decode_vec r in
        let ct_undo_nxts = decode_vec r in
        { ct_id; ct_state; ct_firsts; ct_lasts; ct_undo_nxts })
  in
  let ck_dpt, ck_chains = decode_pages r ~begin_lsn in
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
    Logrec.make ~body:(encode_body ~begin_lsn body) ~txn:Ids.nil_txn ~prev_lsn:begin_lsn
      Logrec.End_ckpt
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
    | Some r -> Some (m, r.Logrec.lsn, decode_body ~begin_lsn:m r.Logrec.body)
    | None -> None
  end
