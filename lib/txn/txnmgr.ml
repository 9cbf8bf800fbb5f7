open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logmgr = Aries_wal.Logmgr
module Logset = Aries_wal.Logset
module Lockmgr = Aries_lock.Lockmgr
module Sched = Aries_sched.Sched
module Trace = Aries_trace.Trace

let c_txn_prepares = Stats.counter Stats.txn_prepares

type state = Active | Committing | Prepared | Rolling_back

(* All per-transaction log state is a per-stream vector: a record's
   prev_lsn is the txn's previous record on the *same* stream, so each
   stream's chain is independently hole-free after a crash, and the undo
   driver merges the per-stream chains in reverse gsn order. *)
type txn = {
  txn_id : Ids.txn_id;
  mutable state : state;
  firsts : Lsn.t array;
  lasts : Lsn.t array;
  undo_nxts : Lsn.t array;
}

exception Aborted of Ids.txn_id * string

type rm = {
  rm_redo : Logrec.t -> unit;
  rm_undo : txn -> Logrec.t -> unit;
  rm_locks : Logrec.t -> (Lockmgr.name * Lockmgr.mode) list;
}

type t = {
  logs : Logset.t;
  lockmgr : Lockmgr.t;
  table : (Ids.txn_id, txn) Hashtbl.t;
  rms : (int, rm) Hashtbl.t;
  fibers : (Sched.fiber_id, txn) Hashtbl.t;
  mutable next_id : Ids.txn_id;
  mutable group_commit : Group_commit.t option;
  mutable preempt : (Lockmgr.name -> unit) option;
  mutable txn_end : (txn -> [ `Commit of int * int | `Rollback ] -> unit) option;
  smo_fence : Lsn.t array;
      (* per stream: the last log record of any completed multi-stream SMO
         bracket — folded into every commit/prepare fence (see
         [fence_targets]) *)
}

let create logs lockmgr =
  {
    logs;
    lockmgr;
    table = Hashtbl.create 32;
    rms = Hashtbl.create 8;
    fibers = Hashtbl.create 32;
    next_id = 1;
    group_commit = None;
    preempt = None;
    txn_end = None;
    smo_fence = Array.make (Logset.n logs) Lsn.nil;
  }

let set_group_commit t gc = t.group_commit <- gc

let group_commit t = t.group_commit

let logs t = t.logs

let log t = Logset.control t.logs

let txn_stream t id = Logset.route_txn t.logs id

let locks t = t.lockmgr

let nil_vec t = Array.make (Logset.n t.logs) Lsn.nil

let touched txn =
  let acc = ref [] in
  Array.iteri (fun s l -> if not (Lsn.is_nil l) then acc := (s, l) :: !acc) txn.lasts;
  List.rev !acc

(* Commit/Prepare fence targets: the txn's own per-stream lasts, raised to
   the global SMO fence. In a single log, forcing a commit record
   implicitly forces every earlier SMO record, so committed data can never
   outlive the structure change it sits in. Across streams that free
   ordering is gone: a committed insert into a freshly split page must not
   be acknowledged — nor honored by restart — unless the split's records
   on *other* streams are stable too, or recovery would find the SMO's
   anchor invalid, physically roll the surviving half of the split back,
   and destroy committed data with it. Folding the vector in is cheap
   (bracket records are usually long since flushed, making the extra
   [flush_to] a no-op) and transitively covers older SMOs, because
   per-stream forcing is prefix-closed. *)
let fence_targets t txn =
  let acc = ref [] in
  Array.iteri
    (fun s l ->
      let l = Lsn.max l t.smo_fence.(s) in
      if not (Lsn.is_nil l) then acc := (s, l) :: !acc)
    txn.lasts;
  List.rev !acc

let register_rm t ?(locks = fun _ -> []) ~rm_id ~redo ~undo () =
  if rm_id = 0 then invalid_arg "Txnmgr.register_rm: rm_id 0 is reserved";
  Hashtbl.replace t.rms rm_id { rm_redo = redo; rm_undo = undo; rm_locks = locks }

let rm t id =
  match Hashtbl.find_opt t.rms id with
  | Some rm -> rm
  | None -> invalid_arg (Printf.sprintf "Txnmgr: no resource manager %d registered" id)

let rm_redo t (r : Logrec.t) = (rm t r.rm_id).rm_redo r

let rm_undo t txn (r : Logrec.t) = (rm t r.rm_id).rm_undo txn r

let rm_locks t (r : Logrec.t) = (rm t r.rm_id).rm_locks r

let set_preempt_hook t f = t.preempt <- f

let set_txn_end_hook t f = t.txn_end <- f

let bind_fiber t txn = if Sched.in_fiber () then Hashtbl.replace t.fibers (Sched.current ()) txn

let current t =
  if Sched.in_fiber () then Hashtbl.find_opt t.fibers (Sched.current ()) else None

let unbind_fiber t txn =
  Hashtbl.filter_map_inplace (fun _ tx -> if tx == txn then None else Some tx) t.fibers

let begin_txn t =
  let id = t.next_id in
  t.next_id <- id + 1;
  let txn =
    { txn_id = id; state = Active; firsts = nil_vec t; lasts = nil_vec t; undo_nxts = nil_vec t }
  in
  Hashtbl.replace t.table id txn;
  Lockmgr.attach t.lockmgr id;
  bind_fiber t txn;
  txn

let append t txn ~stream rec_ =
  let lsn = Logset.append t.logs ~stream rec_ in
  if Lsn.is_nil txn.firsts.(stream) then txn.firsts.(stream) <- lsn;
  txn.lasts.(stream) <- lsn;
  lsn

(* Routing: page records go to the page's stream (all of a page's records
   share one stream, preserving pageLSN/recLSN semantics); pageless records
   to the txn's control stream. *)
let route t txn page =
  if page <> Ids.nil_page then Logset.route_page t.logs page
  else Logset.route_txn t.logs txn.txn_id

let log_update t txn ?(page = Ids.nil_page) ?undoable ?redoable ~rm_id ~op ~body () =
  let stream = route t txn page in
  let r =
    Logrec.make ~page ?undoable ?redoable ~rm_id ~op ~body ~txn:txn.txn_id
      ~prev_lsn:txn.lasts.(stream) Logrec.Update
  in
  let lsn = append t txn ~stream r in
  if (match undoable with Some false -> false | Some true | None -> true) then
    txn.undo_nxts.(stream) <- lsn;
  lsn

let log_clr t txn ?(page = Ids.nil_page) ?stream ?undo_stream ?(rm_id = 0) ?(op = 0)
    ?(body = Bytes.empty) ~undo_nxt () =
  let stream = match stream with Some s -> s | None -> route t txn page in
  (* [undo_stream] is the stream of the record being compensated — where
     the cursor jump applies. A logical undo's CLR can land on a different
     page (the key moved), hence a different stream, than the compensated
     record; writing the jump into the CLR's own slot would poison that
     stream's cursor with a foreign offset. Default: the CLR's own stream
     (page-oriented compensation, dummy CLRs). *)
  let undo_stream = match undo_stream with Some s -> s | None -> stream in
  let r =
    Logrec.make ~page ~undo_nxt_lsn:undo_nxt ~undo_nxt_stream:undo_stream ~rm_id ~op ~body
      ~txn:txn.txn_id ~prev_lsn:txn.lasts.(stream) Logrec.Clr
  in
  let lsn = append t txn ~stream r in
  txn.undo_nxts.(undo_stream) <- undo_nxt;
  lsn

type nta = { nta_lasts : Lsn.t array; nta_cursors : Lsn.t array }

let nta_begin txn =
  { nta_lasts = Array.copy txn.lasts; nta_cursors = Array.copy txn.undo_nxts }

(* {2 Multi-stream NTA fence}

   A completed nested top action must be all-or-nothing under crash on
   *every* stream it touched. One dummy CLR per moved stream cannot give
   that: a crash may persist stream A's dummy (fencing A's half of the SMO
   from undo) while losing stream B's (exposing B's half to physical
   undo) — a half-rolled-back split. So a bracket that moved more than one
   stream is fenced by a single {e anchor} CLR on the txn's control
   stream. Its body carries two vectors over the moved streams:

   - jumps: (stream, pre-bracket undo cursor) — where each stream's undo
     cursor lands when the anchor is processed (a multi-stream UndoNxtLSN).
     The target is the cursor snapshot, NOT the pre-bracket last LSN: the
     two agree for a forward bracket (modulo non-undoable records the walk
     would merely step over), but for an SMO triggered during rollback the
     last-LSN vector points into already-compensated history. A cursor
     re-raised there replays undo — and a record whose compensation landed
     on a different stream (logical undo of a moved key) has no CLR on its
     own chain to shield it, so the replay double-undoes it. Everything
     above a stream's undo cursor is already handled (undone or fenced),
     so the cursor snapshot is always a sound landing point;
   - fences: (stream, last bracket record LSN) — the anchor's validity
     condition. Survivors per stream are a prefix, so "the last bracket
     record survived" means the stream's whole bracket did.

   The anchor is self-validating from the log alone ({!Logset.targets_valid}
   — same read-back machinery as the commit-record stream vector), so
   analysis, restart undo and instant restart's lazy undo all agree: anchor
   present and valid => every bracket record (on every stream) survived =>
   jump over all of them; anchor lost or invalid => no stream is fenced =>
   every surviving bracket record is physically compensated. Either way the
   SMO is atomic. A bracket that moved a single stream keeps the classic
   single dummy CLR — prefix survivorship already makes it atomic, and at
   N=1 the log stays byte-for-byte the single-log format. *)
let encode_nta_body ~jumps ~fences =
  let w = Bytebuf.W.create () in
  Bytebuf.W.bytes w (Logset.encode_commit_targets jumps);
  Bytebuf.W.bytes w (Logset.encode_commit_targets fences);
  Bytebuf.W.contents w

let decode_nta_body b =
  let r = Bytebuf.R.of_bytes b in
  let jumps = Logset.decode_commit_targets (Bytebuf.R.bytes r) in
  let fences = Logset.decode_commit_targets (Bytebuf.R.bytes r) in
  Bytebuf.R.expect_end r;
  (jumps, fences)

(* real CLRs carry their RM id; per-stream dummies have rm 0 and no body *)
let nta_anchor (r : Logrec.t) =
  r.Logrec.kind = Logrec.Clr && r.Logrec.rm_id = 0 && Bytes.length r.Logrec.body > 0

(* A body that does not decode fences nothing, like a torn bracket: the
   bracket's surviving records then roll back physically. *)
let nta_jumps logs (r : Logrec.t) =
  match decode_nta_body r.Logrec.body with
  | jumps, fences -> if Logset.targets_valid logs r fences then Some jumps else None
  | exception Bytebuf.Corrupt _ -> None

let nta_end t txn mark =
  let moved = ref [] in
  Array.iteri
    (fun s l -> if Lsn.compare txn.lasts.(s) l <> 0 then moved := s :: !moved)
    mark.nta_lasts;
  match List.rev !moved with
  | [] -> Lsn.nil
  | [ s ] -> log_clr t txn ~stream:s ~undo_nxt:mark.nta_cursors.(s) ()
  | moved ->
      let ctl = txn_stream t txn.txn_id in
      let jumps = List.map (fun s -> (s, mark.nta_cursors.(s))) moved in
      let fences = List.map (fun s -> (s, txn.lasts.(s))) moved in
      (* the record-level undo_nxt is cosmetic (every interpreter branches
         on {!nta_anchor} first); keep it meaningful for trace dumps *)
      let undo_nxt_lsn =
        match List.assoc_opt ctl jumps with Some l -> l | None -> mark.nta_cursors.(ctl)
      in
      let r =
        Logrec.make ~undo_nxt_lsn ~body:(encode_nta_body ~jumps ~fences) ~txn:txn.txn_id
          ~prev_lsn:txn.lasts.(ctl) Logrec.Clr
      in
      let lsn = append t txn ~stream:ctl r in
      List.iter (fun (s, l) -> txn.undo_nxts.(s) <- Lsn.min txn.undo_nxts.(s) l) jumps;
      (* the anchor itself stays on the undo path: a later record's undo
         can step a moved stream's cursor back onto a bracket record (its
         prev chain runs straight through the bracket), and only the
         anchor — processed at its own reverse-gsn turn, after every
         later record and before any bracket record — re-fences it. The
         control cursor therefore points at the anchor, not past it. *)
      txn.undo_nxts.(ctl) <- lsn;
      (* publish the bracket (and its anchor) to the global SMO fence:
         later commits of data that sits in the restructured pages must
         force these records — on streams those committers may never have
         touched — before acknowledging (see [fence_targets]) *)
      List.iter
        (fun (s, l) -> if Lsn.compare t.smo_fence.(s) l < 0 then t.smo_fence.(s) <- l)
        ((ctl, lsn) :: fences);
      lsn

let write_simple t txn ?(body = Bytes.empty) kind =
  let stream = txn_stream t txn.txn_id in
  let r = Logrec.make ~body ~txn:txn.txn_id ~prev_lsn:txn.lasts.(stream) kind in
  append t txn ~stream r

let release_and_end t txn =
  Lockmgr.release_all t.lockmgr ~txn:txn.txn_id;
  (* The End record carries the fence vector too: across streams, "the End
     survived" does not imply "every CLR before it survived" — restart
     validates the vector and turns a partially-lost rollback back into a
     loser. *)
  ignore
    (write_simple t txn ~body:(Logset.encode_commit_targets (touched txn)) Logrec.End_txn);
  Hashtbl.remove t.table txn.txn_id;
  unbind_fiber t txn

(* Make the commit-path record at [lsn] durable through the epoch fence
   before acknowledging: every stream in [targets] (the txn's per-stream
   last-LSN vector, including the commit record itself) must be forced
   through its entry. With a live group-commit daemon, enqueue the vector
   and suspend — the daemon forces each touched stream once per batch and
   wakes every covered committer. Otherwise force synchronously.

   The [Commit_early_ack] fault skips the force entirely and
   acknowledges anyway — a deliberate durability lie the online discipline
   checker must flag as an R4 violation. The [Wal_stream_fence_skip]
   fault forces only the commit record's own stream — the multi-stream
   variant of the same lie, flagged as R8 via the honest Commit_fence
   event. *)
let make_durable t ~txn ~commit_stream ~lsn ~epoch ~targets =
  (if Crashpoint.active Crashpoint.Commit_early_ack then ()
   else
     match t.group_commit with
     | Some gc when Group_commit.active gc ->
         if Trace.enabled () then Trace.emit (Trace.Commit_enqueue { txn; lsn });
         Group_commit.wait_durable gc ~commit_stream ~targets
     | Some _ | None ->
         let skip = Crashpoint.active Crashpoint.Wal_stream_fence_skip in
         List.iter
           (fun (s, l) ->
             if (not skip) || s = commit_stream then Logmgr.flush_to (Logset.stream t.logs s) l)
           targets;
         ignore (Logset.advance_epoch t.logs));
  (* Acknowledgement point: past these events the caller treats the commit
     (or prepare) as stable. R4 is judged on the commit record's own
     stream; R8(a) on the full fence vector. *)
  if Trace.enabled () then begin
    let wal = Logset.stream t.logs commit_stream in
    Trace.emit
      (Trace.Commit_ack { log = Logmgr.id wal; txn; lsn; lsn_end = Logmgr.record_end wal lsn });
    Trace.emit
      (Trace.Commit_fence
         {
           txn;
           epoch;
           targets =
             List.map
               (fun (s, l) ->
                 let m = Logset.stream t.logs s in
                 (Logmgr.id m, Logmgr.record_end m l))
               targets;
         })
  end

let commit t txn =
  (match txn.state with
  | Active | Prepared -> ()
  | Committing -> invalid_arg "Txnmgr.commit: already committing"
  | Rolling_back -> invalid_arg "Txnmgr.commit: transaction is rolling back");
  (* the body names, per touched stream, the txn's last record there —
     recovery counts the commit only if every named record survived *)
  let body = Logset.encode_commit_targets (fence_targets t txn) in
  let lsn = write_simple t txn ~body Logrec.Commit in
  let epoch = Logset.current_epoch t.logs in
  (* From here the txn's fate is sealed: its Commit record is in the log
     (possibly still volatile). If a fuzzy checkpoint fires while we are
     parked on the group-commit queue, the checkpoint body must not record
     us as Active — analysis starting after our Commit record would then
     resurrect us as a loser and undo committed work. [Committing] tells
     the checkpoint (and restart) to treat us as ended: Checkpoint.take
     forces every stream before publishing the master, so whenever that
     checkpoint anchors restart the Commit record and its whole fence
     vector are stable. *)
  txn.state <- Committing;
  (* Commit-stamp hook (MVCC): the CSN is the Commit record's (epoch, gsn)
     — appends never yield, so the log's current gsn still names it. Fired
     before the durability wait: the fate is sealed, and a snapshot pinned
     while we are parked on the group-commit queue must already see the
     stamped versions. *)
  (match t.txn_end with
  | Some f -> f txn (`Commit (epoch, Logset.current_gsn t.logs))
  | None -> ());
  make_durable t ~txn:txn.txn_id ~commit_stream:(txn_stream t txn.txn_id) ~lsn ~epoch
    ~targets:(fence_targets t txn);
  release_and_end t txn

(* Serialize the txn's retained lock names+modes into the Prepare body so
   restart can reacquire them for the in-doubt transaction. *)
let encode_locks lockmgr txn_id = Lockcodec.encode_list (Lockmgr.held_locks lockmgr ~txn:txn_id)

let encode_prepare_body ?(meta = Bytes.empty) ~targets ~locks () =
  let w = Bytebuf.W.create () in
  Bytebuf.W.bytes w (Logset.encode_commit_targets targets);
  Bytebuf.W.bytes w locks;
  (* 2PC routing meta (gid + coordinator shard, [Aries_shard.Twopc]); empty
     for a bare single-node prepare *)
  Bytebuf.W.bytes w meta;
  Bytebuf.W.contents w

let decode_prepare_body b =
  let r = Bytebuf.R.of_bytes b in
  let targets = Logset.decode_commit_targets (Bytebuf.R.bytes r) in
  let locks = Bytebuf.R.bytes r in
  let meta = Bytebuf.R.bytes r in
  Bytebuf.R.expect_end r;
  (targets, locks, meta)

let prepare ?meta t txn =
  (match txn.state with
  | Active -> ()
  | Committing | Prepared | Rolling_back -> invalid_arg "Txnmgr.prepare: not active");
  let body =
    encode_prepare_body ?meta ~targets:(fence_targets t txn)
      ~locks:(encode_locks t.lockmgr txn.txn_id) ()
  in
  let lsn = write_simple t txn ~body Logrec.Prepare in
  let epoch = Logset.current_epoch t.logs in
  Stats.incr c_txn_prepares;
  (* the Prepare force is a commit-path force too: it must fence every
     touched stream (an in-doubt txn's updates must all be stable before
     the prepare is acknowledged), and it batches when the daemon is live *)
  make_durable t ~txn:txn.txn_id ~commit_stream:(txn_stream t txn.txn_id) ~lsn ~epoch
    ~targets:(fence_targets t txn);
  txn.state <- Prepared

let commit_prepared t txn =
  if txn.state <> Prepared then invalid_arg "Txnmgr.commit_prepared: not prepared";
  txn.state <- Active;
  commit t txn

(* The undo driver: the txn's next record to compensate is the one with
   the highest gsn among its per-stream undo cursors — merging the
   per-stream reverse chains reproduces the classic single-log reverse-LSN
   undo order (required for physical SMO consistency), with same-stream
   prev_lsn/undo_nxt_lsn steps inside each chain. *)
let undo_candidate t ?stop_at txn =
  let best = ref None in
  Array.iteri
    (fun s cursor ->
      if
        (not (Lsn.is_nil cursor))
        && match stop_at with None -> true | Some sp -> Lsn.( < ) sp.(s) cursor
      then begin
        let r = Logmgr.read (Logset.stream t.logs s) cursor in
        match !best with
        | Some (_, (rb : Logrec.t)) when rb.Logrec.gsn >= r.Logrec.gsn -> ()
        | Some _ | None -> best := Some (s, r)
      end)
    txn.undo_nxts;
  !best

let undo_one t txn ((s, r) : int * Logrec.t) =
  match r.Logrec.kind with
  | Logrec.Update ->
      if r.Logrec.undoable then
        (* the RM writes a CLR (routed to the compensated record's stream)
           whose UndoNxtLSN is r.prev_lsn. If the undo itself required an
           SMO, the bracket's fence already restored every moved stream's
           cursor to its pre-bracket position (see nta_end), so progress
           is still strictly backwards. *)
        rm_undo t txn r
      else txn.undo_nxts.(s) <- r.Logrec.prev_lsn
  | Logrec.Clr ->
      if nta_anchor r then begin
        (* multi-stream NTA fence: if the whole bracket survived (validated
           straight from the log), jump every moved stream's cursor over
           its portion; if not, leave the cursors walking — the surviving
           bracket records roll back physically, restoring the pre-SMO
           tree. The re-application when the anchor is reached as the
           max-gsn candidate is sound: every record with a higher gsn is
           already compensated, so the jump targets never rewind a cursor
           forward. *)
        txn.undo_nxts.(s) <- r.Logrec.prev_lsn;
        match nta_jumps t.logs r with
        | Some jumps ->
            (* clamped: a crash can interrupt a rollback *after* the
               anchor's turn, and restart re-encounters the anchor with
               some cursors already advanced past (or through) the jump
               targets — re-applying a jump must never rewind a cursor
               upward, or already-compensated records would be undone
               twice *)
            List.iter (fun (js, jl) -> txn.undo_nxts.(js) <- Lsn.min txn.undo_nxts.(js) jl) jumps
        | None -> ()
      end
      else begin
        (* the jump applies to the compensated record's stream; when the
           CLR sits on a different stream (cross-stream logical undo), its
           own stream's walk simply continues at the chain predecessor.
           Clamped for the same reason as the anchor jumps: a re-encounter
           after a crash mid-rollback must not rewind the compensated
           stream's cursor. *)
        txn.undo_nxts.(r.Logrec.undo_nxt_stream) <-
          Lsn.min txn.undo_nxts.(r.Logrec.undo_nxt_stream) r.Logrec.undo_nxt_lsn;
        if r.Logrec.undo_nxt_stream <> s then txn.undo_nxts.(s) <- r.Logrec.prev_lsn
      end
  | Logrec.Commit | Logrec.Prepare | Logrec.Rollback | Logrec.End_txn | Logrec.Begin_ckpt
  | Logrec.End_ckpt | Logrec.Coord_commit | Logrec.Coord_abort | Logrec.Coord_end ->
      txn.undo_nxts.(s) <- r.Logrec.prev_lsn

let undo_chain t txn ?stop_at () =
  let rec loop () =
    match undo_candidate t ?stop_at txn with
    | None -> ()
    | Some c ->
        undo_one t txn c;
        loop ()
  in
  loop ()

let rollback t ?(reason = "rollback") txn =
  ignore reason;
  txn.state <- Rolling_back;
  Lockmgr.set_no_victim t.lockmgr txn.txn_id;
  ignore (write_simple t txn Logrec.Rollback);
  undo_chain t txn ();
  (* undo already discarded each compensated version; the hook sweeps any
     leftover pending versions and unpins the snapshot *)
  (match t.txn_end with Some f -> f txn `Rollback | None -> ());
  release_and_end t txn

let savepoint txn = Array.copy txn.lasts

let rollback_to t txn sp =
  (match txn.state with
  | Active -> ()
  | Committing | Prepared | Rolling_back -> invalid_arg "Txnmgr.rollback_to: not active");
  undo_chain t txn ~stop_at:sp ()

let lock t txn name mode duration =
  assert (txn.state <> Rolling_back);
  (* Instant-restart preemption (PR 6): if the name is held by a restart
     loser whose undo is still pending, drive that loser's rollback to
     completion before queueing — the engine's hook loops until no live
     loser holds the name, so the eventual wait (if any) is against real
     transactions only, never against uncommitted crash residue. *)
  (match t.preempt with None -> () | Some f -> f name);
  match Lockmgr.lock t.lockmgr ~txn:txn.txn_id name mode duration with
  | Lockmgr.Granted -> ()
  | Lockmgr.Denied -> assert false (* unconditional requests are never denied *)
  | Lockmgr.Deadlock ->
      rollback t ~reason:"deadlock victim" txn;
      raise (Aborted (txn.txn_id, "deadlock"))

let try_lock t txn name mode duration =
  match Lockmgr.lock t.lockmgr ~txn:txn.txn_id ~cond:true name mode duration with
  | Lockmgr.Granted -> true
  | Lockmgr.Denied -> false
  | Lockmgr.Deadlock -> assert false (* conditional requests never wait *)

let find t id = Hashtbl.find_opt t.table id

let active_txns t =
  Hashtbl.fold (fun _ txn acc -> txn :: acc) t.table []
  |> List.sort (fun a b -> compare a.txn_id b.txn_id)

let restore_txn t ?firsts ~id ~state ~lasts ~undo_nxts () =
  (* Restart analysis passes the per-stream firsts vector it reconstructed
     (from the checkpoint body or the first record it saw for the txn on
     each stream). When the extent really is unknown, an all-nil vector
     with a non-nil last blocks log truncation conservatively
     (Ckptd.safety_points returns None). *)
  let firsts = match firsts with Some f -> Array.copy f | None -> nil_vec t in
  let txn =
    { txn_id = id; state; firsts; lasts = Array.copy lasts; undo_nxts = Array.copy undo_nxts }
  in
  Hashtbl.replace t.table id txn;
  Lockmgr.attach t.lockmgr id;
  if id >= t.next_id then t.next_id <- id + 1;
  txn

let finish t txn = release_and_end t txn

let clear t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.fibers

let next_txn_id t = t.next_id

let note_txn_id t id = if id >= t.next_id then t.next_id <- id + 1

let state_to_int = function
  | Active -> 0
  | Prepared -> 1
  | Rolling_back -> 2
  | Committing -> 3

let state_of_int = function
  | 0 -> Active
  | 1 -> Prepared
  | 2 -> Rolling_back
  | 3 -> Committing
  | n -> raise (Bytebuf.Corrupt (Printf.sprintf "bad txn state %d" n))
