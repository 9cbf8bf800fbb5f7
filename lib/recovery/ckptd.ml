open Aries_util
module Lsn = Aries_wal.Lsn
module Logmgr = Aries_wal.Logmgr
module Logset = Aries_wal.Logset
module Txnmgr = Aries_txn.Txnmgr
module Bufpool = Aries_buffer.Bufpool
module Sched = Aries_sched.Sched
module Trace = Aries_trace.Trace

let c_ckptd_nudges = Stats.counter Stats.ckptd_nudges
let c_ckptd_rounds = Stats.counter Stats.ckptd_rounds

type cfg = {
  every_steps : int;
  nudge_pages : int;
  truncate : bool;
}

let default_cfg = { every_steps = 64; nudge_pages = 2; truncate = true }

let validate cfg =
  if cfg.every_steps < 1 then invalid_arg "Ckptd: every_steps must be >= 1";
  if cfg.nudge_pages < 1 then invalid_arg "Ckptd: nudge_pages must be >= 1"

(* The log-space reclamation safety point, per stream:

     min ( the last complete checkpoint's redo point on the stream,
           min recLSN of dirty pages routed to the stream,
           active transactions' first LSN on the stream )

   Everything below a stream's point is needed by no restart: redo of a
   page starts at its recLSN (all its records live on its stream), analysis
   starts at the checkpoint's per-stream scan horizon, and undo reaches
   back at most to each transaction's first record on the stream. Each
   point is monotone nondecreasing over time — checkpoints advance, recLSNs
   only rise as pages are cleaned, and finished transactions leave the
   table.

   Returns None when there is nothing safe to assert: no complete
   checkpoint yet, or a restored transaction of unknown extent (an all-nil
   firsts vector with some non-nil last) in the table — truncating anything
   under those conditions could destroy records undo still needs.

   The Log_safety trace events (one per stream) are emitted *here*, by the
   computation itself: discipline rule R6 judges every subsequent
   truncation against the last announcement for that log rather than
   trusting the truncator. *)
let safety_points mgr pool =
  let logs = Txnmgr.logs mgr in
  match Checkpoint.last_complete (Logset.control logs) with
  | None -> None
  | Some (_begin_lsn, _end_lsn, body) ->
      let safety = Checkpoint.redo_points logs body in
      List.iter
        (fun (pid, rec_lsn) ->
          let s = Logset.route_page logs pid in
          safety.(s) <- Lsn.min safety.(s) rec_lsn)
        (Bufpool.dirty_page_table pool);
      let blocked = ref false in
      List.iter
        (fun (txn : Txnmgr.txn) ->
          Array.iteri
            (fun s last ->
              if not (Lsn.is_nil last) then
                if Lsn.is_nil txn.Txnmgr.firsts.(s) then blocked := true
                else safety.(s) <- Lsn.min safety.(s) txn.Txnmgr.firsts.(s))
            txn.Txnmgr.lasts)
        (Txnmgr.active_txns mgr);
      if !blocked then None
      else begin
        if Trace.enabled () then
          Logset.iteri logs (fun s m ->
              ignore s;
              Trace.emit (Trace.Log_safety { log = Logmgr.id m; safety = safety.(s) }));
        Some safety
      end

let safety_point mgr pool =
  match safety_points mgr pool with None -> None | Some v -> Some v.(0)

(* Truncate each stream's prefix below its safety point (whole sealed
   segments only — Logmgr picks the segment boundary). Under the
   [Ckpt_premature_truncate] fault the daemon instead truncates
   every stream to its flushed boundary, ignoring the safety points —
   records restart still needs are destroyed, and rule R6 must catch the
   oversized Log_truncate the moment it is emitted. Returns total bytes
   reclaimed. *)
let reclaim mgr pool =
  let logs = Txnmgr.logs mgr in
  match safety_points mgr pool with
  | None -> 0
  | Some safety ->
      let total = ref 0 in
      Logset.iteri logs (fun s wal ->
          let upto =
            if Crashpoint.active Crashpoint.Ckpt_premature_truncate then
              Logmgr.flushed_offset wal
            else safety.(s)
          in
          total := !total + Logmgr.truncate_prefix wal ~upto);
      !total

(* One daemon round: if a stale dirty page is what pins the oldest live
   segment of its stream, nudge the cleaner first (so the checkpoint about
   to be taken records a fresher DPT and the safety points can advance past
   the segment boundaries); then take a fuzzy checkpoint — no quiescing,
   user fibers keep running between our yields — and reclaim. *)
let round mgr pool cfg =
  let logs = Txnmgr.logs mgr in
  let dpt = lazy (Bufpool.dirty_page_table pool) in
  let pinned = ref false in
  Logset.iteri logs (fun s wal ->
      if Logmgr.segment_count wal > 1 then
        if
          List.exists
            (fun (pid, rec_lsn) ->
              Logset.route_page logs pid = s && rec_lsn < Logmgr.first_segment_end wal)
            (Lazy.force dpt)
        then pinned := true);
  if !pinned then begin
    Stats.incr c_ckptd_nudges;
    ignore (Bufpool.clean_some pool ~max_pages:cfg.nudge_pages)
  end;
  ignore (Checkpoint.take mgr pool);
  Stats.incr c_ckptd_rounds;
  if cfg.truncate then ignore (reclaim mgr pool)

let run_daemon mgr pool cfg ~stop =
  validate cfg;
  Sched.periodic ~every:cfg.every_steps ~stop (fun () -> round mgr pool cfg)
