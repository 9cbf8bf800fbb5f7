open Aries_util

let c_trace_violations = Stats.counter Stats.trace_violations

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10

let rule_to_string = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"

let rule_summary = function
  | R1 -> "no unconditional lock wait while holding a latch"
  | R2 -> "latch depth <= 3, parent-to-child coupling order only"
  | R3 -> "one SMO in flight per tree"
  | R4 -> "no commit ack before the covering force"
  | R5 -> "no page write with pageLSN above the flushed log (WAL rule)"
  | R6 -> "no truncation past the safety point; no page write with recLSN in a reclaimed segment"
  | R7 ->
      "no page served while in the needs-redo set; no loser-locked name granted before that \
       loser's undo completes"
  | R8 ->
      "no commit ack before every touched stream is forced through the epoch fence; no redo \
       applied out of (epoch, gsn) order per page"
  | R9 ->
      "an Mvcc snapshot read issues no lock request and never waits; no observed version CSN \
       above the reader's pinned snapshot"
  | R10 ->
      "no global commit decision or ack before the decision record and every participant's \
       Prepare are provably forced; no in-doubt branch committed without a durable decision \
       (presumed abort: an abort needs no record)"

exception Violation of rule * string

let () =
  Printexc.register_printer (function
    | Violation (r, msg) ->
        Some (Printf.sprintf "Discipline.Violation(%s: %s)" (rule_to_string r) msg)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Checker state. Fiber-keyed state is volatile: it belongs to one
   scheduler incarnation and is discarded at [Run_begin] (fiber ids are
   reused across runs). Log-keyed state ([flushed]) mirrors durable state
   and survives runs — exactly like the real flushed boundary survives a
   simulated crash. *)

let max_latch_depth = 3

type fiber_state = { mutable fs_latches : (Trace.latch_kind * string) list (* newest first *) }

let fibers : (int, fiber_state) Hashtbl.t = Hashtbl.create 32

(* log id -> stable end offset, learned only from Log_open / Log_force *)
let flushed : (int, int) Hashtbl.t = Hashtbl.create 4

(* log id -> last independently announced reclamation safety point
   (Log_safety, emitted by the safety computation itself — monotone
   nondecreasing, so trusting the latest announcement is sound) *)
let safety : (int, int) Hashtbl.t = Hashtbl.create 4

(* log id -> current log start offset (start of the oldest live segment),
   advanced only by Log_truncate events the checker has already vetted *)
let log_start : (int, int) Hashtbl.t = Hashtbl.create 4

(* tree id -> in-flight SMOs as (txn, exclusive) *)
let smos : (int, (int * bool) list ref) Hashtbl.t = Hashtbl.create 4

(* pids currently under media repair (Page_quarantined .. Page_repaired):
   the repair roll-forward redoes from the log {e archive}, so the page it
   flushes legitimately carries a recLSN below the live log's start — R6(b)
   does not apply to it. *)
let repairing : (int, unit) Hashtbl.t = Hashtbl.create 4

(* Instant-restart state (PR 6), volatile like [repairing]: a crash wipes
   the engine along with the rest of the run.

   [needs_redo]: (pool, pid) pairs announced by Restart_dpt whose on-demand
   redo has not yet finished — R7(a) forbids serving them to a Page_fix,
   except inside the delimited Restart_redo_page .. Restart_page_done
   window ([redoing]), where the redo roll-forward itself fixes the page.
   Keyed by (pool, pid), not bare pid: a sharded Db runs one pool per
   shard with independent page namespaces, and interleaved shard restarts
   must not see each other's needs-redo state.

   [loser_locks]: lock name -> loser txn that re-acquired it during
   Analysis; [live_losers]: losers whose undo has not completed. R7(b)
   forbids granting a loser-locked name to any other txn while the loser
   is live. *)
let needs_redo : (int * int, unit) Hashtbl.t = Hashtbl.create 8

let redoing : (int * int, unit) Hashtbl.t = Hashtbl.create 4

let loser_locks : (Lockspec.name, int) Hashtbl.t = Hashtbl.create 8

let live_losers : (int, unit) Hashtbl.t = Hashtbl.create 4

(* (stream, pid) -> gsn of the last redo applied to the page this run
   (R8(b)): restart redo must hit each page in strictly increasing gsn
   order. All of a page's records live on one stream, so keying by
   (stream, pid) tracks exactly the per-page order — and keeps shards
   apart, since pools reuse page ids but stream ids are process-unique.
   Volatile — a new run means a new recovery; a quarantine means media
   repair rebuilds the page from the archived dump, legitimately
   restarting its redo history. *)
let redo_gsn : (int * int, int) Hashtbl.t = Hashtbl.create 8

(* Mvcc reader state (PR 8), volatile like the version store itself:
   [pins]: txn -> pinned snapshot (epoch, gsn); [reading]: txns inside an
   Mvcc_read_begin .. Mvcc_read_end window. R9(a) forbids a txn in the
   window any lock-manager interaction at all — the version chain replaces
   the current/next-key lock; R9(b) forbids a resolved version's CSN from
   exceeding the reader's pin (snapshot isolation would silently break). *)
let pins : (int, int * int) Hashtbl.t = Hashtbl.create 8

let reading : (int, unit) Hashtbl.t = Hashtbl.create 8

(* 2PC state (PR 10), durable like [flushed]: prepares and decisions are
   facts about the logs and survive simulated crashes.

   [prepare_targets]: gid -> every (log id, end offset) a participant's
   Prepare vote claimed stable (accumulated across participants);
   [decided]: gids with a provably durable commit decision. R10(a) checks a
   commit decision's own record and all recorded Prepare targets against
   the flushed boundaries; R10(b) forbids a committed ack or a committed
   in-doubt resolution without a durable decision. *)
let prepare_targets : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8

let decided : (int, unit) Hashtbl.t = Hashtbl.create 8

let violations_count = ref 0

let violations () = !violations_count

let reset_run_state () =
  Hashtbl.reset fibers;
  Hashtbl.reset smos;
  Hashtbl.reset repairing;
  Hashtbl.reset needs_redo;
  Hashtbl.reset redoing;
  Hashtbl.reset loser_locks;
  Hashtbl.reset live_losers;
  Hashtbl.reset redo_gsn;
  Hashtbl.reset pins;
  Hashtbl.reset reading

let reset () =
  reset_run_state ();
  Hashtbl.reset flushed;
  Hashtbl.reset safety;
  Hashtbl.reset log_start;
  Hashtbl.reset prepare_targets;
  Hashtbl.reset decided;
  violations_count := 0

let fiber_state f =
  match Hashtbl.find_opt fibers f with
  | Some fs -> fs
  | None ->
      let fs = { fs_latches = [] } in
      Hashtbl.replace fibers f fs;
      fs

let latch_depth ~fiber =
  match Hashtbl.find_opt fibers fiber with Some fs -> List.length fs.fs_latches | None -> 0

let smo_list tree =
  match Hashtbl.find_opt smos tree with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace smos tree l;
      l

let violate rule fmt =
  Printf.ksprintf
    (fun msg ->
      incr violations_count;
      Stats.incr c_trace_violations;
      raise (Violation (rule, Printf.sprintf "%s (%s)" msg (rule_summary rule))))
    fmt

(* ------------------------------------------------------------------ *)
(* The online checker: one event at a time, raising on violation. *)

let check (ev : Trace.event) =
  let fiber = ev.Trace.ev_fiber in
  match ev.Trace.ev_payload with
  | Trace.Run_begin _ -> reset_run_state ()
  | Trace.Latch_acquire { kind; name; cond; waited = _; mode = _ } ->
      let fs = fiber_state fiber in
      (* R2 coupling order: latches are coupled parent before child; the
         tree latch is the root-most resource, so taking it while already
         holding a page latch is a child->parent inversion. Conditional
         grants never wait and cannot deadlock. *)
      if
        kind = Trace.Tree_latch && (not cond)
        && List.exists (fun (k, _) -> k = Trace.Page_latch) fs.fs_latches
      then
        violate R2 "fiber %d acquired tree latch %s while holding page latch(es) %s" fiber name
          (String.concat ","
             (List.filter_map
                (fun (k, n) -> if k = Trace.Page_latch then Some n else None)
                fs.fs_latches));
      fs.fs_latches <- (kind, name) :: fs.fs_latches;
      if List.length fs.fs_latches > max_latch_depth then
        violate R2 "fiber %d latch depth %d > %d: holding %s" fiber
          (List.length fs.fs_latches) max_latch_depth
          (String.concat "," (List.map snd fs.fs_latches))
  | Trace.Latch_release { name; kind = _ } -> (
      match Hashtbl.find_opt fibers fiber with
      | None -> ()
      | Some fs ->
          let rec remove = function
            | [] -> []
            | (_, n) :: rest when n = name -> rest
            | h :: rest -> h :: remove rest
          in
          fs.fs_latches <- remove fs.fs_latches)
  | Trace.Lock_wait { txn; name; mode } ->
      (* R1: a lock wait under latch can deadlock latch holders against
         lock holders, which neither manager can see (§2.2: lock requests
         made while holding a latch must be conditional). *)
      let d = latch_depth ~fiber in
      if d > 0 then
        violate R1 "txn %d (fiber %d) waits for lock %s %s while holding %d latch(es)" txn fiber
          (Lockspec.mode_to_string mode) (Lockspec.name_to_string name) d;
      (* R9(a): a snapshot reader that blocks at all has lost wait-freedom *)
      if Hashtbl.mem reading txn then
        violate R9 "txn %d waits for lock %s %s inside an Mvcc snapshot read" txn
          (Lockspec.mode_to_string mode) (Lockspec.name_to_string name)
  | Trace.Lock_request { txn; name; mode; duration = _; cond = _ } ->
      (* R9(a): inside the wait-free window even a conditional request is
         illegal — the version chain replaces the lock manager entirely *)
      if Hashtbl.mem reading txn then
        violate R9 "txn %d requested lock %s %s inside an Mvcc snapshot read" txn
          (Lockspec.mode_to_string mode) (Lockspec.name_to_string name)
  | Trace.Mvcc_pin { txn; epoch; gsn } ->
      if not (Hashtbl.mem pins txn) then Hashtbl.replace pins txn (epoch, gsn)
  | Trace.Mvcc_read_begin { txn } -> Hashtbl.replace reading txn ()
  | Trace.Mvcc_read_end { txn } -> Hashtbl.remove reading txn
  | Trace.Mvcc_unpin { txn } ->
      Hashtbl.remove pins txn;
      Hashtbl.remove reading txn
  | Trace.Mvcc_read { txn; epoch; gsn; visible = _ } -> (
      (* R9(b): every committed version a reader resolves against must lie
         at or below its pinned snapshot — a higher CSN is a future write
         leaking into the snapshot. *)
      match Hashtbl.find_opt pins txn with
      | None -> violate R9 "txn %d resolved a version without a pinned snapshot" txn
      | Some (pe, pg) ->
          if (epoch, gsn) > (pe, pg) then
            violate R9 "txn %d observed version csn=%d.%d above its pinned snapshot %d.%d" txn
              epoch gsn pe pg)
  | Trace.Smo_begin { tree; txn; exclusive } ->
      let l = smo_list tree in
      if exclusive && !l <> [] then
        violate R3 "exclusive SMO by txn %d overlaps in-flight SMO(s) %s on tree %d" txn
          (String.concat "," (List.map (fun (t, _) -> string_of_int t) !l))
          tree;
      if List.exists (fun (_, ex) -> ex) !l then
        violate R3 "SMO by txn %d started while txn %s holds an exclusive SMO on tree %d" txn
          (String.concat ","
             (List.filter_map (fun (t, ex) -> if ex then Some (string_of_int t) else None) !l))
          tree;
      l := (txn, exclusive) :: !l
  | Trace.Smo_upgrade { tree; txn } ->
      let l = smo_list tree in
      if List.exists (fun (t, _) -> t <> txn) !l then
        violate R3 "SMO upgrade by txn %d granted while other SMO(s) in flight on tree %d" txn
          tree;
      l := List.map (fun (t, ex) -> if t = txn then (t, true) else (t, ex)) !l
  | Trace.Smo_end { tree; txn } ->
      let l = smo_list tree in
      if not (List.exists (fun (t, _) -> t = txn) !l) then
        violate R3 "SMO end by txn %d without a matching begin on tree %d" txn tree;
      let rec remove = function
        | [] -> []
        | (t, _) :: rest when t = txn -> rest
        | h :: rest -> h :: remove rest
      in
      l := remove !l
  | Trace.Log_open { log; flushed = f } -> Hashtbl.replace flushed log f
  | Trace.Log_force { log; upto; stable_lsn = _ } ->
      let cur = match Hashtbl.find_opt flushed log with Some f -> f | None -> 0 in
      Hashtbl.replace flushed log (max cur upto)
  | Trace.Log_safety { log; safety = s } ->
      (* the safety point is monotone nondecreasing; remember the furthest
         announcement so R6 can compare truncations against an authority
         other than the truncator itself *)
      let cur = match Hashtbl.find_opt safety log with Some v -> v | None -> 0 in
      Hashtbl.replace safety log (max cur s)
  | Trace.Log_truncate { log; new_start; bytes = _; segments = _ } ->
      (* R6(a): a truncation is legal only below the last independently
         announced safety point, and never into the volatile suffix. *)
      (match Hashtbl.find_opt flushed log with
      | Some f when new_start > f ->
          violate R6 "log %d truncated to %d beyond flushed offset %d" log new_start f
      | _ -> ());
      let s = match Hashtbl.find_opt safety log with Some v -> v | None -> 0 in
      if new_start > s then
        violate R6 "log %d truncated to %d past announced safety point %d" log new_start s;
      let cur = match Hashtbl.find_opt log_start log with Some v -> v | None -> 0 in
      Hashtbl.replace log_start log (max cur new_start)
  | Trace.Commit_ack { log; txn; lsn; lsn_end } -> (
      (* R4: an acknowledged commit whose record is not covered by a force
         is a durability lie — group-commit aware, because the daemon's
         batched force emits Log_force before waking any covered
         committer. *)
      match Hashtbl.find_opt flushed log with
      | None -> ()  (* log opened before tracing was enabled: no baseline *)
      | Some f ->
          if lsn_end > f then
            violate R4 "txn %d acked with commit record [%d,%d) beyond flushed offset %d" txn
              lsn lsn_end f)
  | Trace.Page_write { log; pid; page_lsn; lsn_end; rec_lsn } ->
      (* R5, the WAL rule: the log must cover the page's latest update
         before the page image reaches disk. *)
      (if page_lsn > 0 then
         match Hashtbl.find_opt flushed log with
         | None -> ()
         | Some f ->
             if lsn_end > f then
               violate R5
                 "page %d written with pageLSN %d (record end %d) beyond flushed offset %d" pid
                 page_lsn lsn_end f);
      (* R6(b): a dirty page whose first unflushed update (recLSN) lies in
         a reclaimed segment means the truncation destroyed redo records a
         crash would still need — unless the page is under media repair,
         whose roll-forward redoes from the archived copies of exactly
         those segments. *)
      if rec_lsn > 0 && not (Hashtbl.mem repairing pid) then begin
        match Hashtbl.find_opt log_start log with
        | Some start when rec_lsn < start ->
            violate R6 "page %d written with recLSN %d inside reclaimed prefix (log start %d)"
              pid rec_lsn start
        | _ -> ()
      end
  | Trace.Log_tail_truncated { log; at; bytes = _ } ->
      (* the tail scan's verdict is the new end of log; keep the checker's
         stable boundary from exceeding it (the subsequent Log_open
         re-baseline makes this exact) *)
      (match Hashtbl.find_opt flushed log with
      | Some f when f > at -> Hashtbl.replace flushed log at
      | _ -> ())
  | Trace.Commit_fence { txn; epoch = _; targets } ->
      (* R8(a): the acknowledgement claims the epoch fence was honored —
         every stream the txn touched must already be forced through the
         txn's last record there. An ack with an unforced target is the
         multi-stream durability lie: the commit record may be stable on
         its own stream while a touched stream's tail is still volatile. *)
      List.iter
        (fun (log, lsn_end) ->
          match Hashtbl.find_opt flushed log with
          | None -> ()  (* log opened before tracing was enabled: no baseline *)
          | Some f ->
              if lsn_end > f then
                violate R8 "txn %d acked with stream %d fence target %d beyond flushed offset %d"
                  txn log lsn_end f)
        targets
  | Trace.Redo_apply { log; pid; lsn; gsn } ->
      (* R8(b): per-page redo order. A page's records all live on one
         stream, so replaying them in ascending gsn is replaying them in
         append order; a non-monotone application means the merge (or a
         single-page roll-forward) fed history to the page backwards.
         Keyed by (stream, pid): pools reuse page ids, stream ids don't. *)
      (match Hashtbl.find_opt redo_gsn (log, pid) with
      | Some g when gsn <= g ->
          violate R8
            "redo applied to page %d (stream %d) at lsn %d with gsn %d not above last applied gsn %d"
            pid log lsn gsn g
      | _ -> ());
      Hashtbl.replace redo_gsn (log, pid) gsn
  | Trace.Page_quarantined { pid; cause = _ } ->
      Hashtbl.replace repairing pid ();
      (* media repair rebuilds from the archived dump: its roll-forward
         legitimately restarts the page's redo history from the beginning.
         The quarantine event carries no stream id, so drop the page's
         entry on every stream — conservative: it can only suppress, never
         invent, a violation. *)
      Hashtbl.filter_map_inplace
        (fun (_, p) g -> if p = pid then None else Some g)
        redo_gsn
  | Trace.Page_repaired { pid; records = _ } -> Hashtbl.remove repairing pid
  | Trace.Restart_dpt { pool; pid; rec_lsn = _ } -> Hashtbl.replace needs_redo (pool, pid) ()
  | Trace.Restart_redo_page { pool; pid; on_demand = _ } ->
      Hashtbl.replace redoing (pool, pid) ()
  | Trace.Restart_page_done { pool; pid; applied = _ } ->
      Hashtbl.remove needs_redo (pool, pid);
      Hashtbl.remove redoing (pool, pid)
  | Trace.Page_fix { pool; pid } ->
      (* R7(a): a page still awaiting its on-demand redo must not be served
         to anyone — its image predates crash-surviving updates. The redo
         roll-forward itself fixes the page inside the delimited
         Restart_redo_page .. Restart_page_done window, which is legal. *)
      if Hashtbl.mem needs_redo (pool, pid) && not (Hashtbl.mem redoing (pool, pid)) then
        violate R7 "page %d (pool %d) fixed while still in the needs-redo set" pid pool
  | Trace.Restart_loser { txn } -> Hashtbl.replace live_losers txn ()
  | Trace.Restart_lock { txn; name; mode = _ } -> Hashtbl.replace loser_locks name txn
  | Trace.Restart_undo_txn _ -> ()
  | Trace.Restart_loser_done { txn } ->
      Hashtbl.remove live_losers txn;
      Hashtbl.filter_map_inplace
        (fun _ loser -> if loser = txn then None else Some loser)
        loser_locks
  | Trace.Lock_grant { txn; name; mode = _; duration = _; waited = _ } -> (
      (* R7(b): a name re-locked on a loser's behalf protects uncommitted
         state; granting it to another txn before the loser's undo
         completes leaks that state. *)
      match Hashtbl.find_opt loser_locks name with
      | Some loser when loser <> txn && Hashtbl.mem live_losers loser ->
          violate R7 "lock %s granted to txn %d while loser txn %d still holds it"
            (Lockspec.name_to_string name) txn loser
      | _ -> ())
  | Trace.Restart_phase { phase } ->
      (* a fresh restart replays history anew: per-page redo positions from
         the previous incarnation (background drains, media repairs) no
         longer bound this recovery's applications *)
      if phase = Trace.Analysis then Hashtbl.reset redo_gsn
  | Trace.Twopc_prepared { gid; shard = _; txn = _; targets } ->
      let cur =
        match Hashtbl.find_opt prepare_targets gid with Some l -> l | None -> []
      in
      Hashtbl.replace prepare_targets gid (targets @ cur)
  | Trace.Twopc_decide { gid; commit; log; lsn_end } ->
      if commit then begin
        (* R10(a): the commit decision claims durability — its own record
           and every participant Prepare it is predicated on must already
           lie below the flushed boundaries. An unforced decision is the
           distributed durability lie: a coordinator crash would presume
           abort while participants were told to commit. *)
        (match Hashtbl.find_opt flushed log with
        | None -> ()  (* log opened before tracing was enabled: no baseline *)
        | Some f ->
            if lsn_end > f then
              violate R10
                "gid %d decided commit with decision record end %d beyond flushed offset %d \
                 of log %d"
                gid lsn_end f log);
        List.iter
          (fun (plog, pend) ->
            match Hashtbl.find_opt flushed plog with
            | None -> ()
            | Some f ->
                if pend > f then
                  violate R10
                    "gid %d decided commit with Prepare target %d beyond flushed offset %d \
                     of log %d"
                    gid pend f plog)
          (match Hashtbl.find_opt prepare_targets gid with Some l -> l | None -> []);
        Hashtbl.replace decided gid ()
      end
  | Trace.Twopc_ack { gid; committed } ->
      (* R10(b): a committed ack without a durable decision *)
      if committed && not (Hashtbl.mem decided gid) then
        violate R10 "gid %d acked committed without a durable commit decision" gid
  | Trace.Twopc_resolve { gid; shard = _; txn; committed } ->
      (* R10(b): restart may only commit an in-doubt branch on the strength
         of a durable decision; aborting is always legal (presumed abort) *)
      if committed && not (Hashtbl.mem decided gid) then
        violate R10 "gid %d branch txn %d resolved committed without a durable commit decision"
          gid txn
  | Trace.Latch_try_fail _ | Trace.Lock_deny _
  | Trace.Lock_release _ | Trace.Lock_release_all _ | Trace.Deadlock_victim _
  | Trace.Log_append _ | Trace.Log_seal _ | Trace.Log_archive _ | Trace.Ckpt_take _
  | Trace.Page_unfix _ | Trace.Commit_enqueue _
  | Trace.Daemon_spawn _ | Trace.Daemon_exit _
  | Trace.Protocol_locks _ | Trace.Io_retry _ | Trace.Vgc_round _ | Trace.Shard_event _
  | Trace.Global_victim _ | Trace.Note _ ->
      ()

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    Trace.register_checker check
  end
