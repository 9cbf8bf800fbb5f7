open Aries_util

let c_trace_events = Stats.counter Stats.trace_events
let c_trace_dumps = Stats.counter Stats.trace_dumps

type latch_kind = Page_latch | Tree_latch

type latch_mode = S | X

type payload =
  | Run_begin of { run : int }
  | Latch_acquire of {
      kind : latch_kind;
      name : string;
      mode : latch_mode;
      cond : bool;  (** granted by [try_acquire] (never blocks) *)
      waited : bool;  (** the fiber suspended before the grant *)
    }
  | Latch_try_fail of { kind : latch_kind; name : string; mode : latch_mode }
  | Latch_release of { kind : latch_kind; name : string }
  | Lock_request of { txn : int; name : string; mode : string; duration : string; cond : bool }
  | Lock_grant of { txn : int; name : string; mode : string; duration : string; waited : bool }
  | Lock_deny of { txn : int; name : string; mode : string }
  | Lock_wait of { txn : int; name : string; mode : string }
      (** emitted at the instant an unconditional request is about to
          suspend — the event rule R1 fires on *)
  | Lock_release of { txn : int; name : string }
  | Lock_release_all of { txn : int }
  | Deadlock_victim of { txn : int }
  | Log_open of { log : int; flushed : int }
  | Log_append of { log : int; lsn : int; next : int; kind : string; txn : int }
  | Log_force of { log : int; upto : int; stable_lsn : int }
  | Log_seal of { log : int; base : int; len : int }
  | Log_safety of { log : int; safety : int }
  | Log_truncate of { log : int; new_start : int; bytes : int; segments : int }
  | Log_tail_truncated of { log : int; at : int; bytes : int }
      (** restart's CRC tail-scan cut a torn/garbage suffix: the log now
          ends at [at], [bytes] bytes were discarded *)
  | Log_archive of { log : int; base : int; len : int; records : int }
  | Ckpt_take of { log : int; begin_lsn : int; end_lsn : int; redo : int }
  | Page_fix of { pool : int; pid : int }
  | Page_unfix of { pid : int }
  | Page_write of { log : int; pid : int; page_lsn : int; lsn_end : int; rec_lsn : int }
  | Smo_begin of { tree : int; txn : int; exclusive : bool }
  | Smo_upgrade of { tree : int; txn : int }
  | Smo_end of { tree : int; txn : int }
  | Commit_enqueue of { txn : int; lsn : int }
  | Commit_ack of { log : int; txn : int; lsn : int; lsn_end : int }
  | Commit_fence of { txn : int; epoch : int; targets : (int * int) list }
      (** emitted at commit acknowledgement: the epoch fence the ack claims
          was honored — for every stream the txn touched, [(log id, end
          offset)] that must already be stable. Rule R8(a) checks each
          target against that log's flushed boundary. *)
  | Redo_apply of { log : int; pid : int; lsn : int; gsn : int }
      (** restart redo (classic scan, instant single-page, or media
          roll-forward) applied the record at [lsn]/[gsn] to page [pid] —
          rule R8(b) requires per-page gsn-monotone application *)
  | Daemon_spawn of { name : string }
  | Daemon_exit of { name : string }
  | Restart_phase of { phase : string }
  | Protocol_locks of { op : string; reqs : string }
  | Io_retry of { target : string; pid : int; attempt : int }
      (** a transient I/O error was retried ([target] is "page-read",
          "page-write" or "log-force"; [pid] is 0 for log forces) *)
  | Page_quarantined of { pid : int; cause : string }
      (** a stored page image failed its CRC / decode on read and was
          quarantined pending automatic media repair *)
  | Page_repaired of { pid : int; records : int }
      (** media repair rebuilt the page from the archive + log history,
          replaying [records] log records *)
  | Restart_dpt of { pool : int; pid : int; rec_lsn : int }
      (** instant restart: Analysis placed this page in the needs-redo set
          (the DPT) with the given recLSN — rule R7(a) forbids serving it
          to a fix before its on-demand redo completes *)
  | Restart_redo_page of { pool : int; pid : int; on_demand : bool }
      (** instant restart began single-page redo of an in-DPT page
          ([on_demand]: triggered by a user fix rather than the drain
          daemon) *)
  | Restart_page_done of { pool : int; pid : int; applied : int }
      (** single-page redo finished, [applied] records replayed; the page
          left the needs-redo set and fixes may be served again *)
  | Restart_loser of { txn : int }
      (** instant restart: Analysis identified this txn as a loser whose
          undo is deferred to the background / lock-conflict preemption *)
  | Restart_lock of { txn : int; name : string; mode : string }
      (** a loser lock was re-acquired on the loser's behalf during
          Analysis — rule R7(b) forbids granting this name to any other
          txn before the loser's undo completes *)
  | Restart_undo_txn of { txn : int; preempted : bool }
      (** instant restart began (or resumed) undoing this loser
          ([preempted]: driven by a conflicting new txn's lock request
          rather than the drain daemon) *)
  | Restart_loser_done of { txn : int }
      (** the loser's rollback completed; its reacquired locks are about
          to be released and its names become grantable again *)
  | Mvcc_pin of { txn : int; epoch : int; gsn : int }
      (** a snapshot reader pinned its CSN horizon (first Mvcc fetch) *)
  | Mvcc_read_begin of { txn : int }
      (** an Mvcc snapshot read entered its wait-free window — until the
          matching [Mvcc_read_end], rule R9 forbids this txn any lock
          request or lock wait *)
  | Mvcc_read of { txn : int; epoch : int; gsn : int; visible : bool }
      (** a key resolved against a committed chain version stamped
          (epoch, gsn) — rule R9 requires that CSN <= the reader's pin *)
  | Mvcc_read_end of { txn : int }
  | Mvcc_unpin of { txn : int }
  | Vgc_round of { reclaimed : int; epoch : int; gsn : int }
      (** a version-GC round reclaimed [reclaimed] versions below the
          oldest-active-snapshot horizon (epoch, gsn) *)
  | Twopc_prepared of { gid : int; shard : int; txn : int; targets : (int * int) list }
      (** a participant forced its Prepare record; [targets] are the (log
          id, end offset) pairs that must be stable — rule R10 records them
          under [gid] *)
  | Twopc_decide of { gid : int; commit : bool; log : int; lsn_end : int }
      (** the coordinator decided the global transaction; for a commit the
          decision record [log, lsn_end) must already be forced, as must
          every participant's Prepare targets (rule R10(a)) *)
  | Twopc_ack of { gid : int; committed : bool }
      (** the global outcome was acknowledged to the client — a committed
          ack without a durable decision is the distributed durability lie
          (rule R10(b)) *)
  | Twopc_resolve of { gid : int; shard : int; txn : int; committed : bool }
      (** restart resolved an in-doubt participant branch; a committed
          resolution requires a durable decision ([committed = false] is
          always legal: presumed abort) *)
  | Shard_event of { shard : int; what : string }
      (** shard lifecycle: "down" / "up" / "killed" / "revived" / "parked" *)
  | Note of string

type event = { ev_step : int; ev_fiber : int; ev_payload : payload }

type mode = Off | Record | Check

(* ------------------------------------------------------------------ *)
(* Global state. Like Stats and Crashpoint, the tracer is a process-global
   singleton: the system is cooperatively scheduled, one run at a time. *)

let the_mode =
  ref
    (match Sys.getenv_opt "ARIES_TRACE" with
    | Some "off" | Some "0" -> Off
    | Some "record" -> Record
    | Some _ | None -> Check)

let set_mode m = the_mode := m

let mode () = !the_mode

let enabled () = !the_mode <> Off

let checking () = !the_mode = Check

(* context providers, installed by Aries_sched at module init; -1 when no
   scheduler is running *)
let fiber_provider = ref (fun () -> -1)

let step_provider = ref (fun () -> -1)

let set_context ~fiber ~steps =
  fiber_provider := fiber;
  step_provider := steps

(* the online checker hook (Discipline installs itself here) *)
let checker : (event -> unit) ref = ref (fun _ -> ())

let register_checker f = checker := f

(* ------------------------------------------------------------------ *)
(* Ring buffer *)

let default_capacity = 4096

type ring = { mutable slots : event array; mutable next : int; mutable total : int }

let no_event = { ev_step = -1; ev_fiber = -1; ev_payload = Note "" }

let ring = { slots = Array.make default_capacity no_event; next = 0; total = 0 }

let set_capacity n =
  if n < 16 then invalid_arg "Trace.set_capacity: capacity must be >= 16";
  ring.slots <- Array.make n no_event;
  ring.next <- 0;
  ring.total <- 0

let capacity () = Array.length ring.slots

let reset () =
  Array.fill ring.slots 0 (Array.length ring.slots) no_event;
  ring.next <- 0;
  ring.total <- 0

let event_count () = ring.total

let push ev =
  ring.slots.(ring.next) <- ev;
  ring.next <- (ring.next + 1) mod Array.length ring.slots;
  ring.total <- ring.total + 1

(* oldest-first snapshot of the retained window *)
let events () =
  let cap = Array.length ring.slots in
  let n = min ring.total cap in
  let start = (ring.next - n + cap) mod cap in
  List.init n (fun i -> ring.slots.((start + i) mod cap))

let last_events n =
  let evs = events () in
  let len = List.length evs in
  if len <= n then evs else List.filteri (fun i _ -> i >= len - n) evs

(* ------------------------------------------------------------------ *)
(* Emission *)

let emit payload =
  if !the_mode <> Off then begin
    let ev =
      { ev_step = !step_provider (); ev_fiber = !fiber_provider (); ev_payload = payload }
    in
    push ev;
    Stats.incr c_trace_events;
    if !the_mode = Check then !checker ev
  end

let run_start run = emit (Run_begin { run })

(* ------------------------------------------------------------------ *)
(* Rendering *)

let latch_kind_to_string = function Page_latch -> "page" | Tree_latch -> "tree"

let latch_mode_to_string = function S -> "S" | X -> "X"

let payload_to_string = function
  | Run_begin { run } -> Printf.sprintf "run-begin #%d" run
  | Latch_acquire { kind; name; mode; cond; waited } ->
      Printf.sprintf "latch-acquire %s %s %s%s%s" (latch_kind_to_string kind) name
        (latch_mode_to_string mode)
        (if cond then " cond" else "")
        (if waited then " waited" else "")
  | Latch_try_fail { kind; name; mode } ->
      Printf.sprintf "latch-try-fail %s %s %s" (latch_kind_to_string kind) name
        (latch_mode_to_string mode)
  | Latch_release { kind; name } ->
      Printf.sprintf "latch-release %s %s" (latch_kind_to_string kind) name
  | Lock_request { txn; name; mode; duration; cond } ->
      Printf.sprintf "lock-request T%d %s %s %s%s" txn mode duration name
        (if cond then " cond" else "")
  | Lock_grant { txn; name; mode; duration; waited } ->
      Printf.sprintf "lock-grant T%d %s %s %s%s" txn mode duration name
        (if waited then " waited" else "")
  | Lock_deny { txn; name; mode } -> Printf.sprintf "lock-deny T%d %s %s" txn mode name
  | Lock_wait { txn; name; mode } -> Printf.sprintf "lock-wait T%d %s %s" txn mode name
  | Lock_release { txn; name } -> Printf.sprintf "lock-release T%d %s" txn name
  | Lock_release_all { txn } -> Printf.sprintf "lock-release-all T%d" txn
  | Deadlock_victim { txn } -> Printf.sprintf "deadlock-victim T%d" txn
  | Log_open { log; flushed } -> Printf.sprintf "log-open L%d flushed=%d" log flushed
  | Log_append { log; lsn; next; kind; txn } ->
      Printf.sprintf "log-append L%d lsn=%d next=%d %s T%d" log lsn next kind txn
  | Log_force { log; upto; stable_lsn } ->
      Printf.sprintf "log-force L%d upto=%d stable=%d" log upto stable_lsn
  | Log_seal { log; base; len } -> Printf.sprintf "log-seal L%d base=%d len=%d" log base len
  | Log_safety { log; safety } -> Printf.sprintf "log-safety L%d safety=%d" log safety
  | Log_truncate { log; new_start; bytes; segments } ->
      Printf.sprintf "log-truncate L%d start=%d bytes=%d segments=%d" log new_start bytes
        segments
  | Log_tail_truncated { log; at; bytes } ->
      Printf.sprintf "log-tail-truncated L%d at=%d bytes=%d" log at bytes
  | Log_archive { log; base; len; records } ->
      Printf.sprintf "log-archive L%d base=%d len=%d records=%d" log base len records
  | Ckpt_take { log; begin_lsn; end_lsn; redo } ->
      Printf.sprintf "ckpt-take L%d begin=%d end=%d redo=%d" log begin_lsn end_lsn redo
  | Page_fix { pool; pid } -> Printf.sprintf "page-fix B%d/%d" pool pid
  | Page_unfix { pid } -> Printf.sprintf "page-unfix %d" pid
  | Page_write { log; pid; page_lsn; lsn_end; rec_lsn } ->
      Printf.sprintf "page-write L%d pid=%d pageLSN=%d end=%d recLSN=%d" log pid page_lsn
        lsn_end rec_lsn
  | Smo_begin { tree; txn; exclusive } ->
      Printf.sprintf "smo-begin tree=%d T%d %s" tree txn (if exclusive then "X" else "IX")
  | Smo_upgrade { tree; txn } -> Printf.sprintf "smo-upgrade tree=%d T%d" tree txn
  | Smo_end { tree; txn } -> Printf.sprintf "smo-end tree=%d T%d" tree txn
  | Commit_enqueue { txn; lsn } -> Printf.sprintf "commit-enqueue T%d lsn=%d" txn lsn
  | Commit_ack { log; txn; lsn; lsn_end } ->
      Printf.sprintf "commit-ack L%d T%d lsn=%d end=%d" log txn lsn lsn_end
  | Commit_fence { txn; epoch; targets } ->
      Printf.sprintf "commit-fence T%d epoch=%d [%s]" txn epoch
        (String.concat "; " (List.map (fun (l, e) -> Printf.sprintf "L%d<=%d" l e) targets))
  | Redo_apply { log; pid; lsn; gsn } ->
      Printf.sprintf "redo-apply L%d pid=%d lsn=%d gsn=%d" log pid lsn gsn
  | Daemon_spawn { name } -> Printf.sprintf "daemon-spawn %s" name
  | Daemon_exit { name } -> Printf.sprintf "daemon-exit %s" name
  | Restart_phase { phase } -> Printf.sprintf "restart-phase %s" phase
  | Protocol_locks { op; reqs } -> Printf.sprintf "protocol-locks %s [%s]" op reqs
  | Io_retry { target; pid; attempt } ->
      Printf.sprintf "io-retry %s pid=%d attempt=%d" target pid attempt
  | Page_quarantined { pid; cause } -> Printf.sprintf "page-quarantined %d (%s)" pid cause
  | Page_repaired { pid; records } -> Printf.sprintf "page-repaired %d records=%d" pid records
  | Restart_dpt { pool; pid; rec_lsn } ->
      Printf.sprintf "restart-dpt B%d/%d recLSN=%d" pool pid rec_lsn
  | Restart_redo_page { pool; pid; on_demand } ->
      Printf.sprintf "restart-redo-page B%d/%d%s" pool pid (if on_demand then " on-demand" else "")
  | Restart_page_done { pool; pid; applied } ->
      Printf.sprintf "restart-page-done B%d/%d applied=%d" pool pid applied
  | Restart_loser { txn } -> Printf.sprintf "restart-loser T%d" txn
  | Restart_lock { txn; name; mode } -> Printf.sprintf "restart-lock T%d %s %s" txn mode name
  | Restart_undo_txn { txn; preempted } ->
      Printf.sprintf "restart-undo-txn T%d%s" txn (if preempted then " preempted" else "")
  | Restart_loser_done { txn } -> Printf.sprintf "restart-loser-done T%d" txn
  | Mvcc_pin { txn; epoch; gsn } -> Printf.sprintf "mvcc-pin T%d csn=%d.%d" txn epoch gsn
  | Mvcc_read_begin { txn } -> Printf.sprintf "mvcc-read-begin T%d" txn
  | Mvcc_read { txn; epoch; gsn; visible } ->
      Printf.sprintf "mvcc-read T%d csn=%d.%d %s" txn epoch gsn
        (if visible then "visible" else "invisible")
  | Mvcc_read_end { txn } -> Printf.sprintf "mvcc-read-end T%d" txn
  | Mvcc_unpin { txn } -> Printf.sprintf "mvcc-unpin T%d" txn
  | Vgc_round { reclaimed; epoch; gsn } ->
      Printf.sprintf "vgc-round reclaimed=%d horizon=%d.%d" reclaimed epoch gsn
  | Twopc_prepared { gid; shard; txn; targets } ->
      Printf.sprintf "2pc-prepared G%d shard=%d T%d targets=[%s]" gid shard txn
        (String.concat ";"
           (List.map (fun (l, e) -> Printf.sprintf "%d:%d" l e) targets))
  | Twopc_decide { gid; commit; log; lsn_end } ->
      Printf.sprintf "2pc-decide G%d %s log=%d end=%d" gid
        (if commit then "commit" else "abort")
        log lsn_end
  | Twopc_ack { gid; committed } ->
      Printf.sprintf "2pc-ack G%d %s" gid (if committed then "committed" else "aborted")
  | Twopc_resolve { gid; shard; txn; committed } ->
      Printf.sprintf "2pc-resolve G%d shard=%d T%d %s" gid shard txn
        (if committed then "committed" else "aborted")
  | Shard_event { shard; what } -> Printf.sprintf "shard %d %s" shard what
  | Note s -> Printf.sprintf "note %s" s

let event_to_string ev =
  Printf.sprintf "step=%-6d fiber=%-3d %s" ev.ev_step ev.ev_fiber (payload_to_string ev.ev_payload)

let dump_last n =
  Stats.incr c_trace_dumps;
  List.map event_to_string (last_events n)
