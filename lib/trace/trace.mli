(** Structured protocol event tracing.

    A low-overhead, process-global ring buffer of typed events covering
    every concurrency-bearing action in the system: latch acquire/release
    (with mode and conditionality), lock request/grant/deny/wait and
    deadlock victims, log append/force, page fix/unfix and page writes, SMO
    begin/end, commit enqueue/ack, daemon lifecycle, and restart phases.
    Each event is stamped with the emitting fiber id and the scheduler step
    counter ([Sched.steps_now]) — [-1] when no scheduler is running.

    It is the system's only protocol trace: the discipline checker, the
    paper-figure experiments (E1-E11) and the sim's reproducer dumps all
    read this ring, and no layer keeps a private event hook beside it.

    Payloads are typed. A lock event carries the engine's own
    {!Aries_util.Lockspec} name, mode and duration; a latch event the
    latch kind and mode that {!Aries_sched.Latch} itself uses (its types
    are equations of {!latch_kind} and {!latch_mode}); restart phases and
    shard lifecycle events are constructors. No emit site renders a
    string: the checker and the figure checks match on values, and text
    is made only when a dump is printed ({!payload_to_string}, the one
    renderer). The free-text fields left are literals that cost nothing
    to emit: latch and daemon names, the protocol operation, the
    [Log_append] record kind, the I/O retry target and a quarantine cause.

    Emit sites are behind {!enabled}; with the tracer {!Off} they compile to
    a single flag test, with {!Record} events land in the ring, and with
    {!Check} (the default — [dune runtest] runs the whole suite this way)
    every event is also fed to the online {!Discipline} checker, which
    raises on a violation of the ARIES/IM latch/lock discipline rules.

    Like {!Aries_util.Stats} and {!Aries_util.Crashpoint} the tracer is a
    global singleton: the system is cooperatively scheduled, one simulated
    machine at a time. Override the default mode with the [ARIES_TRACE]
    environment variable ([off] / [record] / [check]). *)

open Aries_util

type latch_kind = Page_latch | Tree_latch

type latch_mode = S | X

type restart_phase =
  | Analysis
  | Reacquire_locks  (** in-doubt and loser locks are taken again *)
  | Redo
  | Undo
  | Open  (** instant restart opened the Db; redo and undo run on demand *)
  | Checkpoint  (** the end-of-restart checkpoint *)
  | Done

type shard_event =
  | Killed  (** fail-stopped by [Sharddb.kill] *)
  | Revived  (** restarted by [Sharddb.revive] *)
  | Parked of { gid : int }
      (** a phase-2 delivery of [gid] ran out of retries against this
          down shard and waits for its revival *)
  | Indoubt_waiting of { gid : int; coord : int }
      (** this shard's in-doubt branch of [gid] stays unresolved, locks
          held, because coordinator shard [coord] is down *)

type payload =
  | Run_begin of { run : int }
      (** a new scheduler incarnation started: fiber ids restart, volatile
          latch/SMO state is gone *)
  | Latch_acquire of {
      kind : latch_kind;
      name : string;
      mode : latch_mode;
      cond : bool;
      waited : bool;
    }
  | Latch_try_fail of { kind : latch_kind; name : string; mode : latch_mode }
  | Latch_release of { kind : latch_kind; name : string }
  | Lock_request of {
      txn : int;
      name : Lockspec.name;
      mode : Lockspec.mode;
      duration : Lockspec.duration;
      cond : bool;
    }
      (** a lock request as the lock manager received it — the lock name,
          mode and duration are the {!Aries_util.Lockspec} values, never
          renderings *)
  | Lock_grant of {
      txn : int;
      name : Lockspec.name;
      mode : Lockspec.mode;
      duration : Lockspec.duration;
      waited : bool;
    }
  | Lock_deny of { txn : int; name : Lockspec.name; mode : Lockspec.mode }
  | Lock_wait of { txn : int; name : Lockspec.name; mode : Lockspec.mode }
      (** an unconditional request is about to suspend — the event rule R1
          fires on *)
  | Lock_release of { txn : int; name : Lockspec.name }
  | Lock_release_all of { txn : int }
  | Deadlock_victim of { txn : int }
  | Log_open of { log : int; flushed : int }
  | Log_append of { log : int; lsn : int; next : int; kind : string; txn : int }
      (** [kind] is the record kind's name, a literal from
          [Logrec.kind_to_string] ([Logrec] sits above this library) *)
  | Log_force of { log : int; upto : int; stable_lsn : int }
  | Log_seal of { log : int; base : int; len : int }
      (** a WAL segment reached its size budget and was sealed; subsequent
          appends open a fresh segment *)
  | Log_safety of { log : int; safety : int }
      (** the reclamation safety point was recomputed: min(last complete
          checkpoint's redo point, min recLSN in the DPT, oldest active
          txn's first LSN). Emitted by the safety computation itself —
          rule R6 trusts the last announcement, not the truncator. *)
  | Log_truncate of { log : int; new_start : int; bytes : int; segments : int }
      (** whole sealed segments below [new_start] were reclaimed *)
  | Log_tail_truncated of { log : int; at : int; bytes : int }
      (** restart's CRC tail-scan cut a torn/garbage log suffix: the log
          now ends at [at], [bytes] bytes were discarded (PR 5) *)
  | Log_archive of { log : int; base : int; len : int; records : int }
      (** a reclaimed segment was handed to the archive sink (media
          recovery keeps working) *)
  | Ckpt_take of { log : int; begin_lsn : int; end_lsn : int; redo : int }
      (** a fuzzy checkpoint completed: Begin/End pair stable, master set *)
  | Page_fix of { pool : int; pid : int }
  | Page_unfix of { pid : int }
  | Page_write of { log : int; pid : int; page_lsn : int; lsn_end : int; rec_lsn : int }
      (** [rec_lsn] is the page's dirty-table recLSN at write time
          ([0] = clean/untracked) — rule R6 checks it against the
          reclaimed prefix *)
  | Smo_begin of { tree : int; txn : int; exclusive : bool }
  | Smo_upgrade of { tree : int; txn : int }
  | Smo_end of { tree : int; txn : int }
  | Commit_enqueue of { txn : int; lsn : int }
  | Commit_ack of { log : int; txn : int; lsn : int; lsn_end : int }
  | Commit_fence of { txn : int; epoch : int; targets : (int * int) list }
      (** emitted at commit acknowledgement: the epoch fence the ack
          claims was honored — for every stream the txn touched, [(log id,
          end offset)] that must already be stable. Rule R8(a) checks each
          target against that log's flushed boundary. *)
  | Redo_apply of { log : int; pid : int; lsn : int; gsn : int }
      (** restart redo (classic scan, instant single-page, or media
          roll-forward) applied the record at [lsn]/[gsn] to page [pid] —
          rule R8(b) requires per-page gsn-monotone application *)
  | Daemon_spawn of { name : string }
  | Daemon_exit of { name : string }
  | Restart_phase of { phase : restart_phase }
  | Protocol_locks of { op : string; reqs : Lockspec.req list }
      (** the lock requests the locking protocol computed for an index
          operation ([op] is "fetch", "insert" or "delete"), so a dump
          shows the intended request set next to the lock manager's
          traffic *)
  | Io_retry of { target : string; pid : int; attempt : int }
      (** a transient I/O error is being retried with bounded backoff;
          [target] is ["page-read"], ["page-write"] or ["log-force"]
          ([pid] = 0 for log forces) *)
  | Page_quarantined of { pid : int; cause : string }
      (** a stored page image failed its CRC / structural decode on read
          and was quarantined pending automatic media repair *)
  | Page_repaired of { pid : int; records : int }
      (** media repair rebuilt the quarantined page from the archive + log
          history, replaying [records] log records *)
  | Restart_dpt of { pool : int; pid : int; rec_lsn : int }
      (** instant restart: Analysis placed this page in the needs-redo set
          with the given recLSN — rule R7(a) forbids serving it to a fix
          before its on-demand redo completes *)
  | Restart_redo_page of { pool : int; pid : int; on_demand : bool }
      (** instant restart began single-page redo of an in-DPT page
          ([on_demand]: triggered by a user fix, not the drain daemon) *)
  | Restart_page_done of { pool : int; pid : int; applied : int }
      (** single-page redo finished ([applied] records replayed); the page
          left the needs-redo set and fixes may be served again *)
  | Restart_loser of { txn : int }
      (** instant restart: Analysis identified this loser; its undo is
          deferred to the drain daemon / lock-conflict preemption *)
  | Restart_lock of { txn : int; name : Lockspec.name; mode : Lockspec.mode }
      (** a loser lock was re-acquired on the loser's behalf during
          Analysis — rule R7(b) forbids granting this name to another txn
          before the loser's undo completes *)
  | Restart_undo_txn of { txn : int; preempted : bool }
      (** instant restart began undoing this loser ([preempted]: driven by
          a conflicting new txn's lock request, not the drain daemon) *)
  | Restart_loser_done of { txn : int }
      (** the loser's rollback completed; its reacquired locks are about
          to be released and its names become grantable again *)
  | Mvcc_pin of { txn : int; epoch : int; gsn : int }
      (** a snapshot reader pinned its CSN horizon at its first Mvcc fetch
          — every chain version it may observe must be stamped at or below
          (epoch, gsn) *)
  | Mvcc_read_begin of { txn : int }
      (** an Mvcc snapshot read entered its wait-free window — until the
          matching [Mvcc_read_end], rule R9 forbids this txn any lock
          request or lock wait (snapshot readers never touch the lock
          manager) *)
  | Mvcc_read of { txn : int; epoch : int; gsn : int; visible : bool }
      (** a key resolved against a committed chain version stamped
          (epoch, gsn) — rule R9 requires that CSN be at or below the
          reader's pinned snapshot *)
  | Mvcc_read_end of { txn : int }
  | Mvcc_unpin of { txn : int }
      (** the reader's snapshot was released (commit/rollback) and no
          longer holds the GC horizon down *)
  | Vgc_round of { reclaimed : int; epoch : int; gsn : int }
      (** a version-GC daemon round reclaimed [reclaimed] chain versions
          strictly below the oldest-active-snapshot horizon (epoch, gsn) *)
  | Twopc_prepared of { gid : int; shard : int; txn : int; targets : (int * int) list }
      (** a 2PC participant forced its Prepare record for global txn [gid];
          [targets] are the (log id, end offset) pairs its vote claims are
          stable — rule R10(a) records them and checks every one against
          the flushed boundary when the coordinator later decides commit *)
  | Twopc_decide of { gid : int; commit : bool; log : int; lsn_end : int }
      (** the coordinator decided [gid]; for [commit = true] the decision
          record [log, lsn_end) and every recorded Prepare target must
          already be forced (rule R10(a)) — an abort decision carries no
          durability obligation (presumed abort) *)
  | Twopc_ack of { gid : int; committed : bool }
      (** the global outcome was acknowledged to the client — rule R10(b)
          forbids a committed ack before a durable commit decision *)
  | Twopc_resolve of { gid : int; shard : int; txn : int; committed : bool }
      (** restart resolved an in-doubt participant branch of [gid]; rule
          R10(b) requires a durable commit decision for [committed = true]
          ([false] is always legal: absence of a decision presumes abort) *)
  | Shard_event of { shard : int; what : shard_event }
  | Global_victim of { gid : int; shard : int; txn : int }
      (** the cross-shard deadlock detector aborted waiter [txn] on [shard]
          to break a waits-for cycle no single lock table can see; [gid] is
          the waiter's node in the global graph (negative for a local,
          non-2PC transaction) *)
  | Note of string
      (** free text, for tests and ad-hoc instrumentation; no engine site
          emits one *)

type event = { ev_step : int; ev_fiber : int; ev_payload : payload }

type mode = Off | Record | Check

val set_mode : mode -> unit

val mode : unit -> mode

val enabled : unit -> bool
(** [mode () <> Off] — the guard every emit site checks first, so a
    disabled tracer costs one flag test and no allocation. *)

val checking : unit -> bool

val emit : payload -> unit
(** Stamp the payload with the current fiber/step, append it to the ring,
    bump [Stats.trace_events], and (in {!Check} mode) run the registered
    checker — which may raise. No-op when {!Off}. *)

val run_start : int -> unit
(** Called by [Sched.run] with the new run id. Emits {!Run_begin}, telling
    the checker to discard volatile (per-fiber, per-run) state. *)

val set_context : fiber:(unit -> int) -> steps:(unit -> int) -> unit
(** Install the fiber-id / step-counter providers (done by [Aries_sched] at
    module initialization). *)

val register_checker : (event -> unit) -> unit
(** Install the online checker consulted in {!Check} mode. *)

val reset : unit -> unit
(** Clear the ring buffer (but not the mode, context, or checker). *)

val set_capacity : int -> unit
(** Resize the ring (clears it). The default keeps the last 4096 events. *)

val capacity : unit -> int

val event_count : unit -> int
(** Total events emitted since the last {!reset} (may exceed capacity). *)

val events : unit -> event list
(** Oldest-first snapshot of the retained window. *)

val last_events : int -> event list

val event_to_string : event -> string

val payload_to_string : payload -> string
(** The one renderer: every string a dump shows is made here. *)

val dump_last : int -> string list
(** The last [n] retained events, rendered — the SIM-REPRO artifact dumped
    alongside a failing seed. Bumps [Stats.trace_dumps]. *)
