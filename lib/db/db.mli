(** The database environment: disk + log + buffer pool + lock manager +
    transaction manager + index environment, wired together, with crash and
    restart entry points.

    A {e system crash} ([crash]) produces a fresh environment over the same
    stable state (disk images, stable log prefix, master record): every
    volatile structure — buffer pool, lock table, transaction table, open
    trees — is gone, exactly like a power failure. [restart] then runs
    ARIES recovery: Analysis, per-page redo and the loser undo sweep. *)

module Txnmgr = Aries_txn.Txnmgr

type commit_mode =
  | Per_commit
      (** every [Txnmgr.commit] performs its own synchronous log force —
          the classic one-force-per-commit WAL bottleneck *)
  | Group of Aries_txn.Group_commit.policy
      (** committers enqueue on the commit queue and suspend; a
          scheduler-resident daemon forces once per batch (at most
          [max_batch] committers or [max_delay_steps] scheduler steps,
          whichever first) and wakes every covered waiter *)

type t = {
  disk : Aries_page.Disk.t;
  logs : Aries_wal.Logset.t;
  wal : Aries_wal.Logmgr.t;  (** the control stream, [Logset.control logs] *)
  pool : Aries_buffer.Bufpool.t;
  locks : Aries_lock.Lockmgr.t;
  mgr : Txnmgr.t;
  benv : Aries_btree.Btree.env;
  commit_mode : commit_mode;
  cleaner : Aries_buffer.Cleaner.cfg option;
  checkpoint_cfg : Aries_recovery.Ckptd.cfg option;
  vgc_cfg : Aries_recovery.Vgcd.cfg option;
  archive : Aries_recovery.Media.Archive.t;
  gc : Aries_txn.Group_commit.t option;
  mutable closing : bool;
  mutable running_daemons : int;
  mutable restart_engine : Aries_recovery.Restart.engine option;
}

val create :
  ?page_size:int ->
  ?pool_capacity:int ->
  ?config:Aries_btree.Btree.config ->
  ?commit_mode:commit_mode ->
  ?cleaner:Aries_buffer.Cleaner.cfg ->
  ?checkpoint:Aries_recovery.Ckptd.cfg ->
  ?vgc:Aries_recovery.Vgcd.cfg ->
  ?segment_size:int ->
  ?streams:int ->
  unit ->
  t
(** [commit_mode] (default [Per_commit]) selects the commit-path force
    policy; [cleaner] (default off) enables the background page cleaner;
    [checkpoint] (default off) enables the fuzzy-checkpoint daemon
    ({!Aries_recovery.Ckptd}), which periodically checkpoints and reclaims
    sealed log segments below the safety point; [vgc] (default off) enables
    the MVCC version garbage collector ({!Aries_recovery.Vgcd}), which
    periodically reclaims chain versions below the oldest-active-snapshot
    horizon (only useful under {!Aries_btree.Protocol.Mvcc}). [segment_size] sets the WAL
    segment size (64 KiB by default) —
    reclamation is whole-segment, so small workloads want small segments.
    [streams] (default 1) is the number of parallel WAL streams
    ({!Aries_wal.Logset}): page records are routed by page-id hash, commits
    are acknowledged only after every touched stream is forced through the
    commit's epoch fence (rule R8).
    With any daemon configured, every {!run}/{!run_exn} spawns the daemons
    at the start of the run (spawn-at-open), drains them when the last user
    fiber finishes (drain-on-close), and loses them — along with any
    unacknowledged queued commits — on {!crash} (die-on-crash). *)

val crash : t -> t
(** Simulate a system failure: discard the unflushed log tail and every
    buffered page, and build fresh volatile managers over the surviving
    stable state. The old handle must not be used again. The pool size,
    commit mode, daemons and the index environment's btree config carry
    over. *)

val restart :
  ?instant:bool -> ?drain:Aries_recovery.Restart.drain_cfg -> t -> Aries_recovery.Restart.report
(** Run ARIES restart recovery (call on a freshly [crash]ed environment).
    Analysis merges every stream by [(epoch, gsn)]; redo and undo are
    per-stream / per-page exactly as in the single-log case.

    Both modes run the one restart engine ({!Aries_recovery.Restart.start});
    [~instant] decides whether loser undo may be deferred past the return.
    [~instant:false] (the default) drains it to completion before
    returning: every pending page is redone, every loser goes through one
    reverse-gsn undo sweep, and the post-recovery checkpoint is taken.

    [~instant:true] returns as soon as Analysis, lock reacquisition and the
    undo of any loser no reacquired lock fences are done: the Db is open —
    new transactions run immediately, any fix of a page in the needs-redo
    set triggers single-page redo on demand, and a lock request
    conflicting with a restored loser preempts exactly that loser's
    undo. A ["restartd"] daemon (configured by [drain],
    {!Aries_recovery.Restart.default_drain} by default) drains the
    remaining redo/undo work in the background and takes the
    post-recovery checkpoint; outside a scheduler run the drain happens
    synchronously instead. The returned report is a snapshot — query
    {!restart_engine} with {!Aries_recovery.Restart.report} to watch the
    counters grow. *)

val restart_engine : t -> Aries_recovery.Restart.engine option
(** The engine of the most recent [restart ~instant:true] on this handle
    (it stays queryable after the drain finishes). *)

val checkpoint : t -> unit

val safety_point : t -> Aries_wal.Lsn.t option
(** The log-space reclamation safety point (see {!Aries_recovery.Ckptd}):
    [min(redo point of the last complete checkpoint, min recLSN in the DPT,
    first LSN of the oldest active transaction)]. [None] when reclamation
    would be unsafe (no complete checkpoint yet, or a transaction of
    unknown extent in the table). *)

val vgc_once : t -> int
(** Run one MVCC version-collection round by hand: compute the
    oldest-active-snapshot horizon (the current log position when no
    snapshot is pinned) and reclaim below it ({!Aries_btree.Mvstore.gc}).
    Returns versions reclaimed and emits a [Vgc_round] trace event. The
    [vgc] daemon calls exactly this on its cadence. *)

val trim_log : t -> int
(** Reclaim whole sealed log segments below the {!safety_point}. Returns
    the number of bytes reclaimed (0 when blocked or when no sealed segment
    lies entirely below the safety point). Reclaimed segments are handed to
    the {!Aries_recovery.Media.Archive} so media recovery and log-history
    iteration keep working. Typically called right after {!checkpoint}. *)

val iter_log_history : t -> from:Aries_wal.Lsn.t -> (Aries_wal.Logrec.t -> unit) -> unit
(** Iterate the {e full} record history from [from] ([Lsn.nil] = all),
    stream by stream: each stream's archived (reclaimed) segments first,
    then its live log — the union is every record ever appended, regardless
    of truncation. Cross-stream order is {e not} (epoch, gsn)-merged; sort
    by [gsn] if global order matters. *)

val with_txn : t -> (Txnmgr.txn -> 'a) -> 'a
(** Begin, run, commit; total rollback (and re-raise) on exception. *)

val leak_report : t -> string list
(** Quiescence audit: human-readable descriptions of every leaked resource —
    fixed buffer frames, held page latches, lock-table holders/waiters,
    transactions still in the table, plus the MVCC version-store audits:
    pending versions owned by finished transactions, snapshot pins with no
    transaction behind them, and a created/reclaimed counter balance that
    must equal the store's live census. Empty when the environment is fully
    quiescent (what the simulation harness requires after every completed
    workload and after every restart). *)

val close : t -> unit
(** Graceful shutdown. Inside a scheduler run: nudges the group-commit
    daemon to force its pending batch immediately (no acknowledgement is
    ever issued unforced, and none is dropped), joins both daemons
    ({!daemons_running} returns to 0), then forces the log tail. Outside a
    run: marks the environment closed (subsequent runs spawn no daemons)
    and forces the log. *)

val daemons_running : t -> int
(** Daemons spawned for the current/most recent run and not yet exited. *)

val run :
  ?policy:Aries_sched.Sched.policy ->
  ?max_steps:int ->
  ?yield_probability:float ->
  t ->
  (unit -> unit) ->
  Aries_sched.Sched.result
(** Run a workload under the cooperative scheduler. Spawns the configured
    daemons (group-commit force daemon, page cleaner, checkpointer) into
    the run first; they drain and exit when the workload's fibers finish. *)

val run_exn : ?policy:Aries_sched.Sched.policy -> t -> (unit -> 'a) -> 'a
(** Like {!run} for a single computation; re-raises fiber failures and
    fails on stalls. *)

val start_daemons : t -> unit
(** Spawn this environment's configured daemons into the {e current}
    scheduler run (what {!run}/{!run_exn} do before the workload). For a
    multi-environment run — e.g. a [Sharddb] hosting several [Db]s under
    one scheduler — call this once per environment from the run's main
    fiber instead of nesting {!run}. Idempotence is the caller's problem:
    call it once per environment per run. *)

val save : t -> string -> unit
(** Persist the {e stable} state (disk images, stable log prefix + master
    record, log archive) to a file — exactly what a powered-off machine
    retains. The volatile tail and buffer pool are not saved; run
    {!restart} after {!load}. Format magic: ["ARIESIM4"] (v4: multi-stream WAL image with stream/epoch/gsn record stamps). *)

val load :
  ?pool_capacity:int ->
  ?config:Aries_btree.Btree.config ->
  ?commit_mode:commit_mode ->
  ?cleaner:Aries_buffer.Cleaner.cfg ->
  ?checkpoint:Aries_recovery.Ckptd.cfg ->
  ?vgc:Aries_recovery.Vgcd.cfg ->
  string ->
  t
(** Rebuild an environment from a {!save}d file. The caller must run
    {!restart} (inside the scheduler) before using it. *)
