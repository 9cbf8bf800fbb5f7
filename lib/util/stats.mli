(** Instrumentation counters.

    The paper's efficiency measures (§1) are counts — locks acquired, pages
    accessed during redo/undo/normal operation, log volume, synchronous
    I/Os — so every subsystem reports into a [Stats.t]. A single mutable
    "current" sink is active at any time (the system is single-threaded and
    cooperatively scheduled); benchmarks swap in a fresh sink around the
    region they measure.

    Counters are typed: a producer registers each name once, at module
    initialisation, with {!counter}, and bumps the returned {!counter} on
    its hot path — an increment of one slot of the sink's [int array], with
    no string hashed or built per bump. Readers still look counters up by
    name ({!get}, {!to_alist}); the well-known names below are those read
    keys. *)

type t

type counter
(** A registered counter: a dense index into every sink. *)

val counter : string -> counter
(** [counter name] registers [name] and returns its counter. Idempotent:
    registering a name again returns the same counter. Sinks created
    before a registration read the new counter as 0. *)

val create : unit -> t

val reset : t -> unit

val copy : t -> t

val diff : t -> t -> t
(** [diff later earlier] subtracts every counter. *)

val current : unit -> t

val with_sink : t -> (unit -> 'a) -> 'a
(** Runs the thunk with the given sink installed, restoring the previous sink
    afterwards (also on exception). *)

(** {2 Bumping and reading} *)

val incr : counter -> unit
(** Increment a counter in the current sink by 1. *)

val add : counter -> int -> unit

val get : t -> string -> int
(** 0 if never incremented or never registered. *)

val to_alist : t -> (string * int) list
(** Every counter bumped in this sink, sorted by name. *)

val pp : Format.formatter -> t -> unit

(** {2 Well-known counter names} (shared between producers and reports) *)

val lock_requests : string
val lock_waits : string
val lock_deadlocks : string
val latch_acquires : string
val latch_waits : string
val tree_latch_acquires : string
val tree_latch_waits : string
val log_records : string
val log_bytes : string
val log_forces : string
val page_reads : string
val page_writes : string
val page_fixes : string
val tree_traversals : string
val logical_undos : string
val page_oriented_undos : string
val redos_applied : string
val redo_pages_examined : string
val smo_splits : string
val smo_page_deletes : string
val fiber_yields : string
val fiber_spawns : string
val daemon_spawns : string

val commit_batches : string
(** Group-commit batches forced by the daemon. *)

val commit_batch_size : string
(** Cumulative committers covered across all batches; the mean batch size
    is [commit_batch_size / commit_batches]. *)

val commit_group_waits : string
(** Commits that enqueued on the group-commit queue and suspended. *)

val cleaner_pages_written : string
(** Dirty pages trickled to disk by the background page cleaner. *)

val cleaner_rounds : string

val log_seals : string
(** WAL segments sealed (reached the segment-size budget). *)

val log_truncations : string
(** [Logmgr.truncate_prefix] calls that reclaimed at least one segment. *)

val log_segments_reclaimed : string

val log_bytes_reclaimed : string

val ckpt_taken : string
(** Complete fuzzy checkpoints (Begin/End pair stable, master set). *)

val ckptd_rounds : string
(** Checkpoint-daemon wakeups that took a checkpoint. *)

val ckptd_nudges : string
(** Cleaner nudges issued by the checkpoint daemon because a stale dirty
    page pinned the oldest log segment. *)

val trace_events : string
(** Protocol trace events emitted into the tracer's ring buffer. *)

val trace_violations : string
(** Latch/lock discipline violations detected by the online checker. *)

val trace_dumps : string
(** Event-window dumps rendered for SIM-REPRO artifacts. *)

val disk_retries : string
(** Transient-EIO retries performed (page I/O and log forces). *)

val disk_repairs : string
(** Pages automatically rebuilt from archive + log history after a CRC
    failure ({!Aries_recovery.Media.auto_repair} completions). *)

val disk_eio_injected : string
(** Transient I/O errors injected by the fault layer. *)

val disk_torn_writes : string
(** Torn page images left on disk by a crash landing mid-write. *)

val disk_bit_flips : string
(** Silent single-bit corruptions injected into stored page images. *)

val disk_quarantines : string
(** Pages whose stored image failed its CRC / decode on read and were
    quarantined pending repair. *)

val bufpool_image_hits : string
(** No producer: the buffer pool's per-frame image cache it counted is
    gone, so it always reads 0. The name stays because the end-to-end
    benchmark still reads it. *)

val bufpool_image_misses : string
(** No producer, like {!bufpool_image_hits}. *)

val wal_encode_arena_reuses : string
(** Log-record appends whose encode arena was reused without regrowth —
    with a steady record-size profile this tracks [log.records] and the
    append path allocates no per-record buffers. *)

val log_tail_truncated_bytes : string
(** Bytes of torn/garbage log tail discarded by the restart tail-scan. *)

val log_tail_truncations : string
(** Tail-scan truncation events (a torn or corrupt suffix was cut). *)

val instant_ondemand_redos : string
(** Pages redone on demand by the instant-restart fix hook (a user fix
    touched an in-DPT page before the drain daemon reached it). *)

val instant_drain_rounds : string
(** Background drain-daemon rounds run by the instant-restart engine. *)

val instant_preemptions : string
(** Times a new transaction's lock request collided with a loser's
    reacquired lock and preempted that loser's undo to completion. *)

val instant_locks_reacquired : string
(** Loser locks re-acquired during instant-restart Analysis (from the
    checkpoint lock lists plus locks derived from scanned log records). *)

val instant_locks_skipped : string
(** Derived loser locks whose conditional reacquisition was denied (the
    name was already held, e.g. by an in-doubt prepared txn) and were
    skipped. *)

val mvcc_versions_created : string
(** Versions appended to MVCC chains (pending at append; stamped with the
    commit CSN when the writer commits, discarded if it rolls back). *)

val mvcc_versions_reclaimed : string
(** Versions removed from chains: reclaimed by the {e Vgcd} garbage
    collector below the oldest-active-snapshot horizon, discarded when
    their writer rolled back, or dropped wholesale when a crash clears the
    volatile store. [created - reclaimed] must equal the store's live
    census — [Db.leak_report] audits exactly that. *)

val mvcc_snapshot_reads : string
(** Keys resolved against a version chain by a snapshot reader. *)

val vgcd_rounds : string
(** Version-GC daemon rounds completed. *)

val txn_prepares : string
(** Prepare records logged and forced (2PC phase 1 votes). *)

val txn_indoubt_restored : string
(** In-doubt (prepared) transactions restored by restart analysis with
    their commit-duration locks reacquired. *)

val txn_indoubt_resolved : string
(** In-doubt transactions resolved after a restart: committed because the
    coordinator's decision record was re-read, or rolled back by
    presumption when no decision survived. *)

val shard_retries : string
(** 2PC decision-delivery attempts retried because the participant shard
    was down. *)

val shard_timeouts : string
(** Decision deliveries that exhausted their bounded retries and parked
    the participant as in-doubt (resolved later by {!txn_indoubt_resolved}
    machinery). *)

val deadlock_global_victims : string
(** Transactions aborted by the cross-shard deadlock detector (global
    waits-for union over the per-shard lock managers, plus its lock-wait
    timeout fallback). *)

val commit_batch_bucket : int -> string
(** Histogram counter name for batches of exactly [n] committers,
    e.g. ["commit.batch_hist.04"]. *)

val lock_label : mode:string -> duration:string -> string
(** Name of the per-(mode,duration) lock counter, e.g. ["lock.X.instant"]. *)
