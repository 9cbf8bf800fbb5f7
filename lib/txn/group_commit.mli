(** Group commit: batched, epoch-fenced log forces for concurrent
    committers.

    ARIES/IM's efficiency story is about minimizing synchronous work on the
    hot path, and the single remaining synchronous I/O of a no-force system
    is the commit-record log force. With per-commit forcing, N concurrent
    committers pay N forces; with group commit they pay ~1 {e per touched
    stream}: each committer appends its Commit record, enqueues its
    per-stream fence-target vector on the commit queue, and suspends; a
    scheduler-resident daemon folds the batch's vectors into per-stream
    maxima, forces each covered stream {e once} (policy: maximum batch
    size, maximum scheduler-step delay), advances the commit epoch, and
    wakes every covered waiter.

    Durability contract (rule R8): a committer is woken only {e after}
    every stream its vector names is forced through its entry, so
    [Txnmgr.commit] never acknowledges a commit whose updates on {e any}
    stream are still volatile. If a force raises (a simulated power
    failure), no waiter is woken and no transaction is acknowledged.
    WAL-rule forces (page steal/eviction) never go through this queue —
    they remain synchronous [Logmgr.flush_to] calls in the buffer manager.

    The daemon is spawned per scheduler run (see [Db.run]); [active] is
    false outside the run it was spawned in, and commits then fall back to
    synchronous per-stream forces. *)

module Lsn = Aries_wal.Lsn

type policy = {
  max_batch : int;  (** force as soon as this many committers are queued *)
  max_delay_steps : int;
      (** ... or when the oldest queued committer has waited this many
          scheduler steps, whichever comes first *)
}

val default_policy : policy
(** [{ max_batch = 8; max_delay_steps = 8 }]. *)

type t

val create : ?policy:policy -> Aries_wal.Logset.t -> t

val policy : t -> policy

val pending : t -> int
(** Committers currently enqueued and suspended. *)

val set_io_model : t -> (int -> int) option -> unit
(** Install a synthetic log-device model for benchmarking: [cost bytes] is
    the number of scheduler steps one stream's force of [bytes] unflushed
    bytes occupies the (per-stream) log device. The forces are issued
    back to back either way; with a model installed, the daemon then waits
    until the latest per-stream deadline from the batch's shared start, so
    a batch costs ~max (not sum) of the per-stream costs — the device
    parallelism N log streams exist to buy. [None] (the default) does not
    wait, byte-for-byte identical to a single-stream group commit when
    N = 1. *)

val active : t -> bool
(** True iff called inside the scheduler run the daemon was attached to:
    the queue is live and [wait_durable] will be served. *)

val attach : t -> unit
(** Bind the queue to the current scheduler run (call from the run's main
    fiber before spawning the daemon). Waiters cached from a previous —
    crashed or stalled — run are discarded: their continuations belong to a
    dead scheduler and must never be woken. *)

val wait_durable : t -> commit_stream:int -> targets:(int * Lsn.t) list -> unit
(** Enqueue and suspend until the daemon's next batch force covers every
    [(stream, lsn)] in [targets] ([commit_stream] is the stream holding the
    committer's Commit record — the one the fence-skip fault still honors).
    Returns immediately if every target is already stable. *)

val nudge : t -> unit
(** Wake the daemon out of its idle wait (work arrival is signalled
    automatically; this is for shutdown/close). *)

val run_daemon : t -> stop:(unit -> bool) -> unit
(** The daemon body (pass to [Sched.spawn_daemon]). Loops: sleep until work
    arrives, hold the batch open per [policy], force once per touched
    stream, wake the batch. The next batch's window opens when a force
    starts, so committers that queued during a modelled device wait are
    forced as soon as the device is free. Exits — after draining any pending batch
    without further delay — when [stop ()] or [Sched.shutting_down ()]. *)
