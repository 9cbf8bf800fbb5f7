(** A sharded database: K independent {!Aries_db.Db} environments under
    one cooperative scheduler, a key router, and presumed-abort two-phase
    commit driven entirely through the shards' own write-ahead logs.

    {2 Commit protocol}

    A global transaction accumulates one local branch per shard its keys
    route to. [commit] on a single-branch transaction is a plain local
    commit (no 2PC records at all). A multi-branch commit runs
    presumed-abort 2PC: every branch is {e prepared} (Prepare record
    carrying fence targets, commit-duration locks, and the [Twopc] meta
    naming gid + coordinator, forced through the epoch fence); the
    coordinator — the shard of the first-touched branch — appends
    Coord_commit to its control stream and {e forces it before the global
    acknowledgement} (rule R10); phase 2 then delivers the outcome to each
    branch with bounded retry + backoff. Abort writes nothing mandatory:
    the absence of a durable Coord_commit {e is} the abort decision.

    {2 Crash behaviour}

    Prepared branches survive any crash as {e in-doubt}: restart (classic
    or instant) restores them with their commit-duration locks reacquired
    and held until {!resolve_indoubts} re-reads (or re-decides by
    presumption) the coordinator's outcome. A downed shard never blocks a
    healthy one — operations routed to it fail fast with {!Shard_down},
    phase-2 deliveries park after 3 attempts 8 scheduler steps apart and
    are drained on {!revive}, and in-doubt branches whose coordinator is
    down stay parked with locks held (the only sound choice).

    {2 Deadlocks}

    Cross-shard deadlocks are invisible to every per-shard lock manager.
    Every 16 scheduler steps the service daemon started by {!run} unions
    the per-shard waits-for slices ({!Aries_lock.Lockmgr.waiting}) into a
    global graph over gids and aborts the youngest (largest-gid) waiter
    in each cycle ({!Aries_lock.Lockmgr.abort_waiter}); the victim's
    operation raises [Txnmgr.Aborted], and a [Trace.Global_victim] event
    and the [deadlock.global_victims] counter record it. There is no
    lock-wait timeout: a wait the graph cannot see (one on a shard that
    is down) is broken by {!kill}, which aborts every waiter there. *)

open Aries_util
module Db = Aries_db.Db
module Btree = Aries_btree.Btree
module Txnmgr = Aries_txn.Txnmgr
module Restart = Aries_recovery.Restart

exception Shard_down of int
(** The operation routed to a shard that is down ({!kill}ed, or its
    [Crashpoint.Shard_down k] fault switch is active). Fail-fast by design. *)

exception Global_abort of int * string
(** [commit] aborted the global transaction by presumption (a branch
    failed, a shard was down, a deadlock victim...). Every reachable
    branch has been rolled back when this is raised. *)

type router =
  | Hash  (** [hash value mod K], the only router *)
(** Kept, with [create]'s [?router], only because the end-to-end
    benchmark ([perfbench/shardwl.ml]) passes [~router:Hash]; both can go
    when the benchmark next changes. *)

type t

type gtxn

val create :
  ?shards:int ->
  ?router:router ->
  ?page_size:int ->
  ?pool_capacity:int ->
  ?commit_mode:Db.commit_mode ->
  ?segment_size:int ->
  ?streams:int ->
  unit ->
  t
(** [shards] (default 2) environments, each built like {!Db.create} with
    the shared knobs and {!Db}'s default B-tree configuration. {!kill}
    requires daemon-less shards (default [Per_commit], no
    cleaner/checkpointer). *)

val setup : t -> unit
(** Create each shard's tree (one committed local transaction per shard).
    Run inside a scheduler fiber, once, before any workload. *)

val n : t -> int

val db : t -> int -> Db.t
(** Shard [k]'s current environment handle (changes across kill/crash). *)

val btree : t -> int -> Btree.t
(** Shard [k]'s tree (for invariant checks and state dumps). Raises if
    the shard's tree is not open ({!setup} not run, or shard down). *)

val is_up : t -> int -> bool

val shard_of : t -> string -> int
(** Where the router sends this key. *)

val run :
  ?policy:Aries_sched.Sched.policy ->
  ?max_steps:int ->
  ?yield_probability:float ->
  t ->
  (unit -> unit) ->
  Aries_sched.Sched.result
(** Run a workload under the cooperative scheduler: starts every up
    shard's daemons plus the global service daemon, then the workload. *)

(** {1 Global transactions} *)

val begin_gtxn : t -> gtxn

val gid : gtxn -> int

val participants : gtxn -> int list
(** Shards holding a branch, first-touch order; the head is the
    coordinator of a multi-branch commit. *)

val branches : gtxn -> (int * Ids.txn_id) list
(** The branches as [(shard, local txn id)] pairs, first-touch order —
    what an external oracle needs to decide committed-ness after a
    crash: a single-branch transaction by its local Commit record, a
    multi-branch one by the coordinator's decision ({!Twopc.decisions}). *)

val local : t -> gtxn -> int -> Txnmgr.txn
(** The transaction's branch on shard [k], begun on first use. Raises
    {!Shard_down} if the shard is down. *)

val insert : t -> gtxn -> value:string -> rid:Ids.rid -> unit

val delete : t -> gtxn -> value:string -> rid:Ids.rid -> unit

val fetch :
  t ->
  gtxn ->
  ?comparison:[ `Eq | `Ge | `Gt ] ->
  ?isolation:[ `Rr | `Cs ] ->
  string ->
  Aries_page.Key.t option

val commit : t -> gtxn -> unit
(** Commit everywhere or abort everywhere. Raises {!Global_abort} after
    rolling back every reachable branch if any prepare or the decision
    fails (down shard, deadlock victim...). A phase-2 delivery that
    exhausts its retries parks — the commit still returns: the decision
    is durable and the parked branch resolves on {!revive}. *)

val abort : t -> gtxn -> unit
(** Roll back every reachable branch. No decision record is required
    (presumed abort); a never-forced Coord_abort hint is logged when the
    coordinator is up. *)

(** {1 Crash / restart / fail-stop} *)

val crash : t -> unit
(** Whole-cluster power failure: every shard's volatile state is
    discarded over its surviving stable state ({!Db.crash}); the global
    transaction registry and parked deliveries are volatile and lost. *)

val restart : ?instant:bool -> t -> Restart.report array * int
(** Restart every shard (classic or instant) and then resolve in-doubts
    cluster-wide. Returns the per-shard reports and the number of
    in-doubt branches resolved. *)

val kill : t -> int -> unit
(** Targeted fail-stop of one shard: mark it down, break its lock waiters
    so in-flight fibers unwind, then discard its volatile state in place.
    Healthy shards keep running throughout. *)

val revive : ?instant:bool -> t -> int -> Restart.report option
(** Restart a {!kill}ed shard, reopen its tree, mark it up, resolve
    in-doubts cluster-wide (both this shard's branches and other shards'
    branches that were waiting on this coordinator), and drain parked
    deliveries. [None] if the shard was not down. *)

val resolve_indoubts : t -> int
(** Resolve every in-doubt branch whose coordinator is up: commit it if a
    durable Coord_commit survives (re-announcing the decision for rule
    R10), abort it by presumption otherwise. Branches whose coordinator
    is down stay parked with locks held. Also drains parked phase-2
    deliveries. Returns the number of branches resolved. *)

(** {1 Maintenance} *)

val leak_report : t -> string list
(** Aggregate quiescence audit: every up shard's {!Db.leak_report} line
    (prefixed with its shard id), plus a line per in-doubt branch still
    holding locks although its coordinator is up and its outcome is
    decidable — a missed resolution. Down shards are skipped (their
    volatile state is legitimately gone). *)

val close : t -> unit
