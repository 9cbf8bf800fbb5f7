(** The lock manager.

    Locks assure logical consistency (latches assure physical consistency).
    Supports the mode lattice IS/IX/S/SIX/X, the paper's durations
    (instant, commit, and manual for cursor-stability-style early release),
    conditional and unconditional requests, strict-FIFO queuing with
    conversion priority, and waits-for-graph deadlock detection with a
    youngest-victim policy.

    Lock names are the objects ARIES/IM locks: records (RIDs — data-only
    locking), key values (index-specific locking, ARIES/KVL, System R), the
    per-index EOF name used when the "next key" is past the last leaf, and
    coarse granules (table, page) for hierarchical locking. *)

open Aries_util

(** The lock vocabulary is {!Aries_util.Lockspec}'s, re-exported with
    type equations: the trace carries these same values. *)

type mode = Lockspec.mode = IS | IX | S | SIX | X

type duration = Lockspec.duration =
  | Instant  (** granted then immediately released: a serialization touch-point *)
  | Manual  (** held until explicitly released (e.g. cursor stability) *)
  | Commit  (** held until end of transaction *)

type name = Lockspec.name =
  | Rid of Ids.rid  (** a record — the key lock under data-only locking *)
  | Key_value of Ids.index_id * string  (** index-specific / KVL / System R *)
  | Eof of Ids.index_id  (** the "next key" past the last leaf (§2.2) *)
  | Table of int
  | Page_lock of Ids.page_id
  | Tree_lock of Ids.index_id  (** tree lock for the §5 concurrent-SMO variant *)

type outcome =
  | Granted
  | Denied  (** conditional request was not immediately grantable *)
  | Deadlock  (** requester chosen as deadlock victim; it holds nothing new *)

exception Deadlock_abort of Ids.txn_id
(** Raised at the suspension point of a {e waiting} transaction chosen as
    victim by another transaction's deadlock search. *)

type t

val create : unit -> t

val attach : t -> Ids.txn_id -> unit
(** Register a transaction (birth order decides deadlock victims: youngest
    dies). Implied by the first lock request if omitted. *)

val set_no_victim : t -> Ids.txn_id -> unit
(** Exempt from victim selection. The paper guarantees rolling-back
    transactions never deadlock because they make no lock requests; the
    transaction layer marks them anyway and this module {e asserts} they
    never appear in a waits-for cycle. *)

val lock : t -> txn:Ids.txn_id -> ?cond:bool -> name -> mode -> duration -> outcome
(** Request a lock. Unconditional requests suspend the calling fiber until
    granted or until chosen as a deadlock victim. Conditional requests
    ([cond:true]) never suspend — they return [Denied] if the lock is not
    immediately grantable (incompatible holders {e or} a nonempty queue).

    Re-requests by a holder convert the held mode to the supremum; instant
    re-requests test grantability of the supremum without retaining it. *)

val release : t -> txn:Ids.txn_id -> name -> unit
(** Early release of a [Manual]-duration lock. Raises if held with [Commit]
    duration (commit-duration locks outlive the operation by design). *)

val release_manual : t -> txn:Ids.txn_id -> name -> bool
(** Release the lock only if it is held with [Manual] duration; returns
    whether it was released. Cursor stability uses this to drop the current
    key's lock when the cursor moves on, without touching locks the
    transaction holds for commit duration. *)

val downgrade : t -> txn:Ids.txn_id -> name -> mode -> unit
(** Replace the held mode with a weaker one (e.g. SIX back to IX after a
    temporary conversion) and re-run the grant loop. Raises if not held. *)

val release_all : t -> txn:Ids.txn_id -> unit
(** End of transaction: drop every lock and forget the transaction. *)

val holds : t -> txn:Ids.txn_id -> name -> mode option

val holders : t -> name -> (Ids.txn_id * mode) list

val waiter_count : t -> name -> int

val held_count : t -> txn:Ids.txn_id -> int
(** Number of distinct lock names currently held (retained, i.e. not
    instant) by the transaction. *)

val total_held : t -> int
(** Holders plus waiters across the whole lock table. 0 means the table is
    quiescent — no transaction holds or awaits any lock. The simulation
    harness asserts this after every workload and after every restart. *)

val table_size : t -> int
(** Names in the lock table. A name leaves the table as soon as it has no
    holder and no waiter, so this is the live lock set, not every name
    ever locked. *)

val held_locks : t -> txn:Ids.txn_id -> (name * mode) list
(** The retained locks of a transaction (unspecified order); used to build
    Prepare record bodies so restart can reacquire in-doubt locks. *)

val waiting : t -> (Ids.txn_id * Ids.txn_id list) list
(** Every waiting transaction as [(txn, blockers)] — blockers are its
    waits-for edges within this table (conflicting holders plus waiters
    queued ahead). Local cycles are broken at request time; a cross-shard
    detector unions these per-shard slices into a global graph. *)

val abort_waiter : t -> txn:Ids.txn_id -> bool
(** Abort a {e waiting} transaction from outside (cross-shard deadlock
    victim, shard fail-stop): dequeue it and deliver
    {!Deadlock_abort} at its suspension point, exactly like a local
    deadlock victim. Returns [false] (and does nothing) if the transaction
    is not currently waiting — e.g. it raced with a grant. *)

val compatible : mode -> mode -> bool

val supremum : mode -> mode -> mode
