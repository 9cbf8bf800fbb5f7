(** MVCC version store (protocol #5, ROADMAP item 1).

    Per-key version chains stamped with a {e commit sequence number} — the
    (epoch, gsn) pair the v3 log frames already carry — so snapshot readers
    resolve every key against committed history instead of taking key locks.
    Writers keep the full data-only ARIES/IM discipline among themselves;
    this store is volatile (rebuilt through recovery from the committed log
    history, see {!Btree.rebuild_versions}).

    Lifecycle of a version: appended {e pending} by the writer's
    insert/delete (before the page change is logged, so a chain always
    exists whenever the physical tree disagrees with committed state);
    stamped with the commit CSN by the transaction manager's txn-end hook;
    discarded if the writer rolls back (rollback undo and the abort hook
    are both tolerant of the other having won the race). The {e Vgcd}
    daemon reclaims versions below the oldest-active-snapshot horizon. *)

open Aries_util

type csn = { cs_epoch : int; cs_gsn : int }

type t

val create : unit -> t

val clear : t -> unit
(** Drop all volatile version state (crash simulation). Every dropped
    version is credited to [Stats.mvcc_versions_reclaimed] so the
    created/reclaimed census audited by [Db.leak_report] survives the
    crash. *)

(** {1 Snapshots} *)

val pin : t -> txn:Ids.txn_id -> csn:csn -> unit
(** Pin the transaction's snapshot; idempotent (the first pin wins). *)

val pinned : t -> txn:Ids.txn_id -> csn option

val live_snapshots : t -> int

val horizon : t -> current:csn -> csn
(** The oldest live snapshot CSN, or [current] if none is pinned. No live
    or future snapshot can ever need a version below it. *)

(** {1 Writers} *)

val record :
  t -> ix:Ids.index_id -> value:string -> rid:Ids.rid -> txn:Ids.txn_id -> present:bool -> unit
(** Append a pending version ([present = true] for insert, [false] for
    delete). Call {e before} logging/applying the page change. *)

val unrecord : t -> ix:Ids.index_id -> value:string -> rid:Ids.rid -> txn:Ids.txn_id -> unit
(** Rollback undo compensated one operation: drop the txn's newest pending
    version for the key. Tolerant no-op when already discarded. *)

val commit_txn : t -> txn:Ids.txn_id -> csn:csn -> unit
(** Stamp the txn's pending versions with its commit CSN and unpin its
    snapshot. *)

val abort_txn : t -> txn:Ids.txn_id -> unit
(** Discard the txn's remaining pending versions and unpin its snapshot. *)

(** {1 Snapshot reads} *)

type resolution =
  | No_chain  (** unversioned key: visibility = physical presence in the tree *)
  | Visible of csn option
      (** visible; the deciding version's CSN ([None]: the reader's own
          pending write, or the pre-history base state) *)
  | Invisible

val resolve :
  t -> ix:Ids.index_id -> value:string -> rid:Ids.rid -> txn:Ids.txn_id -> snap:csn -> resolution

val first_visible :
  t ->
  ix:Ids.index_id ->
  ?after:Ids.rid ->
  txn:Ids.txn_id ->
  snap:csn ->
  string ->
  (string * Ids.rid * csn option) option
(** The first chained key at or after [value] — strictly after
    [(value, after)] when [after] is given — visible at [snap], in
    (value, rid) order. Readers merge this with the first {e unversioned}
    in-range tree key to answer a range probe. *)

(** {1 Garbage collection} *)

val gc : t -> horizon:csn -> int
(** Reclaim versions no live or future snapshot can reach: in each chain,
    everything strictly older than the newest committed version at or below
    [horizon]; a chain reduced to that single version collapses entirely
    (it agrees with the physical tree). Returns versions reclaimed. *)

(** {1 Census} (leak audits) *)

val live_versions : t -> int

val pending_txns : t -> Ids.txn_id list

val created_total : t -> int
(** Versions ever appended to this store (mirrors
    [Stats.mvcc_versions_created], but scoped to the store's own lifetime
    so the census balance is exact regardless of sink swaps). *)

val reclaimed_total : t -> int
(** Versions ever removed from this store (GC, rollback discard, crash
    clear). [created_total - reclaimed_total] must equal {!live_versions}
    at all times — [Db.leak_report] audits exactly that. *)
