(** Locking protocols: which lock names, modes and durations each index
    operation takes on the "current" and "next" keys.

    [Data_only] and [Index_specific] are the two ARIES/IM modes (§2.1,
    Figure 2). [Kvl] is the ARIES/KVL baseline [Moha90a] (locks on key
    {e values}, so all duplicates of a value share one lock). [System_r] is
    the System R-style baseline the paper compares against: commit-duration
    key-value locks on both current and next key for every operation — more
    locks, held longer. KVL and System R are documented approximations (see
    DESIGN.md §1); the IM modes follow Figure 2 exactly.

    [Mvcc] is the fifth protocol (ROADMAP item 1): writers keep the full
    data-only ARIES/IM discipline among themselves, but readers take {e no}
    key locks at all — each committed update appends to a per-key version
    chain stamped with a CSN derived from the commit epoch/gsn, and a reader
    resolves every key against its chain at the snapshot CSN pinned when the
    transaction first reads (see {!Mvstore}). *)

open Aries_util
module Key = Aries_page.Key
module Lockmgr = Aries_lock.Lockmgr

type locking = Data_only | Index_specific | Kvl | System_r | Mvcc

val locking_to_string : locking -> string

type target =
  | At of Key.t
  | Eof  (** past the last key: the per-index EOF lock name (§2.2) *)

type lock_req = Lockspec.req = {
  lk_name : Lockmgr.name;
  lk_mode : Lockmgr.mode;
  lk_duration : Lockmgr.duration;
}
(** The shared request type, so [Trace.Protocol_locks] carries the list
    this module computes as is. *)

val key_name : locking -> Ids.index_id -> Key.t -> Lockmgr.name
(** The lock name of a key: under data-only locking, the record's RID; under
    index-specific locking, the individual (value, RID) key; under KVL and
    System R, the key value. *)

val target_name : locking -> Ids.index_id -> target -> Lockmgr.name

val fetch_locks : locking -> Ids.index_id -> current:target -> lock_req list
(** [current] is the found key, or the next higher key / EOF when the
    requested value is absent (the not-found case locks the next key). *)

val insert_locks :
  locking ->
  Ids.index_id ->
  unique:bool ->
  key:Key.t ->
  next:target ->
  value_exists:bool ->
  lock_req list
(** Locks for inserting [key] whose successor in the index is [next].
    [value_exists] — another key with the same value is already present
    (only possible for nonunique indexes; KVL then locks just the value). *)

val delete_locks :
  locking ->
  Ids.index_id ->
  unique:bool ->
  key:Key.t ->
  next:target ->
  value_remains:bool ->
  lock_req list

val fetch_locks_record_too : locking -> bool
(** Whether the record manager must additionally lock the RID when fetching
    the record found via the index. Data-only locking already locked the
    record (the key lock {e is} the record lock); the index-specific family
    did not (§2.1). *)
