(** The record manager: slotted data pages organized into per-table heaps.

    Records live outside the index tree (§1.1); a key in a leaf page refers
    to its record by RID. Under data-only locking the commit-duration X
    lock taken here on the RID at insert/delete {e is} the index key lock.

    Slots are never reused while any transaction still holds the RID lock
    (an uncommitted delete must be able to reclaim its slot during
    rollback), and record redo/undo are always page-oriented. *)

open Aries_util
module Txnmgr = Aries_txn.Txnmgr

type heap

val rm_install : Txnmgr.t -> Aries_buffer.Bufpool.t -> unit
(** Register the record resource manager. Call once per environment. *)

val create_heap : Txnmgr.t -> Aries_buffer.Bufpool.t -> Txnmgr.txn -> owner:int -> heap
(** A new heap (one logged, empty data page) created within the given
    transaction. *)

val known_pids : Aries_buffer.Bufpool.t -> Ids.page_id list
(** Every page that may exist, sorted: stored images, resident frames and
    the dirty-page table (which includes pages an instant restart has yet
    to redo). The candidates a post-restart rediscovery scan must fix. *)

val open_heaps : Txnmgr.t -> Aries_buffer.Bufpool.t -> (int * heap) list
(** Rediscover every heap by owner id (post-restart), scanning
    {!known_pids}. *)

val insert : heap -> Txnmgr.txn -> bytes -> Ids.rid
(** X-lock (commit) a fresh RID, then insert and log. *)

val delete : heap -> Txnmgr.txn -> Ids.rid -> bytes
(** Requires the caller to hold the RID X lock. Returns the old image. *)

val update : heap -> Txnmgr.txn -> Ids.rid -> bytes -> bytes
(** Replace the record in place; returns the old image. The caller holds
    the RID X lock. Fails if the new image does not fit the page (records
    do not move). *)

val read : heap -> Ids.rid -> bytes option
(** Latch-only read ([None] for a tombstone); locking is the caller's
    business (under data-only locking the index manager already locked the
    record). *)

val page_ids : heap -> Ids.page_id list

val record_count : heap -> int
