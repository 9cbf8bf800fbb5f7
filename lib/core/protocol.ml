open Aries_util
module Key = Aries_page.Key
module Lockmgr = Aries_lock.Lockmgr
module Trace = Aries_trace.Trace

type locking = Data_only | Index_specific | Kvl | System_r | Mvcc

let locking_to_string = function
  | Data_only -> "data-only"
  | Index_specific -> "index-specific"
  | Kvl -> "kvl"
  | System_r -> "system-r"
  | Mvcc -> "mvcc"

type target = At of Key.t | Eof

type lock_req = Lockspec.req = {
  lk_name : Lockmgr.name;
  lk_mode : Lockmgr.mode;
  lk_duration : Lockmgr.duration;
}

(* Canonical string for an individual key, used as an index-specific lock
   name (value alone would merge duplicates, which is exactly what
   ARIES/IM's key locking avoids). *)
let key_string (k : Key.t) = Printf.sprintf "%s\x00%s" k.Key.value (Ids.rid_to_string k.Key.rid)

let key_name locking ix (k : Key.t) =
  match locking with
  | Data_only | Mvcc -> Lockmgr.Rid k.Key.rid
  | Index_specific -> Lockmgr.Key_value (ix, key_string k)
  | Kvl | System_r -> Lockmgr.Key_value (ix, k.Key.value)

let target_name locking ix = function At k -> key_name locking ix k | Eof -> Lockmgr.Eof ix

let req locking ix target mode duration =
  { lk_name = target_name locking ix target; lk_mode = mode; lk_duration = duration }

(* Trace hook: record which lock requests the protocol computed for an
   operation, so a discipline-violation dump shows the intended request
   set next to the actual lock-manager traffic. *)
let traced op reqs =
  if Trace.enabled () then Trace.emit (Trace.Protocol_locks { op; reqs });
  reqs

let fetch_locks locking ix ~current =
  traced "fetch"
    (match locking with
    | Mvcc ->
        (* snapshot reads: the version chain replaces the current/next-key
           lock entirely — a reader never touches the lock manager (R9) *)
        []
    | Data_only | Index_specific | Kvl -> [ req locking ix current Lockmgr.S Lockmgr.Commit ]
    | System_r ->
        (* baseline: S commit on the current/next value; callers add the next
           value too via a second fetch step — modeled here as a single
           current lock; the extra next-key lock is in insert/delete *)
        [ req locking ix current Lockmgr.S Lockmgr.Commit ])

let insert_locks locking ix ~unique ~key ~next ~value_exists =
  traced "insert"
    (match locking with
    | Data_only | Mvcc ->
        (* Figure 2: next key X instant; no current-key lock — the record
           manager's commit-duration X lock on the record covers the key *)
        [ req locking ix next Lockmgr.X Lockmgr.Instant ]
    | Index_specific ->
        (* Figure 2: next key X instant; current key X commit *)
        [
          req locking ix next Lockmgr.X Lockmgr.Instant;
          req locking ix (At key) Lockmgr.X Lockmgr.Commit;
        ]
    | Kvl ->
        if unique then
          [
            req locking ix next Lockmgr.X Lockmgr.Instant;
            req locking ix (At key) Lockmgr.X Lockmgr.Commit;
          ]
        else if value_exists then
          (* inserting another duplicate of an existing value: KVL only IX
             locks the value itself *)
          [ req locking ix (At key) Lockmgr.IX Lockmgr.Commit ]
        else
          [
            req locking ix next Lockmgr.IX Lockmgr.Instant;
            req locking ix (At key) Lockmgr.IX Lockmgr.Commit;
          ]
    | System_r ->
        [
          req locking ix next Lockmgr.X Lockmgr.Commit;
          req locking ix (At key) Lockmgr.X Lockmgr.Commit;
        ])

let delete_locks locking ix ~unique ~key ~next ~value_remains =
  traced "delete"
    (match locking with
    | Data_only | Mvcc ->
        (* Figure 2: next key X commit; no current-key lock under data-only *)
        [ req locking ix next Lockmgr.X Lockmgr.Commit ]
    | Index_specific ->
        (* Figure 2: next key X commit; current key X instant *)
        [
          req locking ix next Lockmgr.X Lockmgr.Commit;
          req locking ix (At key) Lockmgr.X Lockmgr.Instant;
        ]
    | Kvl ->
        if unique then
          [
            req locking ix next Lockmgr.X Lockmgr.Commit;
            req locking ix (At key) Lockmgr.X Lockmgr.Commit;
          ]
        else if value_remains then
          [ req locking ix (At key) Lockmgr.IX Lockmgr.Commit ]
        else
          [
            req locking ix next Lockmgr.X Lockmgr.Commit;
            req locking ix (At key) Lockmgr.X Lockmgr.Commit;
          ]
    | System_r ->
        [
          req locking ix next Lockmgr.X Lockmgr.Commit;
          req locking ix (At key) Lockmgr.X Lockmgr.Commit;
        ])

let fetch_locks_record_too = function
  | Data_only | Mvcc -> false
  | Index_specific | Kvl | System_r -> true
