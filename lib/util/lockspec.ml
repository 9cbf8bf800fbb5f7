(** The lock vocabulary: what a lock request names, in which mode, for how
    long. Defined once, here, so the lock manager ([Lockmgr] re-exports
    these types with equations), the locking protocols and the trace all
    speak the same values; strings are made only when something is
    printed. *)

type mode = IS | IX | S | SIX | X

type duration =
  | Instant  (** granted then immediately released: a serialization touch-point *)
  | Manual  (** held until explicitly released (e.g. cursor stability) *)
  | Commit  (** held until end of transaction *)

type name =
  | Rid of Ids.rid  (** a record — the key lock under data-only locking *)
  | Key_value of Ids.index_id * string  (** index-specific / KVL / System R *)
  | Eof of Ids.index_id  (** the "next key" past the last leaf (§2.2) *)
  | Table of int
  | Page_lock of Ids.page_id
  | Tree_lock of Ids.index_id  (** tree lock for the §5 concurrent-SMO variant *)

(** One lock request a protocol computes for an index operation. *)
type req = { lk_name : name; lk_mode : mode; lk_duration : duration }

let mode_to_string = function IS -> "IS" | IX -> "IX" | S -> "S" | SIX -> "SIX" | X -> "X"

let duration_to_string = function Instant -> "instant" | Manual -> "manual" | Commit -> "commit"

let name_to_string = function
  | Rid r -> Printf.sprintf "rid:%s" (Ids.rid_to_string r)
  | Key_value (ix, v) -> Printf.sprintf "kv:%d:%S" ix v
  | Eof ix -> Printf.sprintf "eof:%d" ix
  | Table tbl -> Printf.sprintf "table:%d" tbl
  | Page_lock p -> Printf.sprintf "page:%d" p
  | Tree_lock ix -> Printf.sprintf "tree:%d" ix

let req_to_string r =
  Printf.sprintf "%s %s %s" (mode_to_string r.lk_mode) (duration_to_string r.lk_duration)
    (name_to_string r.lk_name)
