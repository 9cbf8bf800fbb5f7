(** Index keys.

    A key in a leaf page is a (key-value, record-ID) pair (§1.1); the RID
    makes every key unique even in a nonunique index, which is what lets
    ARIES/IM lock {e keys} (RIDs, under data-only locking) rather than key
    values. Nonleaf high keys reuse the same representation. *)

open Aries_util

type t = {
  value : string;
  rid : Ids.rid;
}

val make : string -> Ids.rid -> t

val compare : t -> t -> int
(** Lexicographic on value, then RID — a total order. *)

val equal : t -> t -> bool

val encode : Bytebuf.W.t -> t -> unit

val decode : Bytebuf.R.t -> t

val skip : Bytebuf.R.t -> unit
(** Step over one encoded key, making every bounds check {!decode} makes
    (raises [Bytebuf.Corrupt] where {!decode} would) without building it. *)

val min_encoded_bytes : int
(** The smallest encoding: an empty value plus the length and RID fields. *)

val decode_at : Bytebuf.R.t -> int -> t
(** [decode_at r off] decodes the key at absolute offset [off] of [r]'s
    source (a position {!skip} was called from), leaving [r] just past
    it. *)

val on_page_cost : t -> int
(** Bytes this key consumes in a page, including slot overhead. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
