(** CRC32 (IEEE 802.3 reflected, poly [0xEDB88320]).  Guards page images,
    log-record frames and sealed-segment footers against torn writes and
    bit-rot.  Values are in [0, 0xFFFFFFFF].

    The engine is slice-by-16 (sixteen bytes per loop iteration through
    sixteen derived tables, all precomputed at module init); {!update_bytewise} is
    the classic one-table loop, kept as the differential-testing reference
    and benchmark baseline.  Both compute the identical IEEE value. *)

val string : string -> int
(** CRC of the whole string. *)

val bytes : ?off:int -> ?len:int -> bytes -> int
(** CRC of [len] bytes of [b] starting at [off] (defaults: all of [b]).
    A caller passing [~off] or [~len] boxes the option (2 words each), so
    the engine's slice checks call {!update} instead. *)

val update : int -> string -> int -> int -> int
(** [update crc s off len] extends a running CRC — [string s = update 0 s 0 n],
    and [update (update c a 0 la) b 0 lb = update c (a ^ b) 0 (la + lb)].
    This is the incremental path: CRC a dirty slice and fold it into the
    checksum of what came before. It is also the allocation-free slice
    path: every engine CRC over part of a buffer comes through here. *)

val update_bytewise : int -> string -> int -> int -> int
(** The pre-pass byte-at-a-time loop.  Same value as {!update};
    exists for differential tests and as the `bench -- q16` baseline. *)
