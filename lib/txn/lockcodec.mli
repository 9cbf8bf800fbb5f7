(** Binary codec for lock names and modes, used by Prepare record bodies
    (restart lock reacquisition for in-doubt transactions).

    A varint count, then per lock one byte with the name's tag and the
    mode, and the name's fields as varints. Raises [Invalid_argument] on a
    negative field when encoding; decoding raises
    [Aries_util.Bytebuf.Corrupt] on a list that is cut short, runs too
    long, or has a bad tag, mode or varint. *)

module Lockmgr = Aries_lock.Lockmgr

val encode_list : (Lockmgr.name * Lockmgr.mode) list -> bytes

val decode_list : bytes -> (Lockmgr.name * Lockmgr.mode) list
