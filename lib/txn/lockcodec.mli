(** Binary codec for lock names and modes, used by Prepare record bodies
    (restart lock reacquisition for in-doubt transactions). *)

module Lockmgr = Aries_lock.Lockmgr

val encode_list : (Lockmgr.name * Lockmgr.mode) list -> bytes

val decode_list : bytes -> (Lockmgr.name * Lockmgr.mode) list
