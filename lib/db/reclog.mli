(** Record-manager log bodies (rm_id {!rm_id}).

    Records never move between pages (RIDs are stable), so record-manager
    redo {e and} undo are always page-oriented — the contrast ARIES/IM
    draws with index keys, which do move (§3). *)

open Aries_util

val rm_id : int

type body =
  | Rec_insert of { rid : Ids.rid; data : bytes }
  | Rec_delete of {
      rid : Ids.rid;
      data : bytes;
          (** the old image, for undo; empty in a CLR, whose redo only
              frees the slot *)
    }
  | Rec_update of {
      rid : Ids.rid;
      pre : int;  (** leading bytes the old and new images share *)
      suf : int;  (** trailing bytes they share after those *)
      old_mid : bytes;  (** the old image's bytes between; empty in a CLR *)
      new_mid : bytes;  (** the new image's bytes between *)
    }
      (** Only the changed bytes are logged: redo (and a CLR) keeps the
          slot's first [pre] and last [suf] bytes and puts [new_mid]
          between them; undo puts [old_mid] back the same way. *)
  | Format_data of { owner : int }

val update : Ids.rid -> old_data:bytes -> new_data:bytes -> body
(** The [Rec_update] from [old_data] to [new_data]: [pre] is their longest
    shared prefix, [suf] the longest shared suffix of the rest, so
    [pre + suf] is at most the shorter length. *)

val patch : Ids.rid -> bytes -> pre:int -> suf:int -> mid:bytes -> bytes
(** [patch rid cur ~pre ~suf ~mid]: [cur]'s first [pre] bytes, [mid], then
    [cur]'s last [suf] bytes. Raises [Invalid_argument] if [cur] is
    shorter than [pre + suf]. *)

val enc : body Bytebuf.enc
(** Exact size and writer, from one emitter: every integer a varint, the
    rid as page and slot, byte strings as a varint length and the bytes.
    A negative field raises [Invalid_argument] when sized. *)

val encode : body -> bytes

val decode : op:int -> bytes -> body
(** Raises [Bytebuf.Corrupt] on a body that is cut short, runs too long or
    holds a malformed varint. *)

val op_of_body : body -> int

val op_name : int -> string
