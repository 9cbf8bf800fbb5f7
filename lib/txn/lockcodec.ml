open Aries_util
module Lockmgr = Aries_lock.Lockmgr

(* Layout: a varint count, then per lock one byte holding the name's tag
   (bits 3-5) and the mode (bits 0-2), then the name's fields as varints
   (a key value as a varint length and its bytes). One emitter gives the
   list's size and its bytes. *)
let tag : Lockmgr.name -> int = function
  | Lockmgr.Rid _ -> 0
  | Lockmgr.Key_value _ -> 1
  | Lockmgr.Eof _ -> 2
  | Lockmgr.Table _ -> 3
  | Lockmgr.Page_lock _ -> 4
  | Lockmgr.Tree_lock _ -> 5

let mode_to_int : Lockmgr.mode -> int = function
  | Lockmgr.IS -> 0
  | Lockmgr.IX -> 1
  | Lockmgr.S -> 2
  | Lockmgr.SIX -> 3
  | Lockmgr.X -> 4

let mode_of_int : int -> Lockmgr.mode = function
  | 0 -> Lockmgr.IS
  | 1 -> Lockmgr.IX
  | 2 -> Lockmgr.S
  | 3 -> Lockmgr.SIX
  | 4 -> Lockmgr.X
  | n -> raise (Bytebuf.Corrupt (Printf.sprintf "bad lock mode %d" n))

module Emit (S : Bytebuf.SINK) = struct
  let lock s ((name : Lockmgr.name), mode) =
    S.u8 s ((tag name lsl 3) lor mode_to_int mode);
    match name with
    | Lockmgr.Rid r ->
        S.uvar s r.Ids.rid_page;
        S.uvar s r.Ids.rid_slot
    | Lockmgr.Key_value (ix, v) ->
        S.uvar s ix;
        S.uvar_string s v
    | Lockmgr.Eof n | Lockmgr.Table n | Lockmgr.Page_lock n | Lockmgr.Tree_lock n -> S.uvar s n

  let locks s l = S.uvar_list s lock l
end

module Count_list = Emit (Bytebuf.Count)
module Write_list = Emit (Bytebuf.W)

let enc = Bytebuf.enc Count_list.locks Write_list.locks

let encode_list locks = Bytebuf.encode enc locks

let decode_lock r =
  let b = Bytebuf.R.u8 r in
  let mode = mode_of_int (b land 7) in
  let name : Lockmgr.name =
    match b lsr 3 with
    | 0 ->
        let rid_page = Bytebuf.R.uvar r in
        let rid_slot = Bytebuf.R.uvar r in
        Lockmgr.Rid { Ids.rid_page; rid_slot }
    | 1 ->
        let ix = Bytebuf.R.uvar r in
        let v = Bytebuf.R.uvar_string r in
        Lockmgr.Key_value (ix, v)
    | 2 -> Lockmgr.Eof (Bytebuf.R.uvar r)
    | 3 -> Lockmgr.Table (Bytebuf.R.uvar r)
    | 4 -> Lockmgr.Page_lock (Bytebuf.R.uvar r)
    | 5 -> Lockmgr.Tree_lock (Bytebuf.R.uvar r)
    | n -> raise (Bytebuf.Corrupt (Printf.sprintf "bad lock name tag %d" n))
  in
  (name, mode)

let decode_list b =
  let r = Bytebuf.R.of_bytes b in
  let locks = Bytebuf.R.uvar_list r decode_lock in
  Bytebuf.R.expect_end r;
  locks
