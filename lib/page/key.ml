open Aries_util

type t = {
  value : string;
  rid : Ids.rid;
}

let make value rid = { value; rid }

let compare a b =
  match String.compare a.value b.value with
  | 0 -> Ids.compare_rid a.rid b.rid
  | c -> c

let equal a b = compare a b = 0

let encode w k =
  Bytebuf.W.string w k.value;
  Bytebuf.W.i64 w k.rid.Ids.rid_page;
  Bytebuf.W.u32 w k.rid.Ids.rid_slot

let decode r =
  let value = Bytebuf.R.string r in
  let rid_page = Bytebuf.R.i64 r in
  let rid_slot = Bytebuf.R.u32 r in
  { value; rid = { Ids.rid_page; rid_slot } }

let skip r =
  Bytebuf.R.skip r (Bytebuf.R.u32 r);
  Bytebuf.R.skip r 12

let min_encoded_bytes = 16

let decode_at r off =
  Bytebuf.R.seek r off;
  decode r

(* value bytes + 6B rid + 2B length + 2B slot-directory entry *)
let on_page_cost k = String.length k.value + 10

let pp ppf k = Format.fprintf ppf "%S@%a" k.value Ids.pp_rid k.rid

let to_string k = Printf.sprintf "%S@%s" k.value (Ids.rid_to_string k.rid)
