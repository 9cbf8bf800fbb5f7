open Aries_util

let rm_id = 2

type body =
  | Rec_insert of { rid : Ids.rid; data : bytes }
  | Rec_delete of { rid : Ids.rid; data : bytes }
  | Rec_update of { rid : Ids.rid; pre : int; suf : int; old_mid : bytes; new_mid : bytes }
  | Format_data of { owner : int }

let op_of_body = function
  | Rec_insert _ -> 1
  | Rec_delete _ -> 2
  | Rec_update _ -> 3
  | Format_data _ -> 4

let op_name = function
  | 1 -> "rec_insert"
  | 2 -> "rec_delete"
  | 3 -> "rec_update"
  | 4 -> "format_data"
  | n -> Printf.sprintf "rec-op-%d" n

(* The bytes an update changes: the longest shared prefix, then the
   longest shared suffix of what is left, so [pre + suf] never exceeds
   the shorter image. *)
let update rid ~old_data ~new_data =
  let lo = Bytes.length old_data and ln = Bytes.length new_data in
  let m = min lo ln in
  let pre = ref 0 in
  while !pre < m && Bytes.get old_data !pre = Bytes.get new_data !pre do
    incr pre
  done;
  let suf = ref 0 in
  while
    !pre + !suf < m && Bytes.get old_data (lo - 1 - !suf) = Bytes.get new_data (ln - 1 - !suf)
  do
    incr suf
  done;
  let pre = !pre and suf = !suf in
  Rec_update
    {
      rid;
      pre;
      suf;
      old_mid = Bytes.sub old_data pre (lo - pre - suf);
      new_mid = Bytes.sub new_data pre (ln - pre - suf);
    }

let patch rid cur ~pre ~suf ~mid =
  let n = Bytes.length cur in
  if pre < 0 || suf < 0 || pre + suf > n then
    invalid_arg
      (Printf.sprintf "Reclog.patch: %s holds %d bytes, fewer than the %d + %d kept"
         (Ids.rid_to_string rid) n pre suf);
  let m = Bytes.length mid in
  let out = Bytes.create (pre + m + suf) in
  Bytes.blit cur 0 out 0 pre;
  Bytes.blit mid 0 out pre m;
  Bytes.blit cur (n - suf) out (pre + m) suf;
  out

(* Body layout: every integer a varint — the rid as its page and slot,
   then per op: the row (a varint length and its bytes) of an insert or
   delete; an update's [pre], [suf], old mid and new mid; a format's
   owner. As in [Ixlog], one emitter gives both the size and the bytes. *)
module Emit (S : Bytebuf.SINK) = struct
  let rid s (r : Ids.rid) =
    S.uvar s r.Ids.rid_page;
    S.uvar s r.Ids.rid_slot

  let data s b = S.uvar_string s (Bytes.unsafe_to_string b)

  let body s = function
    | Rec_insert { rid = r; data = d } | Rec_delete { rid = r; data = d } ->
        rid s r;
        data s d
    | Rec_update { rid = r; pre; suf; old_mid; new_mid } ->
        rid s r;
        S.uvar s pre;
        S.uvar s suf;
        data s old_mid;
        data s new_mid
    | Format_data { owner } -> S.uvar s owner
end

module Count_body = Emit (Bytebuf.Count)
module Write_body = Emit (Bytebuf.W)

let enc = Bytebuf.enc Count_body.body Write_body.body

let encode body = Bytebuf.encode enc body

let read_rid r =
  let rid_page = Bytebuf.R.uvar r in
  let rid_slot = Bytebuf.R.uvar r in
  { Ids.rid_page; rid_slot }

let decode ~op bytes =
  let r = Bytebuf.R.of_bytes bytes in
  let body =
    match op with
    | 1 ->
        let rid = read_rid r in
        let data = Bytebuf.R.uvar_bytes r in
        Rec_insert { rid; data }
    | 2 ->
        let rid = read_rid r in
        let data = Bytebuf.R.uvar_bytes r in
        Rec_delete { rid; data }
    | 3 ->
        let rid = read_rid r in
        let pre = Bytebuf.R.uvar r in
        let suf = Bytebuf.R.uvar r in
        let old_mid = Bytebuf.R.uvar_bytes r in
        let new_mid = Bytebuf.R.uvar_bytes r in
        Rec_update { rid; pre; suf; old_mid; new_mid }
    | 4 -> Format_data { owner = Bytebuf.R.uvar r }
    | n -> raise (Bytebuf.Corrupt (Printf.sprintf "bad record op %d" n))
  in
  Bytebuf.R.expect_end r;
  body
