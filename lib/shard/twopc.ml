(* Presumed-abort 2PC record-body codecs and the coordinator decision scan.

   Three bodies ride the WAL: the Prepare [meta] blob (gid + coordinator
   shard, appended to the participant's Prepare body by
   [Txnmgr.encode_prepare_body]), the coordinator decision body
   (Coord_commit / Coord_abort: gid + participant shard list), and the
   Coord_end body (gid only). Every integer is a varint and a list is a
   varint count and its elements; each body is sized and written by one
   emitter, and [expect_end] rejects trailing input as [Corrupt] — the
   property tests drive both directions. *)

open Aries_util
module Logrec = Aries_wal.Logrec
module Lsn = Aries_wal.Lsn

module Emit (S : Bytebuf.SINK) = struct
  let prepare_meta s (gid, coord) =
    S.uvar s gid;
    S.uvar s coord

  let decision s (gid, parts) =
    S.uvar s gid;
    S.uvar_list s S.uvar parts
end

module Count_body = Emit (Bytebuf.Count)
module Write_body = Emit (Bytebuf.W)

let meta_enc = Bytebuf.enc Count_body.prepare_meta Write_body.prepare_meta

let decision_enc = Bytebuf.enc Count_body.decision Write_body.decision

let end_enc = Bytebuf.enc Bytebuf.Count.uvar Bytebuf.W.uvar

let decode b f =
  let r = Bytebuf.R.of_bytes b in
  let v = f r in
  Bytebuf.R.expect_end r;
  v

let encode_prepare_meta ~gid ~coord = Bytebuf.encode meta_enc (gid, coord)

let decode_prepare_meta b =
  decode b (fun r ->
      let gid = Bytebuf.R.uvar r in
      let coord = Bytebuf.R.uvar r in
      (gid, coord))

let encode_decision ~gid ~parts = Bytebuf.encode decision_enc (gid, parts)

let decode_decision b =
  decode b (fun r ->
      let gid = Bytebuf.R.uvar r in
      let parts = Bytebuf.R.uvar_list r Bytebuf.R.uvar in
      (gid, parts))

let encode_end ~gid = Bytebuf.encode end_enc gid

let decode_end b = decode b Bytebuf.R.uvar

type decision = { dc_commit : bool; dc_lsn : Lsn.t; dc_end : int }

(* Exact stable-storage footprint of a record: framed payload size. Used
   instead of [Logmgr.record_end] because a decision may live in an
   archived (reclaimed) segment the live log can no longer address. *)
let record_end (r : Logrec.t) =
  r.Logrec.lsn + Logrec.frame_overhead + Logrec.encoded_size r

let decisions db =
  let tbl = Hashtbl.create 16 in
  Aries_db.Db.iter_log_history db ~from:Lsn.nil (fun r ->
      match r.Logrec.kind with
      | Logrec.Coord_commit ->
          let gid, _ = decode_decision r.Logrec.body in
          Hashtbl.replace tbl gid { dc_commit = true; dc_lsn = r.Logrec.lsn; dc_end = record_end r }
      | Logrec.Coord_abort ->
          let gid, _ = decode_decision r.Logrec.body in
          if not (Hashtbl.mem tbl gid) then
            Hashtbl.replace tbl gid
              { dc_commit = false; dc_lsn = r.Logrec.lsn; dc_end = record_end r }
      | _ -> ());
  tbl
