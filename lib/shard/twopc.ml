(* Presumed-abort 2PC record-body codecs and the coordinator decision scan.

   Three bodies ride the WAL: the Prepare [meta] blob (gid + coordinator
   shard, appended to the participant's Prepare body by
   [Txnmgr.encode_prepare_body]), the coordinator decision body
   (Coord_commit / Coord_abort: gid + participant shard list), and the
   Coord_end body (gid only). All fixed-width little-endian via [Bytebuf],
   with [expect_end] so truncated input is rejected as [Corrupt] — the
   property tests drive both directions. *)

open Aries_util
module Logrec = Aries_wal.Logrec
module Lsn = Aries_wal.Lsn

let encode_prepare_meta ~gid ~coord =
  let w = Bytebuf.W.create ~size:10 () in
  Bytebuf.W.i64 w gid;
  Bytebuf.W.u16 w coord;
  Bytebuf.W.contents w

let decode_prepare_meta b =
  let r = Bytebuf.R.of_bytes b in
  let gid = Bytebuf.R.i64 r in
  let coord = Bytebuf.R.u16 r in
  Bytebuf.R.expect_end r;
  (gid, coord)

let encode_decision ~gid ~parts =
  let w = Bytebuf.W.create ~size:(12 + (2 * List.length parts)) () in
  Bytebuf.W.i64 w gid;
  Bytebuf.W.list w Bytebuf.W.u16 parts;
  Bytebuf.W.contents w

let decode_decision b =
  let r = Bytebuf.R.of_bytes b in
  let gid = Bytebuf.R.i64 r in
  let parts = Bytebuf.R.list r Bytebuf.R.u16 in
  Bytebuf.R.expect_end r;
  (gid, parts)

let encode_end ~gid =
  let w = Bytebuf.W.create ~size:8 () in
  Bytebuf.W.i64 w gid;
  Bytebuf.W.contents w

let decode_end b =
  let r = Bytebuf.R.of_bytes b in
  let gid = Bytebuf.R.i64 r in
  Bytebuf.R.expect_end r;
  gid

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
