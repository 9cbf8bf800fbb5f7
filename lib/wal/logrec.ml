open Aries_util

type kind =
  | Update
  | Clr
  | Commit
  | Prepare
  | Rollback
  | End_txn
  | Begin_ckpt
  | End_ckpt
  | Coord_commit
  | Coord_abort
  | Coord_end

type t = {
  lsn : Lsn.t;
  prev_lsn : Lsn.t;
      (* the txn's previous record *on the same stream*: per-stream chains
         keep undo walks sound when a crash persists one stream's tail and
         loses another's — each stream's survivors are a chain prefix *)
  txn : Ids.txn_id;
  kind : kind;
  page : Ids.page_id;
  undo_nxt_lsn : Lsn.t;
  undo_nxt_stream : int;
      (* which stream [undo_nxt_lsn] addresses. A logical undo may write
         its CLR to a different page — hence a different stream — than the
         record it compensates, so the cursor jump the CLR encodes is a
         (stream, lsn) pair, not a bare offset. [-1] until stamped: resolved
         to the record's own stream at append time. *)
  rm_id : int;
  op : int;
  undoable : bool;
  redoable : bool;
  stream : int;  (* which log stream the record was appended to *)
  epoch : int;  (* commit epoch current at append time *)
  gsn : int;
      (* global sequence number: a process-wide counter stamped on every
         record, the tiebreak inside an epoch — recovery merges streams by
         (epoch, gsn), and since appends never yield that order equals the
         gsn order *)
  body : bytes;
}

let default_flags = function
  | Update -> (true, true)
  | Clr -> (false, true)
  | Commit | Prepare | Rollback | End_txn | Begin_ckpt | End_ckpt | Coord_commit | Coord_abort
  | Coord_end ->
      (false, false)

let make ?(page = Ids.nil_page) ?(undo_nxt_lsn = Lsn.nil) ?(undo_nxt_stream = -1) ?(rm_id = 0)
    ?(op = 0) ?undoable ?redoable ?(stream = 0) ?(epoch = 0) ?(gsn = 0) ?(body = Bytes.empty)
    ~txn ~prev_lsn kind =
  let du, dr = default_flags kind in
  {
    lsn = Lsn.nil;
    prev_lsn;
    txn;
    kind;
    page;
    undo_nxt_lsn;
    undo_nxt_stream;
    rm_id;
    op;
    undoable = (match undoable with Some u -> u | None -> du);
    redoable = (match redoable with Some r -> r | None -> dr);
    stream;
    epoch;
    gsn;
    body;
  }

let kind_to_int = function
  | Update -> 0
  | Clr -> 1
  | Commit -> 2
  | Prepare -> 3
  | Rollback -> 4
  | End_txn -> 5
  | Begin_ckpt -> 6
  | End_ckpt -> 7
  | Coord_commit -> 8
  | Coord_abort -> 9
  | Coord_end -> 10

let kind_of_int = function
  | 0 -> Update
  | 1 -> Clr
  | 2 -> Commit
  | 3 -> Prepare
  | 4 -> Rollback
  | 5 -> End_txn
  | 6 -> Begin_ckpt
  | 7 -> End_ckpt
  | 8 -> Coord_commit
  | 9 -> Coord_abort
  | 10 -> Coord_end
  | n -> raise (Bytebuf.Corrupt (Printf.sprintf "bad log record kind %d" n))

let kind_to_string = function
  | Update -> "UPDATE"
  | Clr -> "CLR"
  | Commit -> "COMMIT"
  | Prepare -> "PREPARE"
  | Rollback -> "ROLLBACK"
  | End_txn -> "END"
  | Begin_ckpt -> "BEGIN_CKPT"
  | End_ckpt -> "END_CKPT"
  | Coord_commit -> "COORD_COMMIT"
  | Coord_abort -> "COORD_ABORT"
  | Coord_end -> "COORD_END"

(* Fixed header bytes ahead of the length-prefixed body: kind u8, four i64
   (prev/txn/page/undo_nxt), four u16, two bools, two i64 (epoch/gsn), u32
   body length. Size hint for encode arenas. *)
let header_bytes = (4 * 8) + (4 * 2) + 2 + (2 * 8) + 4 + 1

let encode_into w t =
  Bytebuf.W.reset w;
  Bytebuf.W.u8 w (kind_to_int t.kind);
  Bytebuf.W.i64 w t.prev_lsn;
  Bytebuf.W.i64 w t.txn;
  Bytebuf.W.i64 w t.page;
  Bytebuf.W.i64 w t.undo_nxt_lsn;
  Bytebuf.W.u16 w (if t.undo_nxt_stream < 0 then t.stream else t.undo_nxt_stream);
  Bytebuf.W.u16 w t.rm_id;
  Bytebuf.W.u16 w t.op;
  Bytebuf.W.bool w t.undoable;
  Bytebuf.W.bool w t.redoable;
  Bytebuf.W.u16 w t.stream;
  Bytebuf.W.i64 w t.epoch;
  Bytebuf.W.i64 w t.gsn;
  Bytebuf.W.bytes w t.body

let encode t =
  let w = Bytebuf.W.create ~size:(header_bytes + Bytes.length t.body) () in
  encode_into w t;
  Bytebuf.W.contents w

let decode_from ~lsn r =
  let kind = kind_of_int (Bytebuf.R.u8 r) in
  let prev_lsn = Bytebuf.R.i64 r in
  let txn = Bytebuf.R.i64 r in
  let page = Bytebuf.R.i64 r in
  let undo_nxt_lsn = Bytebuf.R.i64 r in
  let undo_nxt_stream = Bytebuf.R.u16 r in
  let rm_id = Bytebuf.R.u16 r in
  let op = Bytebuf.R.u16 r in
  let undoable = Bytebuf.R.bool r in
  let redoable = Bytebuf.R.bool r in
  let stream = Bytebuf.R.u16 r in
  let epoch = Bytebuf.R.i64 r in
  let gsn = Bytebuf.R.i64 r in
  let body = Bytebuf.R.bytes r in
  Bytebuf.R.expect_end r;
  {
    lsn;
    prev_lsn;
    txn;
    kind;
    page;
    undo_nxt_lsn;
    undo_nxt_stream;
    rm_id;
    op;
    undoable;
    redoable;
    stream;
    epoch;
    gsn;
    body;
  }

let decode ~lsn s = decode_from ~lsn (Bytebuf.R.of_string s)

(* Frame format (PR 5): [u32 len][payload][u32 crc32(payload)].  The CRC
   trailer lets restart's tail scan distinguish a complete record from a
   torn append or bit-rot without trusting any recorded stable boundary. *)
let frame_overhead = 8

let frame payload =
  let n = Bytes.length payload in
  let out = Bytes.create (n + frame_overhead) in
  Bytes.set_int32_le out 0 (Int32.of_int n);
  Bytes.blit payload 0 out 4 n;
  Bytes.set_int32_le out (n + 4) (Int32.of_int (Crc.update 0 (Bytes.unsafe_to_string out) 4 n));
  out

let pp ppf t =
  Format.fprintf ppf "@[<h>[%a] %s txn=%d prev=%a" Lsn.pp t.lsn (kind_to_string t.kind) t.txn
    Lsn.pp t.prev_lsn;
  if t.stream <> 0 || t.epoch <> 0 then
    Format.fprintf ppf " s%d e%d g%d" t.stream t.epoch t.gsn;
  if t.page <> Ids.nil_page then Format.fprintf ppf " page=%d" t.page;
  if not (Lsn.is_nil t.undo_nxt_lsn) then begin
    Format.fprintf ppf " undo_nxt=%a" Lsn.pp t.undo_nxt_lsn;
    if t.undo_nxt_stream >= 0 && t.undo_nxt_stream <> t.stream then
      Format.fprintf ppf "@@s%d" t.undo_nxt_stream
  end;
  if t.rm_id <> 0 then Format.fprintf ppf " rm=%d op=%d" t.rm_id t.op;
  if Bytes.length t.body > 0 then Format.fprintf ppf " body=%dB" (Bytes.length t.body);
  Format.fprintf ppf "]@]"
