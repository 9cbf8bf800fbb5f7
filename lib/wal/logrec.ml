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

(* Record layout: one byte holding the kind (low four bits), the
   undoable (bit 4) and redoable (bit 5) flags and two presence bits,
   then unsigned LEB128 varints: prev_lsn and txn; page, rm_id and op
   only if bit 6 is set (a record with no page and no resource manager
   has them all 0); undo_nxt_lsn and undo_nxt_stream only if bit 7 is
   set (otherwise the undo-next LSN is nil and its stream the record's
   own; an unstamped -1 is the record's own stream too); stream, epoch
   and gsn. Then the body: the rest of the payload, whose length the
   frame already gives. A presence bit is set exactly when a field it
   covers differs from its default, so every record has one encoding. A
   negative field has no encoding: sizing the header raises
   [Invalid_argument] before the record is framed.

   The header is written with [stream], [epoch] and [gsn] passed apart
   from the record: the WAL stamps a record as it frames it, without
   copying it. *)
let undoable_bit = 0x10
let redoable_bit = 0x20
let rm_bit = 0x40
let undo_nxt_bit = 0x80

let undo_nxt_stream_in t ~stream = if t.undo_nxt_stream < 0 then stream else t.undo_nxt_stream

let has_rm t = t.page <> Ids.nil_page || t.rm_id <> 0 || t.op <> 0

let has_undo_nxt t ~stream =
  (not (Lsn.is_nil t.undo_nxt_lsn)) || undo_nxt_stream_in t ~stream <> stream

let header_size t ~stream ~epoch ~gsn =
  let u = Bytebuf.uvar_size in
  1 + u t.prev_lsn + u t.txn
  + (if has_rm t then u t.page + u t.rm_id + u t.op else 0)
  + (if has_undo_nxt t ~stream then u t.undo_nxt_lsn + u (undo_nxt_stream_in t ~stream) else 0)
  + u stream + u epoch + u gsn

let write_header w t ~stream ~epoch ~gsn =
  let rm = has_rm t and undo_nxt = has_undo_nxt t ~stream in
  Bytebuf.W.u8 w
    (kind_to_int t.kind
    lor (if t.undoable then undoable_bit else 0)
    lor (if t.redoable then redoable_bit else 0)
    lor (if rm then rm_bit else 0)
    lor if undo_nxt then undo_nxt_bit else 0);
  Bytebuf.W.uvar w t.prev_lsn;
  Bytebuf.W.uvar w t.txn;
  if rm then begin
    Bytebuf.W.uvar w t.page;
    Bytebuf.W.uvar w t.rm_id;
    Bytebuf.W.uvar w t.op
  end;
  if undo_nxt then begin
    Bytebuf.W.uvar w t.undo_nxt_lsn;
    Bytebuf.W.uvar w (undo_nxt_stream_in t ~stream)
  end;
  Bytebuf.W.uvar w stream;
  Bytebuf.W.uvar w epoch;
  Bytebuf.W.uvar w gsn

let encoded_size t =
  header_size t ~stream:t.stream ~epoch:t.epoch ~gsn:t.gsn + Bytes.length t.body

let encode =
  Bytebuf.encode
    {
      Bytebuf.size = encoded_size;
      write =
        (fun w t ->
          write_header w t ~stream:t.stream ~epoch:t.epoch ~gsn:t.gsn;
          Bytebuf.W.raw_string w (Bytes.unsafe_to_string t.body));
    }

let decode_from ~lsn r =
  let flags = Bytebuf.R.u8 r in
  let kind = kind_of_int (flags land 0xf) in
  let prev_lsn = Bytebuf.R.uvar r in
  let txn = Bytebuf.R.uvar r in
  let page, rm_id, op =
    if flags land rm_bit = 0 then (Ids.nil_page, 0, 0)
    else
      let page = Bytebuf.R.uvar r in
      let rm_id = Bytebuf.R.uvar r in
      let op = Bytebuf.R.uvar r in
      if page = Ids.nil_page && rm_id = 0 && op = 0 then
        raise (Bytebuf.Corrupt "log record flags a page or resource manager it has not");
      (page, rm_id, op)
  in
  let undo_nxt =
    if flags land undo_nxt_bit = 0 then None
    else
      let undo_nxt_lsn = Bytebuf.R.uvar r in
      let undo_nxt_stream = Bytebuf.R.uvar r in
      Some (undo_nxt_lsn, undo_nxt_stream)
  in
  let stream = Bytebuf.R.uvar r in
  let undo_nxt_lsn, undo_nxt_stream =
    match undo_nxt with
    | None -> (Lsn.nil, stream)
    | Some (l, s) ->
        if Lsn.is_nil l && s = stream then
          raise (Bytebuf.Corrupt "log record flags an undo-next it has not");
        (l, s)
  in
  let epoch = Bytebuf.R.uvar r in
  let gsn = Bytebuf.R.uvar r in
  let body = Bytebuf.R.rest_bytes r in
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
    undoable = flags land undoable_bit <> 0;
    redoable = flags land redoable_bit <> 0;
    stream;
    epoch;
    gsn;
    body;
  }

(* [epoch] and [gsn] end the header: skip what comes before them. *)
let decode_stamps ~lsn:_ r =
  let flags = Bytebuf.R.u8 r in
  let skip = 3 + (if flags land rm_bit <> 0 then 3 else 0) + if flags land undo_nxt_bit <> 0 then 2 else 0 in
  for _ = 1 to skip do
    ignore (Bytebuf.R.uvar r)
  done;
  let epoch = Bytebuf.R.uvar r in
  let gsn = Bytebuf.R.uvar r in
  (epoch, gsn)

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
