(** Log records.

    A record carries generic ARIES header fields plus a resource-manager
    payload: [rm_id] names the resource manager (index manager, record
    manager, ...) whose registered callbacks know how to redo/undo the
    opcode [op] with body [body] against page [page_id]. The recovery
    engine itself never interprets bodies — the modularity real ARIES
    implementations use. *)

open Aries_util

type kind =
  | Update
      (** forward-processing change; [undoable]/[redoable] flags qualify it.
          SMO records written during {e undo} processing are also [Update]
          records (the paper's exception to CLR-only undo logging, §3). *)
  | Clr
      (** compensation record: redo-only; [undo_nxt_lsn] points at the
          predecessor of the record it compensates. A {e dummy} CLR (the end
          of a nested top action) has [rm_id = 0] and no page. *)
  | Commit
  | Prepare  (** transaction is in-doubt; recovery reacquires its locks *)
  | Rollback  (** transaction has begun total rollback *)
  | End_txn
  | Begin_ckpt
  | End_ckpt  (** body holds the serialized txn table and dirty-page table *)
  | Coord_commit
      (** 2PC coordinator decision (presumed abort): the body names the
          global transaction and its participant shards
          ({!Aries_shard.Twopc.encode_decision}). [txn = Ids.nil_txn] — the
          record belongs to the coordinator role, not a local transaction.
          A global commit is acknowledged only once this record is forced;
          recovery resolves a surviving in-doubt Prepare by re-reading it. *)
  | Coord_abort
      (** optional coordinator abort note (same body as {!Coord_commit}).
          Presumed abort means {e no} such record is ever required — absence
          of a Coord_commit {e is} the abort decision — but writing one lets
          live resolution skip the retry/backoff wait. Never forced. *)
  | Coord_end
      (** coordinator bookkeeping: every participant acknowledged the
          decision; the gid's in-doubt window is closed (body:
          {!Aries_shard.Twopc.encode_end}). Never forced. *)

type t = {
  lsn : Lsn.t;  (** assigned on append; equals the record's log offset *)
  prev_lsn : Lsn.t;
      (** previous record of the same transaction {e on the same stream}:
          chains are per-stream so each stream's post-crash survivors form
          a chain prefix with no holes *)
  txn : Ids.txn_id;
  kind : kind;
  page : Ids.page_id;  (** affected page, [Ids.nil_page] if none *)
  undo_nxt_lsn : Lsn.t;  (** CLRs only; [Lsn.nil] otherwise *)
  undo_nxt_stream : int;
      (** which stream [undo_nxt_lsn] addresses: a logical undo may write
          its CLR to a different page — hence a different stream — than the
          record it compensates, so a CLR's cursor jump is a (stream, lsn)
          pair. [-1] until stamped; {!Logset.append} (and the codec)
          resolve [-1] to the record's own stream. *)
  rm_id : int;  (** 0 = none/recovery-internal *)
  op : int;  (** resource-manager-specific opcode *)
  undoable : bool;
  redoable : bool;
  stream : int;  (** log stream index; stamped by {!Logset.append} *)
  epoch : int;  (** commit epoch current at append time *)
  gsn : int;
      (** global sequence number: process-wide append counter, the tiebreak
          within an epoch. Recovery merges streams by [(epoch, gsn)]; since
          appends never yield, that equals plain [gsn] order. *)
  body : bytes;
}

val make :
  ?page:Ids.page_id ->
  ?undo_nxt_lsn:Lsn.t ->
  ?undo_nxt_stream:int ->
  ?rm_id:int ->
  ?op:int ->
  ?undoable:bool ->
  ?redoable:bool ->
  ?stream:int ->
  ?epoch:int ->
  ?gsn:int ->
  ?body:bytes ->
  txn:Ids.txn_id ->
  prev_lsn:Lsn.t ->
  kind ->
  t
(** The [lsn] field is [Lsn.nil] until {!Logmgr.append} assigns it. Defaults:
    no page, no undo_nxt, rm 0, op 0, stream/epoch/gsn 0, empty body; [Update]
    records default to undoable+redoable, [Clr] to redoable-only, others to
    neither. Stream/epoch/gsn are stamped by {!Logset.append}; records
    appended through a bare {!Logmgr} keep the caller's values. *)

val encoded_size : t -> int
(** The exact length {!encode} produces. *)

val encode : t -> bytes
(** Without the frame (the log manager frames records). Layout: one byte
    with the kind in its low four bits, undoable in bit 4 and redoable in
    bit 5; then unsigned LEB128 varints ({!Aries_util.Bytebuf.W.uvar}) for
    [prev_lsn], [txn], [page], [undo_nxt_lsn], [undo_nxt_stream] (an
    unstamped [-1] written as [stream]), [rm_id], [op], [stream], [epoch]
    and [gsn]; then the body, which runs to the end of the payload.
    Raises [Invalid_argument] if a field is negative. *)

val header_size : t -> stream:int -> epoch:int -> gsn:int -> int
(** The header's length with these stamps in place of the record's own.
    Raises [Invalid_argument] if a field is negative. *)

val write_header : Bytebuf.W.t -> t -> stream:int -> epoch:int -> gsn:int -> unit
(** Write the header ({!header_size} bytes) with these stamps. The log
    manager writes it, then the body, straight into its segment arena. *)

val decode : lsn:Lsn.t -> string -> t

val decode_from : lsn:Lsn.t -> Bytebuf.R.t -> t
(** Decode from a reader confined to the record payload (the body is
    whatever follows the header in the slice) — the zero-copy
    read path over the segment arena. Raises [Bytebuf.Corrupt] on a bad
    kind or flag bit or a malformed varint. *)

val decode_stamps : lsn:Lsn.t -> Bytebuf.R.t -> int * int
(** [(epoch, gsn)] of the record whose payload the reader is at, read from
    the header alone: no body is copied and no record built. *)

val kind_to_string : kind -> string

val pp : Format.formatter -> t -> unit

(** {2 Framing (PR 5)}

    Frame format: [[u32 len][payload][u32 crc32(payload)]]. The CRC
    trailer lets restart's tail scan find the true end of log — the last
    record whose frame verifies — without trusting any recorded stable
    boundary. *)

val frame_overhead : int
(** Bytes of framing around a payload (length prefix + CRC trailer) = 8. *)

val frame : bytes -> bytes
(** Wrap an encoded record payload in its frame. *)
