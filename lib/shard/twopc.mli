(** Presumed-abort 2PC wire formats and the coordinator decision scan.

    The protocol keeps no state outside the existing write-ahead logs:

    - a participant's vote is its {e Prepare} record, whose body carries
      this module's [meta] blob (global transaction id + coordinator
      shard) alongside the fence targets and lock list;
    - the coordinator's commit decision is a {e Coord_commit} record on
      its control stream, forced before the global commit is acknowledged;
    - abort needs {e no} record at all — under presumed abort the absence
      of a surviving Coord_commit {e is} the abort decision. A
      Coord_abort record is an optional, never-forced hint that lets live
      resolution skip the retry wait;
    - {e Coord_end} closes the gid's in-doubt window once every
      participant acknowledged the decision (bookkeeping, never forced).

    All codecs raise [Aries_util.Bytebuf.Corrupt] on truncated or
    oversized input. *)

module Lsn = Aries_wal.Lsn

val encode_prepare_meta : gid:int -> coord:int -> bytes
(** The [?meta] blob for {!Aries_txn.Txnmgr.prepare}: the participant
    branch belongs to global transaction [gid] coordinated by shard
    [coord]. *)

val decode_prepare_meta : bytes -> int * int
(** [(gid, coord)]. *)

val encode_decision : gid:int -> parts:int list -> bytes
(** Body of a Coord_commit / Coord_abort record: the decided global
    transaction and its participant shards. *)

val decode_decision : bytes -> int * int list

val encode_end : gid:int -> bytes
(** Body of a Coord_end record. *)

val decode_end : bytes -> int

type decision = {
  dc_commit : bool;  (** a Coord_commit survives ([false]: only a hint Coord_abort) *)
  dc_lsn : Lsn.t;  (** the decision record's LSN on the coordinator's control stream *)
  dc_end : int;  (** its framed end offset — what must lie below the flushed boundary *)
}

val record_end : Aries_wal.Logrec.t -> int
(** Exact framed end offset of a record ([lsn] + frame + {!Aries_wal.Logrec.encoded_size}),
    computable even for records living in archived segments. *)

val decisions : Aries_db.Db.t -> (int, decision) Hashtbl.t
(** Scan the coordinator's full log history (live + archived) for
    surviving decision records, gid-keyed. A gid absent from the table has
    {e no} durable decision: presumed abort. Restart resolution and the
    in-doubt leak audit both read this. *)
