(** Fuzzy checkpoints over the multi-stream log.

    A checkpoint brackets a Begin_ckpt/End_ckpt pair on the control stream
    (stream 0); the End_ckpt body carries the transaction table (per-stream
    first/last/undo-next vectors — a transaction's first LSNs bound how far
    back undo, and hence log truncation, may need to reach on each stream),
    the dirty-page table (page id → recLSN, an LSN on the page's routed
    stream), and [ck_scan]: each stream's append horizon captured just
    before the Begin — where restart analysis starts its merged scan.
    Nothing is forced at snapshot time and no activity is quiesced — the
    analysis pass reconciles whatever happened concurrently, which is what
    makes the checkpoint "fuzzy". The master record points at the most
    recent {e complete} Begin_ckpt: {!take} forces {e every} stream before
    updating the master, so a crash can never leave the master naming a
    checkpoint whose End_ckpt — or whose recorded Committing transactions'
    fence targets — are not stable. *)

open Aries_util
module Lsn = Aries_wal.Lsn

type ck_txn = {
  ct_id : Ids.txn_id;
  ct_state : Aries_txn.Txnmgr.state;
  ct_firsts : Lsn.t array;
  ct_lasts : Lsn.t array;
  ct_undo_nxts : Lsn.t array;
  ct_locks : bytes;
      (** the txn's held lock names+modes, [Lockcodec.encode_list]-encoded
          — instant restart reacquires a loser's locks from here so new
          transactions conflict with its uncommitted state instead of
          reading it (locks taken after Begin_ckpt are re-derived from the
          analysis scan instead) *)
}

type body = {
  ck_scan : Lsn.t array;
      (** per stream, the append horizon captured immediately before the
          Begin_ckpt was appended — where analysis scans that stream from.
          [ck_scan.(0)] is the Begin_ckpt LSN by construction. *)
  ck_txns : ck_txn list;
  ck_dpt : (Ids.page_id * Lsn.t) list;  (** (page, recLSN on its stream) *)
  ck_chains : (Ids.page_id * Lsn.t list) list;
      (** per dirty page, every record LSN applied since it became dirty
          (oldest first — {!Aries_buffer.Bufpool.dirty_page_chains}):
          instant restart repeats a pending page's history by reading
          exactly these records instead of scanning the log per page *)
  ck_next_txn : Ids.txn_id;
      (** txn-id high-water mark at checkpoint time: ids of transactions
          that ended before the checkpoint are invisible to restart
          analysis yet must never be reissued *)
}

val take : Aries_txn.Txnmgr.t -> Aries_buffer.Bufpool.t -> Lsn.t
(** Write a checkpoint: capture [ck_scan], append the Begin/End pair on the
    control stream, force {e every} stream, {e then} update the master
    record (crash-ordering — a [Crashpoint] hook labeled ["ckpt.master"]
    sits between the forces and the master update so tests can crash
    exactly in the window). Returns the Begin_ckpt LSN. *)

val last_complete : Aries_wal.Logmgr.t -> (Lsn.t * Lsn.t * body) option
(** On the control stream: [(begin_lsn, end_lsn, body)] of the checkpoint
    the master record points at, or [None] if the master is nil or the pair
    is broken (the latter cannot happen with {!take}'s ordering, but
    recovery stays defensive). *)

val redo_points : Aries_wal.Logset.t -> body -> Lsn.t array
(** Per stream: where restart redo and the log-reclamation safety point
    for this checkpoint start — the minimum recLSN among checkpointed DPT
    pages routed to the stream, floored at the stream's [ck_scan] horizon.
    RecLSNs are per-stream byte offsets; cross-stream minima are
    meaningless. *)

val encode_body : body -> bytes

val decode_body : bytes -> body
