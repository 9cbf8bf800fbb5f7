(** Media recovery (§5): page-oriented recovery of indexes and data from a
    fuzzy image copy plus the log.

    A dump is taken without quiescing anything: it snapshots the current
    disk images (which may contain uncommitted or torn-across-pages state)
    together with a {e redo point} — an LSN from which rolling the log
    forward over the dump reconstructs the current page contents. When a
    page later becomes unreadable, it is reloaded from the dump and brought
    up to date by replaying just that page's log records, with the usual
    page_LSN test. No tree traversal is involved. *)

open Aries_util
module Lsn = Aries_wal.Lsn

(** Reclaimed-WAL-segment archive: the sink {!Aries_wal.Logmgr} hands
    dropped segments to, retained verbatim so a fuzzy dump can still be
    rolled forward after the live log's prefix is truncated. *)
module Archive : sig
  type t

  val create : unit -> t

  val attach : t -> Aries_wal.Logmgr.t -> unit
  (** Install this archive as the log's archive sink: every segment
      reclaimed by [Logmgr.truncate_prefix] is appended here first, keyed
      by the log's id (streams archive independently). *)

  val attach_set : t -> Aries_wal.Logset.t -> unit
  (** {!attach} every stream of the set. *)

  val segment_count : t -> int
  (** Across all streams. *)

  val bytes : t -> int

  val record_count : t -> int

  val end_offset : ?log:int -> t -> int
  (** One past the last archived byte of the given log (default 0 — the
    control stream); 0 when empty. Equals that live log's start offset
    when every truncation went through this sink. *)

  val iter_records : t -> log:int -> from:Lsn.t -> (Aries_wal.Logrec.t -> unit) -> unit
  (** Decode one log's archived records with LSN >= [from] in LSN order
      ([Lsn.nil] = all). *)

  val iter_history : t -> Aries_wal.Logmgr.t -> from:Lsn.t -> (Aries_wal.Logrec.t -> unit) -> unit
  (** One stream's full record history from [from]: its archived segments
      (strictly below the live start) followed by the live log. *)

  val serialize : t -> bytes

  val deserialize : bytes -> t
end

type dump

val take_dump : Aries_txn.Txnmgr.t -> Aries_buffer.Bufpool.t -> dump
(** Fuzzy image copy of the whole store. Internally takes a checkpoint
    first so the dump's per-stream redo points are well defined and
    recent. *)

val redoable : Aries_wal.Logrec.t -> bool
(** Does the record carry a change redo must repeat? Redoable updates and
    CLRs other than dummy CLRs. *)

val page_history :
  ?archive:Archive.t -> Aries_wal.Logmgr.t -> from:Lsn.t -> Ids.page_id -> Aries_wal.Logrec.t list
(** The page's redoable records on its stream with LSN >= [from], oldest
    first, read from [archive] (when given) and then the live log. *)

val replay :
  Aries_txn.Txnmgr.t -> Aries_buffer.Bufpool.t -> Ids.page_id -> Aries_wal.Logrec.t list -> int * int
(** The one redo primitive, for restart and media recovery alike: repeat
    the page's history ([records], its own, oldest first) under the
    page_LSN test. Strictly page-oriented — no index traversal. Returns
    [(applied, skipped)]. *)

val recover_page :
  ?archive:Archive.t -> Aries_txn.Txnmgr.t -> Aries_buffer.Bufpool.t -> dump -> Ids.page_id -> int
(** Restore one lost page from the dump and roll it forward. Returns the
    number of log records applied. The page must not be fixed by anyone.
    After return the authoritative current version is on disk. Pass
    [archive] when the log may have been truncated since the dump: the
    roll-forward then reads reclaimed segments from the archive before the
    live log. *)

val auto_repair :
  ?archive:Archive.t -> Aries_txn.Txnmgr.t -> Aries_buffer.Bufpool.t -> Ids.page_id -> int
(** Automatic media repair (PR 5): rebuild a page whose stored image
    failed its CRC / decode on read, with {e no dump} — the archive plus
    the live log hold the full history from the beginning (the archive
    sink received every reclaimed segment), so replaying from [Lsn.nil]
    recreates the page from its format record. Returns the number of log
    records applied; counts [Stats.disk_repairs] and traces
    [Page_repaired]. Installed by [Db] as the buffer pool's repairer
    hook, so a quarantined page heals transparently on the next fix. *)
