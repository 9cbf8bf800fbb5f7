(** The multi-stream WAL: N independent {!Logmgr} streams plus the global
    commit-epoch / gsn counters that relax ARIES' total LSN order to
    per-stream orders with a cheap global constraint (Zhou et al.,
    "Partially Constrained Transaction Logs").

    Every record is stamped at append time with its [stream], the current
    commit [epoch], and a process-wide [gsn] (global sequence number).
    Page records are routed by page-id hash — all of a page's records live
    on one stream, so pageLSN/recLSN semantics, the WAL rule, per-page redo
    and per-page log chains keep their single-log meaning. Pageless
    transaction-control records are routed by txn-id hash; checkpoint
    records and the master record live on stream 0 (the {e control
    stream}). Transaction prev-LSN chains are {e per-stream} (a record's
    [prev_lsn] is the txn's previous record on the same stream), so each
    stream's post-crash survivors are always a hole-free chain prefix.

    Group commit advances the epoch per batch; a commit is acknowledged
    only when every stream the transaction touched is forced through the
    batch's per-stream fence (rule R8). A commit record's body carries the
    per-touched-stream last-LSN vector; recovery counts the commit only if
    every named record survived ({!commit_valid}) — the fence guarantees
    acknowledged commits always do.

    With [streams = 1] (the default everywhere) the set degenerates to a
    single {!Logmgr} whose byte stream is identical to driving that
    [Logmgr] directly with the same stamps — the N=1 equivalence the
    multistream suite proves. *)

type t

val create : ?segment_size:int -> ?streams:int -> unit -> t
(** [streams] defaults to 1; [segment_size] applies to every stream. *)

val of_mgr : Logmgr.t -> t
(** Wrap an existing single log as a one-stream set (test harnesses). *)

val n : t -> int

val stream : t -> int -> Logmgr.t

val control : t -> Logmgr.t
(** Stream 0: checkpoint records and the master record live here. *)

val iteri : t -> (int -> Logmgr.t -> unit) -> unit

val route_page : t -> Aries_util.Ids.page_id -> int

val route_txn : t -> Aries_util.Ids.txn_id -> int

val page_stream : t -> Aries_util.Ids.page_id -> Logmgr.t
(** The stream holding every record of this page. *)

val current_epoch : t -> int

val advance_epoch : t -> int
(** Open the next commit epoch (group commit, once per batch) and return
    it. *)

val current_gsn : t -> int

val append : t -> stream:int -> Logrec.t -> Lsn.t
(** Stamp the record with [stream], the current epoch and the next gsn,
    then append it to that stream. Returns the stream-local LSN. *)

val append_body : t -> stream:int -> Logrec.t -> 'a Aries_util.Bytebuf.enc -> 'a -> Lsn.t
(** {!append} with [body] written by [enc] in place of [Logrec.body]
    ({!Logmgr.append_body}). *)

val flush_all : t -> unit

val crash : t -> unit
(** Crash every stream (each independently keeps a shuffled number of
    complete unflushed frames while {!Aries_util.Faultdisk.stream_shuffle_on}
    is armed), then re-derive the epoch/gsn counters from the survivors. *)

(** {2 Commit-record stream vector} *)

val encode_commit_targets : (int * Lsn.t) list -> bytes
(** Body of a Commit record: for each touched stream, the txn's last LSN
    there at commit time. A varint count, then a varint stream and a
    varint LSN per entry ({!Aries_util.Bytebuf.W.uvar_list}); the empty
    vector is the empty body. *)

val decode_commit_targets : bytes -> (int * Lsn.t) list
(** Raises [Bytebuf.Corrupt] on a body that does not decode. *)

val targets_valid : t -> Logrec.t -> (int * Lsn.t) list -> bool
(** Did every record the vector names survive, judged for the record [r]
    that carried it (the gsn order rejects offsets reused after a crash)?
    Used for Commit bodies, for the vectors End_txn and Prepare records
    carry — across streams, "the End survived" no longer implies "every
    CLR before it survived" — and for NTA anchor fences. *)

val commit_valid : t -> Logrec.t -> bool
(** Does every record the commit's stream vector names survive? Archived
    entries count (archived segments were stable); live entries must
    decode to a record with a smaller gsn, which rejects offsets reused
    after the crash that lost the original (the vector may name {e other}
    transactions' records: the SMO fence, see {!Aries_txn.Txnmgr}). An
    acknowledged commit always validates (rule R8); an un-acked commit
    whose updates a shuffled crash dropped must not. *)

val iter_merged : t -> starts:Lsn.t array -> (Logrec.t -> unit) -> unit
(** Scan live records of all streams merged in [(epoch, gsn)] order.
    [starts.(s)] is stream [s]'s scan start ([Lsn.nil] = oldest retained);
    cursors clamp to each stream's retained range. *)

(** {2 Snapshot} *)

val serialized_bytes : t -> int
(** The exact length {!serialize_into} writes. *)

val serialize_into : Aries_util.Bytebuf.W.t -> t -> unit
(** The stream count, the global counters, then each stream's
    u32-length-prefixed {!Logmgr.serialize_into} image. *)

val serialize : t -> bytes
(** {!serialize_into} a fresh, exactly sized writer. *)

val deserialize_from : Aries_util.Bytebuf.R.t -> t
(** Parse a {!serialize_into} image in place, to the reader's end; each
    stream's part is read through a sub-reader, not copied out. *)
