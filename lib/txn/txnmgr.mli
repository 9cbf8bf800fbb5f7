(** Transaction manager: the transaction table, per-stream PrevLSN
    chaining, commit with the epoch fence, total/partial rollback, nested
    top actions, and the resource-manager registry through which rollback
    and restart recovery dispatch undo/redo of resource-specific log
    records.

    With a multi-stream WAL ({!Aries_wal.Logset}) a transaction's records
    are spread over the streams its pages route to, and every piece of
    per-transaction log state becomes a per-stream vector: a record's
    [prev_lsn] is the transaction's previous record {e on the same stream},
    so each stream's chain is independently hole-free after a crash. The
    undo driver merges the per-stream chains in reverse [gsn] order —
    always compensating the globally most recent owed record — which
    preserves the classic single-log reverse-LSN undo order (and its
    physical-SMO soundness argument) exactly.

    Commit durability is the {e epoch fence} (rule R8): the Commit record's
    body names, per touched stream, the transaction's last LSN there, and
    the commit is acknowledged only once {e every} named stream is forced
    through its entry — not just the stream holding the Commit record.
    End_txn and Prepare records carry the same vector so restart can tell
    a fully-survived rollback/prepare from one whose other-stream tail a
    crash dropped.

    The undo driver implements the ARIES rules: undoable updates are undone
    through their resource manager (which writes CLRs); CLRs are never
    undone — the driver jumps over the compensated interval via
    [undo_nxt_lsn]; so rollbacks make bounded progress even across repeated
    failures. Nested top actions (used by index SMOs) are bracketed with
    {!nta_begin}/{!nta_end}; the fence [nta_end] writes (a dummy CLR for a
    single-stream bracket, a self-validating anchor CLR for a multi-stream
    one) makes the bracketed changes permanent w.r.t. the enclosing
    transaction's rollback — atomically across streams — while leaving
    them undoable if the bracket never completes. *)

open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logset = Aries_wal.Logset
module Lockmgr = Aries_lock.Lockmgr

type state =
  | Active
  | Committing
      (** commit record appended but not yet acknowledged durable (e.g.
          parked on the group-commit queue). The fate is sealed: a fuzzy
          checkpoint that observes this state records it, and restart
          analysis treats the transaction as committed — sound because
          {!Aries_recovery.Checkpoint.take} forces {e every} stream before
          publishing the master record, so whenever that checkpoint anchors
          restart the Commit record and all its fence targets are stable. *)
  | Prepared  (** in-doubt: survives restart with locks reacquired *)
  | Rolling_back

type txn = {
  txn_id : Ids.txn_id;
  mutable state : state;
  firsts : Lsn.t array;
      (** per stream: the txn's first record there; [Lsn.nil] where it has
          written nothing, or where the extent is unknown after a restore
          (treated as blocking by log truncation when [lasts] is non-nil) *)
  lasts : Lsn.t array;  (** per stream: most recent record of this txn *)
  undo_nxts : Lsn.t array;
      (** per stream: next record to examine when rolling back *)
}

exception Aborted of Ids.txn_id * string
(** Raised to the application after an involuntary total rollback (deadlock
    victim). The rollback has already completed when this is raised. *)

type t

val create : Logset.t -> Lockmgr.t -> t

val logs : t -> Logset.t

val log : t -> Aries_wal.Logmgr.t
(** The control stream (stream 0) — checkpoint records and the master
    record live there. *)

val txn_stream : t -> Ids.txn_id -> int
(** The stream this transaction's pageless control records (Commit,
    Prepare, Rollback, End) route to. *)

val touched : txn -> (int * Lsn.t) list
(** The txn's per-stream last-LSN vector, streams it wrote only — the
    commit/End/Prepare fence targets. *)

val locks : t -> Lockmgr.t

(** {1 Resource managers} *)

val register_rm :
  t ->
  ?locks:(Logrec.t -> (Lockmgr.name * Lockmgr.mode) list) ->
  rm_id:int ->
  redo:(Logrec.t -> unit) ->
  undo:(txn -> Logrec.t -> unit) ->
  unit ->
  unit
(** [redo] applies a record to its page, page-oriented (restart redo and
    media recovery). [undo] compensates a record during rollback: it must
    write CLR(s) via {!log_clr} (or regular records for SMOs performed
    during undo) and apply the change. [locks] (default: none) derives the
    commit-duration lock names the record's writer must have held —
    instant-restart analysis reacquires them on a loser's behalf so new
    transactions conflict with (rather than read past) uncommitted crash
    residue; SMO / structure records derive no locks. *)

val rm_redo : t -> Logrec.t -> unit

val rm_locks : t -> Logrec.t -> (Lockmgr.name * Lockmgr.mode) list
(** The registered [locks] derivation for the record's resource manager. *)

val set_preempt_hook : t -> (Lockmgr.name -> unit) option -> unit
(** Install (or clear) the instant-restart preemption hook consulted by
    {!lock} before every unconditional request: given the requested name,
    the hook drives to completion the undo of any restart loser still
    holding it, so user transactions never queue behind crash residue
    indefinitely. Undo itself takes no locks, so the hook cannot recurse. *)

val set_txn_end_hook : t -> (txn -> [ `Commit of int * int | `Rollback ] -> unit) option -> unit
(** Install (or clear) the transaction-end hook the MVCC version store
    listens on. [`Commit (epoch, gsn)] fires inside {!commit} right after
    the Commit record is appended — its (epoch, gsn) is the commit sequence
    number — and {e before} the durability wait: the fate is sealed (see
    {!state}), and snapshots pinned while the committer is parked on the
    group-commit queue must already see the stamped versions. [`Rollback]
    fires in total rollback after undo completes, before locks release. *)

(** {1 Transaction lifecycle} *)

val begin_txn : t -> txn
(** Also binds the transaction to the current fiber, if any. *)

val current : t -> txn option
(** The transaction bound to the calling fiber. *)

val commit : t -> txn -> unit
(** Write Commit (its body naming, per touched stream, the txn's last LSN
    there) and make it durable through the epoch fence — every touched
    stream forced through its target, the only synchronous log I/O in the
    happy path. With per-commit forcing these are direct [Logmgr.flush_to]
    calls; with a live group-commit daemon (see {!set_group_commit} and
    [Group_commit]) the committer enqueues its target vector and suspends
    until the daemon's next batched force covers every entry, so N
    concurrent commits cost ~1 force per touched stream. Either way the
    call returns only after the fence holds (modulo deliberately-injected
    faults); locks are released and End written after that. *)

val set_group_commit : t -> Group_commit.t option -> unit
(** Install (or remove) the group-commit queue consulted by {!commit} and
    {!prepare}. When absent — or when the queue's daemon is not live in the
    current scheduler run — commits force synchronously. *)

val group_commit : t -> Group_commit.t option

val prepare : ?meta:bytes -> t -> txn -> unit
(** First phase of 2PC: logs Prepare (its body carrying the fence target
    vector, the txn's lock names for restart validation and reacquisition,
    and the opaque [meta] blob — the sharding layer stores the global
    transaction id and coordinator shard there, see
    [Aries_shard.Twopc.encode_prepare_meta]) and forces every touched
    stream. *)

val commit_prepared : t -> txn -> unit

val rollback : t -> ?reason:string -> txn -> unit
(** Total rollback: undo everything, release locks, write End. *)

val savepoint : txn -> Lsn.t array
(** A point to partially roll back to (a copy of the txn's per-stream
    last-LSN vector). *)

val rollback_to : t -> txn -> Lsn.t array -> unit
(** Partial rollback to a savepoint; the transaction remains active and
    keeps all its locks (ARIES does not release locks on partial rollback). *)

(** {1 Logging} *)

val log_update :
  t ->
  txn ->
  ?page:Ids.page_id ->
  ?undoable:bool ->
  ?redoable:bool ->
  rm_id:int ->
  op:int ->
  enc:'a Bytebuf.enc ->
  body:'a ->
  unit ->
  Lsn.t
(** Routed by page ([hash(page) mod N]; pageless records by txn id), so all
    of a page's records share one stream. [enc] writes [body] straight
    into the log ({!Logmgr.append_body}); [Bytebuf.raw_bytes] logs bytes
    as they are. *)

val log_clr :
  t ->
  txn ->
  ?page:Ids.page_id ->
  ?stream:int ->
  ?undo_stream:int ->
  ?rm_id:int ->
  ?op:int ->
  enc:'a Bytebuf.enc ->
  body:'a ->
  undo_nxt:Lsn.t ->
  unit ->
  Lsn.t
(** [page]/[stream] route the CLR itself (a page's stream automatically;
    [stream] overrides for pageless dummy CLRs — {!nta_end} fences every
    touched stream). [undo_stream] names the stream [undo_nxt] addresses —
    the {e compensated} record's stream, which differs from the CLR's own
    when a logical undo lands its compensation on a different page
    (ARIES/IM §4: undo an insert whose key has since moved leaves). It
    defaults to the CLR's own stream, the page-oriented common case. *)

(** {1 Nested top actions} *)

type nta
(** A bracket mark: the txn's per-stream last-LSN vector (Figure 8/9)
    plus its per-stream undo cursors, both snapshotted at
    {!nta_begin}. *)

val nta_begin : txn -> nta
(** Open a nested-top-action bracket: remember the txn's per-stream
    last-LSN vector and undo cursors. *)

val nta_end : t -> txn -> nta -> Lsn.t
(** Fence the bracket opened by {!nta_begin}, making the records in
    between invisible to rollback. A bracket that moved one stream gets
    the classic dummy CLR; one that moved several streams gets a single
    {e anchor} CLR on the txn's control stream whose body carries a
    multi-stream jump vector plus a per-stream fence over the bracket's
    last records: the jumps are honored only while the whole bracket
    demonstrably survives on every moved stream, so a crash can never
    fence one stream's half of an SMO while exposing another's to
    physical undo. Jump targets (and the dummy CLR's UndoNxtLSN) are the
    {e pre-bracket undo cursors}, not the pre-bracket last LSNs: for a
    forward bracket the two land on the same next-to-undo record, but
    for an SMO triggered {e during} rollback the last-LSN vector points
    at already-compensated history — landing there replays undone work
    whose CLRs may live on other streams (Figure 10's dummy CLR points
    at the not-yet-undone key delete for the same reason). Returns the
    fence record's LSN ([Lsn.nil] if the bracket wrote nothing). *)

val nta_anchor : Logrec.t -> bool
(** Is this CLR a multi-stream NTA anchor (carries a jump/fence vector
    body rather than a plain same-stream UndoNxtLSN)? *)

val decode_nta_body : bytes -> (int * Lsn.t) list * (int * Lsn.t) list
(** An anchor CLR's [(jumps, fences)] vectors: where each moved stream's
    undo cursor lands, and the bracket's last record per moved stream
    (the anchor's validity condition, checked with
    {!Logset.targets_valid}). *)

val nta_jumps : Logset.t -> Logrec.t -> (int * Lsn.t) list option
(** An anchor's jump vector if its whole bracket survived on every moved
    stream ({!Logset.targets_valid} over its fences), [None] otherwise —
    also when the body does not decode: such an anchor fences nothing,
    and the bracket's surviving records roll back physically. *)

(** {1 Undo driving} (shared with restart recovery) *)

val undo_candidate : t -> ?stop_at:Lsn.t array -> txn -> (int * Logrec.t) option
(** The txn's next record to undo — the one with the highest gsn among its
    per-stream [undo_nxts] cursors (above [stop_at] per stream, when
    given), read from its stream. [None] when the rollback (to [stop_at])
    is complete. *)

val undo_one : t -> txn -> int * Logrec.t -> unit
(** Process one {!undo_candidate}: dispatch an undoable update to its
    resource manager (which writes the CLR and advances the cursor), or
    step the stream's cursor over CLRs / non-undoable records. *)

(** {1 Prepare body codec} *)

val encode_prepare_body : ?meta:bytes -> targets:(int * Lsn.t) list -> locks:bytes -> unit -> bytes

val decode_prepare_body : bytes -> (int * Lsn.t) list * bytes * bytes
(** [(fence targets, encoded lock list, 2PC meta blob)] — [meta] is empty
    for a bare single-node prepare. *)

(** {1 Locking} *)

val lock : t -> txn -> Lockmgr.name -> Lockmgr.mode -> Lockmgr.duration -> unit
(** Unconditional request. If the transaction is chosen as deadlock victim,
    it is rolled back in place and {!Aborted} is raised. Must not be called
    while holding latches (asserted by the index manager's discipline, not
    here). *)

val try_lock : t -> txn -> Lockmgr.name -> Lockmgr.mode -> Lockmgr.duration -> bool
(** Conditional request; never blocks. *)

(** {1 Introspection / recovery support} *)

val find : t -> Ids.txn_id -> txn option

val active_txns : t -> txn list
(** All transactions currently in the table, any state; sorted by id. *)

val restore_txn :
  t ->
  ?firsts:Lsn.t array ->
  id:Ids.txn_id ->
  state:state ->
  lasts:Lsn.t array ->
  undo_nxts:Lsn.t array ->
  unit ->
  txn
(** Restart analysis rebuilding the table. [firsts] is the per-stream
    oldest-LSN vector the transaction wrote (reconstructed from the
    checkpoint body or the scan); when omitted it defaults to all-nil,
    which — combined with a non-nil last on some stream — marks the extent
    unknown and blocks log-space reclamation conservatively. The arrays
    are copied. *)

val finish : t -> txn -> unit
(** Write End and drop from the table (restart undo completion). *)

val clear : t -> unit
(** Drop all volatile transaction state (crash simulation). *)

val next_txn_id : t -> Ids.txn_id
(** The id the next [begin_txn] would use (monotonic; restored after
    restart from the log scan so ids never collide). *)

val note_txn_id : t -> Ids.txn_id -> unit

val state_to_int : state -> int

val state_of_int : int -> state
