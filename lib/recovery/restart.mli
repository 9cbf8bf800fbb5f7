(** Restart recovery: one engine, run to completion (classic) or
    resumed in the background (instant).

    {b Analysis} scans from the last complete checkpoint to the end of the
    (stable) log, rebuilding the transaction table and dirty-page table,
    and indexes every redoable record by page.

    {b Redo} repeats history one page at a time: each dirty page's own
    records — the anchoring checkpoint's per-page chain merged with the
    scan's index — are replayed by {!Media.replay}, the single redo
    primitive media recovery also uses. It is strictly page-oriented: the
    page named in the record is fixed and its page_LSN decides; no index
    is ever traversed (experiment Q3 counts this).

    {b Undo} rolls losers back in one reverse sweep, taking the owed record
    with the highest gsn across the swept losers at each step and
    finishing each loser as soon as it owes nothing. Resource-manager undo
    may be page-oriented or logical — that policy lives in the resource
    manager (the heart of ARIES/IM, §3); the sweep only drives it.
    Prepared (in-doubt) transactions are not rolled back: their locks are
    reacquired from the Prepare record body and they remain in the table
    awaiting the commit coordinator.

    Repeating history makes the whole procedure idempotent: a crash at any
    point simply causes the next restart to do the remaining work. *)

open Aries_util
module Lsn = Aries_wal.Lsn

type report = {
  rp_redo_lsn : Lsn.t;  (** the control stream's redo point (lowest recLSN) *)
  rp_records_analyzed : int;
  rp_records_redo_scanned : int;
      (** log records the per-page replays read: each redone page's own
          redoable history from its recLSN *)
  rp_redos_applied : int;
  rp_redos_skipped : int;  (** LSN test said the page was already current *)
  rp_redo_traversals : int;
      (** index traversals performed during redo — always 0: redo is
          strictly page-oriented (experiment Q3 reports this) *)
  rp_undo_records : int;  (** loser records processed by the undo sweep *)
  rp_losers : Ids.txn_id list;
  rp_indoubt : Ids.txn_id list;
  rp_locks_reacquired : int;
}

val run : Aries_txn.Txnmgr.t -> Aries_buffer.Bufpool.t -> report
(** Classic restart: the engine of {!start} with nothing deferred. After
    Analysis every pending page is redone, then every loser goes through
    one undo sweep, and the post-recovery checkpoint is taken — all before
    returning. The transaction manager must be freshly cleared
    (post-crash); resource managers must already be registered. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Instant restart}

    The same engine, resumed in the background: after Analysis the Db
    opens for new transactions immediately. The analysis DPT becomes a
    {e needs-redo} set — fixing a pending page triggers single-page redo
    on demand, a background daemon drains the rest, and loser undo is
    lock-driven: a new transaction requesting a name held by a restored
    loser preempts exactly that loser's undo. Crashing while the drain is still running
    is just another crash — the next restart (instant or classic) repeats
    the remaining work. *)

type engine

type drain_cfg = {
  dr_every_steps : int;  (** scheduler steps between background rounds *)
  dr_redo_pages : int;  (** pending pages redone per round *)
  dr_undo_txns : int;  (** losers fully undone per round *)
}

val default_drain : drain_cfg

val start :
  ?archive:Media.Archive.t -> Aries_txn.Txnmgr.t -> Aries_buffer.Bufpool.t -> engine
(** Analysis, lock reacquisition (in-doubt txns from their Prepare bodies;
    losers from the checkpointed lock lists unioned with locks re-derived
    from the scanned records), restoration of losers as deadlock-immune
    [Rolling_back] txns, and one eager undo sweep over every loser whose
    owed records are not all fenced by a reacquired lock (half-open nested
    top actions, for instance). Installs the Bufpool
    on-demand-redo hook and the Txnmgr preemption hook, then returns: the
    Db is open. Redo and undo happen afterwards — on demand, or through
    {!drain_step}/{!run_daemon}. Pass [archive] so per-page redo can reach
    history older than the live log's truncation point. *)

val redo_page : ?on_demand:bool -> engine -> Ids.page_id -> unit
(** Repeat the page's history (no-op if the page is not pending). *)

val drain_step : ?cfg:drain_cfg -> engine -> unit
(** One background round: redo up to [dr_redo_pages] pending pages, undo
    up to [dr_undo_txns] losers; {!finish}es the engine when nothing
    remains. *)

val drain : engine -> unit
(** Drive rounds until the engine is finished (or a crash trips). *)

val run_daemon : ?cfg:drain_cfg -> engine -> stop:(unit -> bool) -> unit
(** Daemon loop: a {!drain_step} every [dr_every_steps] scheduler steps.
    On clean shutdown ([stop] or scheduler shutdown) with the drain still
    incomplete, drains fully first — the post-run state must be quiesced.
    Exits immediately once a crash has tripped. *)

val finish : engine -> unit
(** Uninstall both hooks and take the post-recovery checkpoint.
    Idempotent; called automatically when the drain completes. *)

val finished : engine -> bool

val pending_redo : engine -> Ids.page_id list
(** Pages still awaiting redo, sorted. *)

val losers_remaining : engine -> Ids.txn_id list
(** Losers still awaiting undo, sorted. *)

val report : engine -> report
(** Aggregated counters — monotone across on-demand redos, background
    drain rounds and preempted undos; never reset per pass. *)
