(** The fuzzy-checkpoint daemon: bounded restart and bounded log growth.

    ARIES (§2) assumes checkpoints that bound restart analysis and a log
    whose prefix can eventually be discarded. This daemon delivers both
    without quiescing user fibers: every [every_steps] scheduler steps it
    takes a fuzzy checkpoint ({!Checkpoint.take} — Begin/End pair, no
    quiescing), computes the {!safety_point}, and truncates whole log
    segments below it ({!Aries_wal.Logmgr.truncate_prefix}), handing each
    to the archive so media recovery keeps working. When a stale dirty
    page is what pins the oldest live segment, the daemon nudges the page
    cleaner ([Bufpool.clean_some]) before checkpointing so the safety
    point can advance.

    Spawned by [Db.start_daemons] under the [~checkpoint] knob, using the
    same daemon-fiber lifecycle as the group-commit and page-cleaner
    daemons (die-on-crash, drain-on-close). *)

module Lsn = Aries_wal.Lsn

type cfg = {
  every_steps : int;  (** scheduler steps between checkpoints *)
  nudge_pages : int;  (** pages per cleaner nudge when the tail is pinned *)
  truncate : bool;  (** reclaim log space after each checkpoint *)
}

val default_cfg : cfg
(** [{ every_steps = 64; nudge_pages = 2; truncate = true }] *)

val validate : cfg -> unit
(** Raises [Invalid_argument] on nonsensical knobs. *)

val safety_points : Aries_txn.Txnmgr.t -> Aries_buffer.Bufpool.t -> Lsn.t array option
(** The log-space reclamation safety points, one per stream: [min(the last
    complete checkpoint's per-stream redo point, min recLSN of dirty pages
    routed to the stream, active transactions' first LSN on the stream)] —
    each monotone nondecreasing. [None] when truncation would be unsafe on
    {e any} stream: no complete checkpoint yet, or a transaction of unknown
    extent (nil first with a non-nil last on some stream) in the table.
    Emits one [Log_safety] trace event per stream (the independent
    announcements rule R6 judges truncations against). *)

val safety_point : Aries_txn.Txnmgr.t -> Aries_buffer.Bufpool.t -> Lsn.t option
(** The control stream's entry of {!safety_points} (identical to the
    classic single-log point when [streams = 1]). *)

val reclaim : Aries_txn.Txnmgr.t -> Aries_buffer.Bufpool.t -> int
(** Truncate each stream's sealed segments below its safety point; returns
    total bytes reclaimed (0 if blocked or nothing reclaimable). Under
    [Crashpoint.Ckpt_premature_truncate] it deliberately overshoots
    every stream to its flushed boundary so the R6 checker can be proven to
    catch a premature truncate. *)

val round : Aries_txn.Txnmgr.t -> Aries_buffer.Bufpool.t -> cfg -> unit
(** One daemon iteration: optional cleaner nudge, fuzzy checkpoint,
    reclamation. Exposed for tests and [Db.trim_log]. *)

val run_daemon : Aries_txn.Txnmgr.t -> Aries_buffer.Bufpool.t -> cfg -> stop:(unit -> bool) -> unit
(** The daemon body: loop [round] every [every_steps] scheduler steps until
    [stop ()], scheduler shutdown, or a tripped crash point. *)
