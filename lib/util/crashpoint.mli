(** Crash-point injection for deterministic simulation.

    Every {e durability event} — a log append, a log force, a page write —
    calls {!hit}. The simulation harness ({!Aries_sim.Shardsim}) first runs a
    workload with the counter merely recording, learning the total number of
    events [N]; it then re-runs the same seed once per crash index
    [k = 1..N] with the hook {e armed}, so the [k]-th durability event
    raises {!Crash} instead of happening. Once tripped, {e every} subsequent
    event also raises — the stable state (disk images + flushed log prefix)
    is frozen at the crash instant even though other fibers may still be
    scheduled; volatile work they do is discarded by [Db.crash] anyway.

    The module also hosts the typed {e fault} switches ({!fault}), used to
    deliberately break a durability rule (e.g. skip the commit log force)
    and prove the harness catches the resulting corruption. Faults are for
    tests and the bench demo only; production code paths merely consult
    them.

    All state is global (one simulation at a time — the system is
    single-threaded and cooperatively scheduled, like {!Stats}). *)

exception Crash of int
(** [Crash k] is raised at durability event [k] (1-based) when armed, and at
    every event after the trip. Simulates a power failure at that instant. *)

val reset : unit -> unit
(** Zero the event counter, disarm, and clear the tripped flag. Faults are
    {e not} cleared (they are orthogonal knobs). *)

val arm : at:int -> unit
(** Arm the hook: the [at]-th subsequent event (counting from the last
    {!reset}) raises {!Crash}. [at <= 0] is rejected. *)

val arm_label : string -> unit
(** Arm the hook by {e label}: the next {!hit} whose label equals the given
    string raises {!Crash}, regardless of the counter. Used by targeted
    crash-ordering tests (e.g. crash exactly between the checkpoint's log
    force and the master-record update, label ["ckpt.master"]) where the
    global event index would be brittle. *)

val disarm : unit -> unit
(** Stop raising; the counter keeps counting. Call before running restart
    recovery, which performs durability events of its own. *)

type point
(** A labelled durability event site. *)

val point : string -> point
(** [point label] registers the site's {!Stats} counter
    ["crashpoint.<label>"]. Call once, at module initialisation. *)

val hit : point -> unit
(** Called by Logmgr/Disk/Bufpool at each durability event. Increments the
    counter and raises {!Crash} per the armed/tripped state. Each hit is
    also counted per label in the current {!Stats} sink under
    ["crashpoint.<label>"] so sweeps can report event composition. *)

val count : unit -> int
(** Events since the last {!reset}. *)

val tripped : unit -> bool
(** Has an armed crash fired since the last {!reset}? *)

(** {1 Fault switches}

    The typed set of switches that deliberately break one rule each.
    [Crashpoint] owns them: the engine's check sites test a constructor
    with {!active}, and tests, the bench and the sim arm them with
    {!enable}. The storage faults (torn writes, bit-rot, transient EIO,
    torn log appends, the multi-stream flush shuffle) are not here: they
    belong to {!Faultdisk}, whose armed config alone decides them. *)

type fault =
  | Wal_skip_flush
      (** ["wal.skip-flush"]: {!Aries_wal.Logmgr} silently skips log
          forces, breaking the durability of commits and the WAL rule — the
          canonical "deliberately injected bug" the simulation harness must
          catch. *)
  | Lock_uncond_under_latch
      (** ["lock.uncond-under-latch"]: the B-tree key-locking path skips
          the conditional-lock / unlatch / unconditional-lock dance and
          issues an {e unconditional} lock request while still holding page
          latches — exactly the undetectable-deadlock hazard of §2.2. The
          online discipline checker must flag it as an R1 violation. *)
  | Commit_early_ack
      (** ["commit.early-ack"]: {!Aries_txn.Txnmgr} acknowledges a commit
          {e before} forcing the log up to the commit record — a durability
          lie the discipline checker must flag as an R4 violation. *)
  | Ckpt_premature_truncate
      (** ["ckpt.premature-truncate"]: the checkpoint daemon truncates the
          log all the way to the flushed boundary, ignoring the reclamation
          safety point — records that restart or media recovery may still
          need are destroyed. The checker must flag the oversized truncate
          as an R6 violation. *)
  | Wal_stream_fence_skip
      (** ["wal.stream-fence-skip"]: the commit path forces only the stream
          holding the Commit record, skipping the epoch fence over the
          other streams the transaction touched — an update can then be
          lost while its commit survives. Flagged as an R8 violation. *)
  | Mvcc_reader_key_lock
      (** ["mvcc.reader-key-lock"]: an Mvcc snapshot fetch issues a real
          conditional key-lock request inside its wait-free read window.
          Flagged as an R9 violation. *)
  | Twopc_early_decide
      (** ["2pc.early-decide"]: the 2PC coordinator skips the force of its
          Coord_commit decision record and acknowledges the global commit
          anyway. Flagged as an R10 violation. *)
  | Crc_check_disabled
      (** ["crc.check-disabled"]: CRC verification is switched off (see
          {!Faultdisk.crc_checks_enabled}), so corruption must be caught by
          the sim oracle or escape as a decode failure instead of being
          repaired. *)
  | Instant_skip_redo
      (** ["instant.skip-redo"]: the instant-restart on-demand redo hook
          drops a page from the needs-redo set {e without} replaying its
          history, so the next fix serves a stale image. Flagged as an R7
          violation. *)
  | Shard_down of int
      (** ["shard.down.<k>"]: shard [k] is failed — the
          {!Aries_shard.Sharddb} layer refuses every operation routed to it
          with a typed [Shard_down]; healthy shards must keep committing.
          A fail-stop injection the shard sweep arms itself, not a
          meta-fault, so {!of_string} does not accept it. *)

val meta_faults : fault list
(** The nine meta-faults, each of which a sweep must catch. *)

val to_string : fault -> string
(** The fault's name, as [ARIES_SIM_FAULT] spells it. *)

val of_string : string -> fault option
(** Inverse of {!to_string} over {!meta_faults}; [None] for any other
    name. *)

val active : fault -> bool
(** Is the switch on? One comparison while no switch is on. *)

val enable : fault -> unit

val disable : fault -> unit

val clear : unit -> unit
(** Turn every switch off. *)
