(** Crash-point injection for deterministic simulation.

    Every {e durability event} — a log append, a log force, a page write —
    calls {!hit}. The simulation harness ({!Aries_sim.Sim}) first runs a
    workload with the counter merely recording, learning the total number of
    events [N]; it then re-runs the same seed once per crash index
    [k = 1..N] with the hook {e armed}, so the [k]-th durability event
    raises {!Crash} instead of happening. Once tripped, {e every} subsequent
    event also raises — the stable state (disk images + flushed log prefix)
    is frozen at the crash instant even though other fibers may still be
    scheduled; volatile work they do is discarded by [Db.crash] anyway.

    The module also hosts named {e fault} switches, used to deliberately
    break a durability rule (e.g. skip the commit log force) and prove the
    harness catches the resulting corruption. Faults are for tests and the
    bench demo only; production code paths merely consult them.

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

(** {1 Fault switches} *)

val enable_fault : string -> unit

val disable_fault : string -> unit

val fault_active : string -> bool

val clear_faults : unit -> unit

val fault_wal_skip_flush : string
(** Well-known fault name: {!Aries_wal.Logmgr} silently skips log forces,
    breaking the durability of commits and the WAL rule — the canonical
    "deliberately injected bug" the simulation harness must catch. *)

val fault_lock_uncond_under_latch : string
(** Well-known fault name: the B-tree key-locking path skips the
    conditional-lock / unlatch / unconditional-lock dance and issues an
    {e unconditional} lock request while still holding page latches —
    exactly the undetectable-deadlock hazard of §2.2. The online
    discipline checker must flag it as an R1 violation. *)

val fault_commit_early_ack : string
(** Well-known fault name: {!Aries_txn.Txnmgr} acknowledges a commit
    {e before} forcing the log up to the commit record — a durability lie
    the discipline checker must flag as an R4 violation. *)

val fault_ckpt_premature_truncate : string
(** Well-known fault name: the checkpoint daemon truncates the log all the
    way to the flushed boundary, ignoring the reclamation safety point —
    records that restart or media recovery may still need are destroyed.
    The discipline checker must flag the oversized truncate as an R6
    violation. *)

(** {2 Storage-fault switches}

    The adversarial storage model (PR 5). These are {e armed} centrally by
    {!Faultdisk.arm}, which also seeds the RNG driving the probabilistic
    ones; production code consults them via {!Faultdisk}'s decision
    functions rather than reading the raw switch. *)

val fault_disk_torn_write : string
(** A crash that lands on a page write leaves a {e torn} image on disk —
    a prefix of the new bytes spliced onto the old tail — instead of
    atomically keeping the old image. Detected by the page CRC on the
    next read; repaired via media recovery. *)

val fault_disk_bit_flip : string
(** Silent bit-rot: stored page images occasionally get one bit flipped
    at rest (probability and position drawn from the {!Faultdisk} RNG).
    Detected by the page CRC; repaired via media recovery. *)

val fault_disk_transient_eio : string
(** Probabilistic, seeded transient I/O failures on page reads/writes and
    log forces. Retryable: callers apply bounded retry with
    scheduler-step backoff; exhaustion surfaces a typed
    [Storage_error]. *)

val fault_log_torn_append : string
(** A crash leaves a {e partial} log record in the tail segment (the
    medium kept some bytes past the flushed boundary). Restart's CRC
    tail-scan must truncate it rather than crash decoding garbage. *)

val fault_crc_check_disabled : string
(** Meta-fault proving detection has teeth: with CRC verification
    switched off, the bit-flip workload must be caught by the sim
    oracle / escape as a decode failure instead of being repaired. *)

val fault_instant_skip_redo : string
(** Meta-fault proving rule R7 has teeth: the instant-restart on-demand
    redo hook drops a page from the needs-redo set {e without} replaying
    its history, so the next fix serves a stale image. The discipline
    checker must flag the fix as an R7 violation. *)

val fault_wal_stream_shuffle : string
(** Multi-stream crash adversary: at crash time each log stream
    independently keeps a random number of complete unflushed frames past
    its stable boundary (drawn from the {!Faultdisk} RNG) — one stream may
    persist its whole tail while another loses everything unforced. Armed
    by {!Faultdisk.arm} when [cfg.stream_shuffle] is set. *)

val fault_wal_stream_fence_skip : string
(** Meta-fault proving rule R8 has teeth: the commit path forces only the
    stream holding the Commit record, skipping the epoch fence over the
    other streams the transaction touched — an update can then be lost
    while its commit survives. The discipline checker must flag the ack
    as an R8 violation. *)

val fault_mvcc_reader_key_lock : string
(** Meta-fault proving rule R9 has teeth: an Mvcc snapshot fetch issues a
    real conditional key-lock request inside its wait-free read window —
    exactly the lock-manager interaction snapshot readers exist to avoid.
    The discipline checker must flag the request as an R9 violation. *)

val fault_twopc_early_decide : string
(** Meta-fault proving rule R10 has teeth: the 2PC coordinator skips the
    force of its Coord_commit decision record and acknowledges the global
    commit anyway — participants then release in-doubt locks on the
    strength of a decision a crash can still lose. The discipline checker
    must flag the decide/ack as an R10 violation. *)

val fault_shard_down : string
(** Prefix of the per-shard fail-stop switches ["shard.down.<k>"] (see
    {!shard_down_fault}): while shard [k]'s switch is active the
    {!Aries_shard.Sharddb} layer refuses every operation routed to it with
    a typed [Shard_down] — healthy shards must keep committing, and
    cross-shard transactions touching the downed shard park as in-doubt or
    abort by presumption, never hang. *)

val shard_down_fault : int -> string
(** [shard_down_fault k] = ["shard.down.<k>"]. *)
