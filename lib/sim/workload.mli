(** The randomized multi-fiber workload of the simulation harness, and
    the named configurations the sweeps run it under.

    The workload drives global transactions over an
    {!Aries_shard.Sharddb} cluster. At [shards = 1] every transaction has
    one branch and commits locally, with no 2PC record: that is the
    single-Db harness. At [shards > 1] keys hash across shards, and a
    multi-branch transaction runs presumed-abort 2PC.

    Every scheduling and data choice derives from the run's seed: per-fiber
    RNGs are seeded from (seed, fiber), so a run is a pure function of
    (seed, cfg) — re-running with the same pair replays the identical
    execution, which is what makes crash indices meaningful.

    Each fiber owns a private slice of the key space (fiber [f] writes only
    values ["g<f>-k<i>"]), so a fiber always knows the exact state of its
    keys (its committed view plus its in-flight transaction's ops) and the
    oracle stays exact. Lock conflicts still occur across fibers — next-key
    locks and SMO latching cross the range boundaries — so deadlocks,
    waits and interleaved SMOs are all exercised. *)

open Aries_util

type cfg = {
  shards : int;  (** cluster size; 1 = the single-Db harness *)
  fibers : int;
  txns_per_fiber : int;
  max_ops_per_txn : int;
  keys_per_fiber : int;  (** size of each fiber's private value range *)
  fetch_freq : int;  (** 1/n of ops are fetches (0 = never) *)
  rollback_freq : int;  (** 1/n of surviving txns explicitly roll back (0 = never) *)
  scan_freq : int;
      (** 1/n of txns are full-tree scans of every shard (0 = never); each
          scan checks its own fiber's slice against the committed view at
          scan start — the per-snapshot oracle under
          {!Aries_btree.Protocol.Mvcc} *)
  yield_probability : float;  (** scheduler preemption at instrumented points *)
  steal_probability : float;  (** buffer-pool randomized steal (dirty-page writes) *)
  page_size : int;  (** small pages force SMOs *)
  pool_capacity : int;  (** small pools force evictions (disk writes) *)
  commit_mode : Aries_db.Db.commit_mode;
      (** per-commit forcing or the batched group-commit pipeline *)
  cleaner : Aries_buffer.Cleaner.cfg option;
      (** background page cleaner on/off *)
  checkpoint : Aries_recovery.Ckptd.cfg option;
      (** fuzzy-checkpoint daemon on/off *)
  locking : Aries_btree.Protocol.locking;
      (** the index locking protocol (Data_only in the stock configs;
          Mvcc in the snapshot-read configs) *)
  vgc : Aries_recovery.Vgcd.cfg option;
      (** MVCC version-GC daemon on/off (on in the Mvcc configs, so
          reclamation races live snapshots and crash points) *)
  segment_size : int;  (** WAL segment size — small, so truncation happens mid-run *)
  streams : int;  (** WAL streams per shard (1 = the classic single log) *)
  faults : Aries_util.Faultdisk.cfg option;
      (** storage faults, armed by {!Shardsim.run} after setup for the
          workload and crash/restart phases, seeded from the run seed *)
}
(** Every shard is built from the same fields; the daemons ([commit_mode]
    [Group], [cleaner], [checkpoint], [vgc]) rule out {!Sweep.Kill}. *)

val default_cfg : cfg
(** One shard, 3 fibers x 6 txns, 320-byte pages, 12-frame pool, steals
    and yields on: small enough that a crash sweep over every durability
    event is cheap, adversarial enough to exercise SMOs, deadlocks and
    steals. Per-commit forcing, no cleaner; the fuzzy-checkpoint daemon
    runs every 24 steps over 1 KiB log segments, so checkpoints and log
    truncations interleave with user work in every sim run. *)

val group_cfg : cfg
(** [default_cfg] with the full commit pipeline on: group commit (batch 4,
    6-step window — small enough that batches close mid-run) and the page
    cleaner (every 12 steps, 2 pages). The durability oracle and every
    other check are identical; the sim suite sweeps both configs. *)

val fault_cfg : cfg
(** [default_cfg] over an adversarial disk ({!Aries_util.Faultdisk.default_cfg}):
    transient EIO on reads/writes/forces, bit-rot on page writes, torn
    page/log images on crash. Exercises bounded retry, CRC detection,
    quarantine + automatic media repair, and the log tail scan. *)

val fault_group_cfg : cfg
(** [group_cfg] over the same adversarial disk: the batched commit pipeline
    must delay — never drop or early-ack — a batch whose force hits
    transient EIO. *)

val fault_eio_cfg : cfg
(** [group_cfg] over {!Aries_util.Faultdisk.eio_only_cfg}: a pure
    transient-EIO storm with no stored-byte corruption, so every run must
    complete with zero data damage. *)

val multistream_cfg : cfg
(** [default_cfg] over a 4-stream WAL with the crash-time per-stream flush
    shuffle armed ({!Aries_util.Faultdisk.shuffle_cfg}): each crash keeps
    deliberately misaligned survivor prefixes across streams, so recovery
    and the oracle must agree on committed-ness via the epoch-fence target
    vectors alone. *)

val multistream_group_cfg : cfg
(** [group_cfg] with the same 4-stream + shuffle setup: the batched
    group-commit pipeline's per-batch epoch fence (rule R8) under
    cross-stream crash-order adversity. *)

val mvcc_cfg : cfg
(** The long-scan-vs-hot-writer mix under {!Aries_btree.Protocol.Mvcc}:
    16-value hot slices rewritten repeatedly (deep version chains), every
    third transaction a full-tree snapshot scan, the version-GC daemon
    reclaiming every 32 steps. Each scan's own slice is checked against
    the fiber's committed view at pin time; rule R9 (no reader key locks,
    no reader lock waits, no CSN above the pin) is enforced online on
    every read. *)

val mvcc_group_cfg : cfg
(** [mvcc_cfg] over the batched group-commit pipeline: versions are
    stamped at the Commit record, {e before} the durability wait, so
    snapshots pinned while committers are parked on the queue must
    already see their updates. *)

val shards_cfg : cfg
(** 3 shards x 3 fibers x 5 txns under the hash router: most 2-key
    transactions cross shards, 2 WAL streams per shard with the flush
    shuffle armed, small pages/pools for SMOs and steals, no daemons. *)

type gtxn_trace = {
  gt_fiber : int;
  gt_gid : int;
  mutable gt_branches : (int * Ids.txn_id) list;
      (** [(shard, local txn id)], first-touch order; the head is the
          coordinator of a multi-branch commit *)
  mutable gt_ops : Oracle.op list;  (** most recent first, updated as ops complete *)
  mutable gt_acked : bool;  (** [Sharddb.commit] returned to the workload *)
  mutable gt_aborted : bool;  (** explicitly aborted, a deadlock victim, or a global abort *)
  mutable gt_fate : bool option;
      (** committed or not, as the stable state read it right after the
          whole-cluster crash that cut the transaction; [None] while no
          crash has *)
}

type trace = gtxn_trace Vec.t
(** Appended in begin order; per-fiber subsequences are in program order. *)

val spawn_fibers :
  ?fiber_base:int -> Aries_shard.Sharddb.t -> cfg -> seed:int -> trace:trace -> unit
(** Spawn the workload fibers (call inside a running scheduler).
    [fiber_base] (default 0) shifts the logical fiber ids — and with them
    the private key slices and RNG streams — so a second workload phase
    (e.g. transactions admitted during instant restart) can run on a
    keyspace disjoint from the first. Fibers record every completed
    operation and every branch in [trace] {e before} attempting commit,
    so a transaction whose commit became durable but whose fiber died
    before the ack still has its ops available to the oracle.

    Once an armed {!Aries_util.Crashpoint} has tripped, fibers treat the
    machine as dead: they stop at the next transaction boundary, and any
    exception they hit mid-operation (the volatile state may have been torn
    by another fiber's cut operation — e.g. an in-place deadlock rollback
    interrupted by the power failure) is converted to the crash exception;
    only the stable state matters from that point on. *)

val trace_to_string : trace -> string list
(** One line per transaction: gid, fiber, branches, outcome, ops. *)
