(** The sharded simulation harness: {!Sim}'s deterministic rig over an
    {!Aries_shard.Sharddb} cluster with presumed-abort 2PC. Sweeps,
    reproducers and summaries come from {!Sweep}.

    Every run is a pure function of (seed, cfg, mode). The workload drives
    global transactions whose keys hash across shards — single-branch
    transactions commit locally, multi-branch ones run 2PC — and every
    check reads only the {e stable} state: a single-branch transaction is
    committed iff its fence-validated Commit record survives on its shard;
    a multi-branch one iff a durable Coord_commit for its gid survives on
    the {e coordinator} (presumed abort: absence is the abort). Rule R10 is
    what makes the second test sound, and the online discipline checker
    enforces it during every run.

    Modes: [Run]; [Crash k], a whole-cluster crash (every shard cut at the
    same durability event, per-stream flush shuffle deciding each shard's
    surviving log tails independently); [Instant (cut, None)], which
    restarts every shard [~instant] and serves a second workload phase
    while in-doubt branches are restored and resolved mid-recovery;
    [Kill (victim, at)], a targeted per-shard fail-stop with mid-run
    revival; and [Down k], a whole workload with shard [k] down
    (healthy-shard progress is asserted). [Instant (_, Some _)] raises
    [Invalid_argument]. *)

type cfg = {
  shards : int;
  fibers : int;
  txns_per_fiber : int;
  max_ops_per_txn : int;
  keys_per_fiber : int;
  fetch_freq : int;
  rollback_freq : int;
  yield_probability : float;
  steal_probability : float;
  page_size : int;
  pool_capacity : int;
  segment_size : int;
  streams : int;  (** WAL streams per shard *)
  shuffle : bool;  (** arm the crash-time per-stream flush shuffle *)
}

val default_cfg : cfg
(** 3 shards x 3 fibers x 5 txns under the hash router: most 2-key
    transactions cross shards, 2 WAL streams per shard with the flush
    shuffle armed, small pages/pools for SMOs and steals. *)

val run : cfg -> Sweep.run

val sweep :
  ?progress:(string -> unit) ->
  workload:string ->
  cfg ->
  seeds:int list ->
  crash_seeds:int list ->
  crash_budget:int ->
  Sweep.summary
(** The full sharded rig behind [sim smoke --shards]: {!Sweep.sweep}, then
    a {!Sweep.kill_sweep} per crash seed, then the first seed with each
    shard down in turn. *)

val instant_sweep :
  ?progress:(string -> unit) -> workload:string -> cfg -> seed:int -> budget:int -> Sweep.summary
(** Instant-restart the whole cluster at up to [budget] sampled cut
    points. *)
