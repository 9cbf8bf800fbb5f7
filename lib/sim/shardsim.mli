(** The deterministic simulation harness: the randomized {!Workload} over
    an {!Aries_shard.Sharddb} cluster, checked against the committed-state
    {!Oracle}. At [shards = 1] it is the single-Db harness (every
    transaction commits locally, no 2PC record is written); at
    [shards > 1] multi-branch transactions run presumed-abort 2PC.
    Sweeps, reproducers and summaries come from {!Sweep}.

    Every run is a pure function of (cfg, seed, mode), executes with the
    online discipline checker armed, and every check reads only the
    {e stable} state: a single-branch transaction is committed iff its
    fence-validated Commit record survives on its shard; a multi-branch
    one iff a durable Coord_commit for its gid survives on the
    {e coordinator} (presumed abort: absence is the abort). Rule R10 is
    what makes the second test sound. Acked transactions must be
    committed (durability), aborted ones must not (atomicity), each
    shard's tree must be invariant-clean and equal the committed ops
    routed to it, and nothing may leak.

    Modes:

    - [Run]: the workload runs to completion and must not stall or raise.
    - [Crash k]: a whole-cluster power failure at the [k]-th durability
      event (every shard cut at the same event, an armed flush shuffle
      deciding each shard's surviving log tails independently); classic
      restart + in-doubt resolution must recover {e exactly} the
      oracle's committed state.
    - [Instant (cut, k2)]: recovery during recovery. Cut the workload at
      event [cut], restart every shard [~instant:true], and run a second
      workload phase on disjoint key slices ({!Workload.spawn_fibers}'s
      [fiber_base]) against the background drain while in-doubt branches
      resolve. Without [k2] the run quiesces and is checked
      ([post-instant]); with [Some k2] the cluster dies again at event
      [k2] of the recovery phase — possibly mid-drain or mid-resolution —
      and a classic restart must converge ([post-restart2]).
    - [Kill (victim, at)]: a targeted per-shard fail-stop with mid-run
      revival; needs daemon-less shards ({!Aries_shard.Sharddb.kill}).
    - [Down k]: a whole workload with shard [k] down (healthy-shard
      progress is asserted). *)

val run : Workload.cfg -> Sweep.run

val sweep :
  ?progress:(string -> unit) ->
  workload:string ->
  Workload.cfg ->
  seeds:int list ->
  crash_seeds:int list ->
  crash_budget:int ->
  Sweep.summary
(** {!Sweep.sweep}; on a cluster ([shards > 1]) then a {!Sweep.kill_sweep}
    per crash seed, then the first seed with each shard down in turn. *)
