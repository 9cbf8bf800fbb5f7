(** The deterministic simulation harness over one Db: the randomized
    multi-fiber {!Workload} checked against the committed-state {!Oracle}.
    Sweeps, reproducers and summaries come from {!Sweep}; this module is
    the [run] closure the engine samples.

    Every run is a pure function of (cfg, seed, mode) and executes with the
    online discipline checker armed:

    - [Run]: the workload runs to completion and must not stall or raise,
      must leave the tree invariant-clean, match the oracle, and leak no
      latch, fix, lock or transaction.
    - [Crash k]: the [k]-th durability event raises a simulated power
      failure; [Db.crash] + classic [Db.restart] must recover {e exactly}
      the oracle's committed state.
    - [Instant (cut, k2)]: recovery during recovery. Cut the workload at
      event [cut], restart with [Db.restart ~instant:true], and run a
      second workload phase on disjoint key slices ({!Workload.spawn_fibers}'s
      [fiber_base]) against the background drain. Without [k2] the run
      quiesces and is checked against the two-phase oracle
      ([post-instant]); with [Some k2] the machine dies again at event [k2]
      of the recovery phase — possibly mid-drain or mid-replay — and a
      classic restart must converge ([post-restart2]).

    [Kill] and [Down] need a cluster ({!Shardsim}) and raise
    [Invalid_argument]. *)

val run : Workload.cfg -> Sweep.run
