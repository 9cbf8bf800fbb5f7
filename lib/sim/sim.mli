(** The deterministic simulation harness: seed-sweep schedule exploration
    and exhaustive crash-point injection against the committed-state oracle.

    Two modes, both pure functions of [(seed, cfg)]:

    - {b Seed sweep} ({!run_one} with no crash index): run the randomized
      multi-fiber workload under [Sched.Random seed]; the run must complete
      (no stall), raise nothing, leave the tree invariant-clean, match the
      oracle, and leave no leaked latch, fix, lock or transaction.

    - {b Crash sweep} ({!crash_sweep}): a first {e recording} run learns the
      total number of durability events [N] (log appends, log forces, page
      writes — see {!Aries_util.Crashpoint}); then, for each sampled index
      [k <= N], the same seed is re-run with the hook armed so the [k]-th
      event raises a simulated power failure, after which [Db.crash] +
      classic [Db.restart] (the restart engine drained to completion) must
      recover {e exactly} the oracle's committed state.

    Every failure carries a reproducer — the (seed, crash index) pair plus
    the op trace — and {!replay} re-runs it deterministically. *)

type run_report = {
  rr_events : int;  (** durability events during the workload phase *)
  rr_txns : int;  (** transactions traced *)
  rr_crash_at : int option;
  rr_instant_cut : int option;
      (** {!run_one_instant} runs only: the phase-1 durability event the
          first crash was armed at ([rr_crash_at] and [rr_events] then
          describe the recovery phase); [None] for {!run_one} runs *)
  rr_failures : string list;  (** empty = run passed all checks *)
  rr_trace : string list;  (** rendered op trace (reproducer detail) *)
  rr_event_dump : string list;
      (** tail of the protocol event ring ({!Aries_trace.Trace}) captured on
          failure — the latch/lock/log interleaving leading up to it; empty
          when the run passed *)
}

val run_one : ?crash_at:int -> Workload.cfg -> seed:int -> run_report
(** One full simulation run. With [crash_at], the workload is cut at that
    durability event, then crash + restart + oracle check; without, the
    workload runs to completion and is checked directly. *)

val run_one_instant : ?crash_at2:int -> Workload.cfg -> seed:int -> crash_at:int -> run_report
(** Recovery-during-recovery: cut the workload at durability event
    [crash_at], crash, restart with [Db.restart ~instant:true], and run a
    {e second} workload phase (disjoint key slices, see
    {!Workload.spawn_fibers}'s [fiber_base]) concurrently with the
    background drain, on-demand page redo and lock-driven loser
    preemption. Without [crash_at2] the run quiesces and is checked
    against the two-phase oracle ([post-instant]). With [crash_at2] the
    machine dies {e again} at that durability event of the recovery
    phase — possibly mid-drain or mid-replay — and a classic restart must
    converge ([post-restart2]). [rr_events] counts the recovery phase's
    durability events, so [crash_at2] can be swept like [crash_at]. *)

type reproducer = {
  rp_seed : int;
  rp_crash_at : int option;
  rp_instant_cut : int option;
      (** [Some k]: an instant-restart reproducer — phase 1 was cut at
          event [k], and [rp_crash_at] indexes the recovery phase *)
  rp_failures : string list;
  rp_trace : string list;
  rp_event_dump : string list;  (** protocol event window at the failure *)
}

val reproducer_line : reproducer -> string
(** The one-line form printed on failure:
    ["SIM-REPRO seed=<s> crash_at=<k|-> :: <first failure>"]. Feed the seed
    and crash index back to [bench/main.exe -- sim replay <s> <k|->] (or
    {!replay}) to re-run that exact execution. *)

val replay : Workload.cfg -> reproducer -> run_report
(** Re-run a reproducer's (seed, crash index) deterministically. *)

val confirms : reproducer -> run_report -> bool
(** Does the replay reproduce the original failure set exactly? *)

type summary = {
  sm_seed_runs : int;
  sm_crash_points : int;  (** armed crash-point runs performed *)
  sm_events : int;  (** durability events enumerated across recording runs *)
  sm_failures : reproducer list;
}

val typed_storage_failure : reproducer -> bool
(** Failure triage for fault sweeps: true iff {e every} recorded failure of
    this reproducer is a typed [Storage_error] (e.g. transient-EIO retry
    exhaustion) — the tolerated fail-loudly outcome under an armed
    {!Workload.cfg.faults}. Oracle mismatches, leaks, discipline
    violations and bare parser exceptions are never tolerated. *)

val fatal_failures : summary -> reproducer list
(** The reproducers that are {e not} tolerated typed storage failures. *)

val seed_sweep : ?progress:(string -> unit) -> Workload.cfg -> seeds:int list -> summary

val crash_sweep :
  ?progress:(string -> unit) -> Workload.cfg -> seed:int -> budget:int -> summary
(** Record once, then re-run with the crash armed at up to [budget] indices
    sampled evenly across [1..N] ([budget >= N] means every event). *)

val instant_sweep :
  ?progress:(string -> unit) -> Workload.cfg -> seed:int -> budget:int -> summary
(** The recovery-during-recovery sweep: sample [budget/4] phase-1 cut
    points; at each, record an instant-restart run (checked at quiesce),
    then arm second crashes at sampled durability events {e inside} the
    recovery phase — mid-drain, mid-on-demand-redo, mid-preemption — each
    of which must classic-restart back to the two-phase oracle. The
    budget bounds total armed {!run_one_instant} runs. *)

val sweep :
  ?progress:(string -> unit) ->
  Workload.cfg ->
  seeds:int list ->
  crash_seeds:int list ->
  crash_budget:int ->
  summary
(** The full rig: seed sweep over [seeds], then a crash sweep (budgeted per
    seed) over [crash_seeds]. Summaries are merged. *)
