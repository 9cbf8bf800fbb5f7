(** The crash-sweep engine behind {!Shardsim}.

    The harness contributes one closure, [run : seed:int -> mode -> report]:
    build a fresh simulated machine, run its workload in [mode], check the
    stable state against its committed-state oracle. Everything else lives
    here, defined once: the mode grammar, reports, reproducers, summaries,
    the per-phase scheduler check with its step budget, and the
    record-then-arm sampling loops. A sampling loop first {e records} an
    unarmed run to learn how many durability events
    ({!Aries_util.Crashpoint}) it produces, then re-runs the same seed
    {e armed} at up to [budget] indices spread evenly over them, both
    endpoints included. *)

type mode =
  | Run  (** run to completion and check directly *)
  | Crash of int
      (** power failure at durability event [k], classic restart, check *)
  | Instant of int * int option
      (** [Instant (cut, k2)]: power failure at event [cut], restart
          [~instant:true] and serve a second workload phase mid-recovery.
          [k2 = None]: quiesce and check. [k2 = Some k]: crash again at
          event [k] of the recovery phase; a classic restart must converge *)
  | Kill of int * int option
      (** [Kill (victim, at)]: fail-stop shard [victim] at event [at] while
          the rest of the cluster serves, revive it mid-run, check.
          [at = None] is the recording run (the kill never fires) *)
  | Down of int  (** shard [k] is down for the whole workload *)

val mode_to_string : mode -> string
(** [run], [crash=<k>], [instant=<cut>], [instant=<cut>/<k2>],
    [kill=<victim>@<k|->], [down=<k>]. *)

val mode_of_string : string -> mode
(** Inverse of {!mode_to_string}; raises [Invalid_argument] on anything
    else. *)

type report = {
  rr_events : int;
      (** durability events of the phase the mode arms: the workload phase,
          or for [Instant] the recovery phase *)
  rr_txns : int;  (** transactions traced *)
  rr_acked : int;  (** transactions acknowledged committed *)
  rr_resolved : int;  (** in-doubt branches resolved after restart/revive *)
  rr_failures : string list;  (** empty = run passed all checks *)
  rr_trace : string list;  (** rendered op trace (reproducer detail) *)
  rr_event_dump : string list;
      (** tail of the protocol event ring ({!Aries_trace.Trace}) captured on
          failure; empty when the run passed *)
}

type run = seed:int -> mode -> report
(** One harness run: a pure function of (seed, mode) for a fixed cfg. *)

val fresh_machine : unit -> unit
(** Start a new simulated machine: crash hook and storage faults disarmed,
    event counter, protocol tracer, discipline checker and log ids reset.
    Every run begins here, so its outcome, messages included, depends only
    on (cfg, seed, mode). *)

val phase :
  string list ref ->
  what:string ->
  ?armed_at:int ->
  (int -> Aries_sched.Sched.result) ->
  unit
(** [phase failures ~what ?armed_at f] runs one scheduler phase as
    [f max_steps] and appends what went wrong to [failures], each finding
    prefixed by [what]. Every phase gets the same step budget. A fiber
    exception or a stall is a failure, except that an armed phase
    ([armed_at = Some k]) tolerates the simulated crash and the stalls it
    leaves behind; an exhausted budget is tolerated only once the crash
    has tripped. An armed crash that never tripped is reported as
    "never reached". Reads {!Aries_util.Crashpoint}: call it before
    disarming. *)

val dump_if_failed : string list ref -> string list
(** The protocol event window for a reproducer: the tail of the trace ring
    when [failures] is non-empty, [[]] otherwise. *)

type reproducer = {
  rp_workload : string;  (** the workload label [sim replay] looks up *)
  rp_seed : int;
  rp_mode : mode;
  rp_failures : string list;
  rp_trace : string list;
  rp_event_dump : string list;  (** protocol event window at the failure *)
}

val reproducer_line : reproducer -> string
(** ["SIM-REPRO workload=<label> seed=<s> mode=<m> :: <first failure>"];
    [bench/main.exe -- sim replay <label> <s> <m>] re-runs it. *)

val confirms : reproducer -> report -> bool
(** Does a replay reproduce the original failure set exactly? *)

type summary = {
  sm_runs : int;  (** every run, recordings included *)
  sm_armed : int;  (** runs armed at a sampled index *)
  sm_events : int;  (** durability events enumerated by the unarmed runs *)
  sm_acked : int;
  sm_resolved : int;
  sm_failures : reproducer list;
}

val merge : summary -> summary -> summary

val fatal_failures : summary -> reproducer list
(** Failure triage for storage-fault sweeps: the reproducers whose
    failures are {e not all} typed [Storage_error]s (e.g. transient-EIO
    retry exhaustion, the tolerated fail-loudly outcome under armed
    faults). Oracle mismatches, leaks, discipline violations and bare
    parser exceptions are always fatal. *)

(** {1 Sweeps}

    [workload] labels every reproducer; [progress] receives one line per
    recording and per failure. *)

val runs :
  ?progress:(string -> unit) -> workload:string -> run -> (int * mode) list -> summary
(** Plain checked runs of (seed, mode) pairs, none of them armed. *)

val sample :
  ?progress:(string -> unit) ->
  workload:string ->
  run ->
  seed:int ->
  record:mode ->
  budget:int ->
  (int -> mode) ->
  summary
(** Record [record], then run [arm k] at up to [budget] sampled event
    indices [k]. *)

val crash_sweep :
  ?progress:(string -> unit) -> workload:string -> run -> seed:int -> budget:int -> summary
(** [sample ~record:Run] arming [Crash k]. *)

val instant_sweep :
  ?progress:(string -> unit) -> workload:string -> run -> seed:int -> budget:int -> summary
(** Recovery during recovery, sampled at two levels: record [Run] and
    sample [budget/4] cuts; at each cut record [Instant (cut, None)] and
    spend the rest of the budget on [Instant (cut, Some k2)] second
    crashes inside the recovery phase (mid-drain, mid-on-demand-redo,
    mid-preemption). At most [budget] runs are armed. *)

val kill_sweep :
  ?progress:(string -> unit) ->
  workload:string ->
  run ->
  victims:int ->
  seed:int ->
  budget:int ->
  summary
(** For each shard in [0..victims-1] — coordinators and participants
    alike — record [Kill (v, None)], then kill [v] at up to
    [budget/victims] strictly interior events (a kill at the last event
    races the killer against shutdown and equals a post-run check). *)

val sweep :
  ?progress:(string -> unit) ->
  workload:string ->
  run ->
  seeds:int list ->
  crash_seeds:int list ->
  crash_budget:int ->
  summary
(** Plain runs over [seeds], then a crash sweep per crash seed. *)
