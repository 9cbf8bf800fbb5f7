(** Deterministic cooperative fiber scheduler.

    The paper's protocols are defined in terms of interleavings of latch,
    lock and log events between concurrently executing transactions. This
    scheduler runs each transaction (or workload driver) as a {e fiber} — a
    delimited continuation that suspends at latch/lock waits and explicit
    yield points — and interleaves fibers under an explicit, reproducible
    policy. Adversarial schedules from the paper (Figures 3 and 11) are
    scripted by choosing yield points; randomized stress tests derive every
    scheduling choice from a seed.

    All fibers run on a single OS thread; there is no parallelism, only
    concurrency, which is exactly what the correctness arguments quantify
    over. *)

type fiber_id = int

exception Killed of string
(** Raised inside a fiber that is aborted while suspended (e.g. a deadlock
    victim being woken with an error). *)

(** {1 Wakers} *)

(** A suspended fiber's resumption capability. Exactly one of [wake] or
    [abort] takes effect; later calls are ignored. *)
type waker

val wake : waker -> unit
(** Schedule the suspended fiber to resume normally. *)

val abort : waker -> exn -> unit
(** Schedule the suspended fiber to resume by raising [exn] at its
    suspension point. *)

val waker_fiber : waker -> fiber_id

(** {1 Fiber operations} (valid only inside a running scheduler) *)

val spawn : ?name:string -> (unit -> unit) -> fiber_id

(** {1 Daemon fibers}

    A {e daemon} is a scheduler-resident service fiber (the group-commit
    force daemon, the background page cleaner) whose lifetime is bounded by
    the {e user} fibers of the run: the scheduler never counts daemons when
    deciding whether work remains, and the moment the last non-daemon fiber
    finishes it flips the shutdown flag and invokes every daemon's
    registered [on_shutdown] callback (typically a condvar broadcast) so
    sleeping daemons wake, drain any pending work, and exit. A well-behaved
    daemon loop therefore checks {!shutting_down} after every wait/yield
    and returns once it is set; a daemon that keeps sleeping after shutdown
    stalls the run and is reported in {!outcome} as such. *)

val spawn_daemon :
  ?name:string -> ?on_shutdown:(unit -> unit) -> (unit -> unit) -> fiber_id
(** Spawn a fiber that does not keep the scheduler alive. [on_shutdown]
    is called (once, from the scheduler loop) when the run begins winding
    down; use it to wake the daemon out of its wait so it can observe
    {!shutting_down} and drain. *)

val shutting_down : unit -> bool
(** True once every non-daemon fiber has finished (or [run] decided to wind
    down): daemons must drain and exit. Raises outside a scheduler. *)

val daemons_now : unit -> int
(** Number of live daemon fibers — diagnostic; tests assert it returns to 0
    after a drain/join. Raises outside a scheduler. *)

val run_id : unit -> int
(** Identifier of the current scheduler incarnation (strictly increasing
    across [run] calls in the process). Services that cache wakers or
    daemon liveness across runs compare run ids to detect that state
    belonging to a dead scheduler must be discarded rather than woken.
    Raises outside a scheduler. *)

val yield : unit -> unit
(** Suspend and reschedule at the back of the run queue. *)

val periodic : every:int -> stop:(unit -> bool) -> (unit -> unit) -> unit
(** [periodic ~every ~stop round] is the body of a trickle daemon: yield
    until [every] scheduler steps have passed, run [round ()], and
    repeat. Returns as soon as [stop ()] is true, the scheduler is
    {!shutting_down}, or a simulated crash has tripped — checked before
    every yield and before each round. *)

val suspend : (waker -> unit) -> unit
(** [suspend register] captures the current fiber's continuation as a waker,
    hands it to [register] (which typically enqueues it on some wait queue),
    and returns control to the scheduler. The call returns when another
    fiber (or the registrar itself) calls [wake], or raises when [abort] is
    called. *)

val current : unit -> fiber_id
(** Id of the running fiber. Raises if called outside the scheduler. *)

val current_name : unit -> string

val in_fiber : unit -> bool

val steps_now : unit -> int
(** Fiber slices executed so far by the running scheduler. The simulation
    harness stamps each workload operation with this value so a failing
    run's op trace pins events to scheduling steps. Raises if no scheduler
    is running. *)

val suspended_now : unit -> (fiber_id * string) list
(** The currently suspended fibers (id, name), sorted — diagnostic detail
    for stall reports. Raises if no scheduler is running. *)

val maybe_yield : unit -> unit
(** Preemption point: yields with the probability configured by
    [~yield_probability] on {!run}. Instrumented code (log appends, page
    modifications) calls this so that randomized schedules cut executions at
    interesting places. No-op outside a fiber. *)

(** {1 Running} *)

type outcome =
  | Completed  (** all fibers ran to completion *)
  | Stalled of fiber_id list
      (** no runnable fiber but these are still suspended — a lost wakeup or
          an undetected deadlock; always a bug in the caller or this library *)
  | Interrupted of int
      (** the step budget was exhausted; payload is the number of fibers
          still live. Used to simulate a system crash at a scheduling
          boundary. *)

type result = {
  outcome : outcome;
  steps : int;  (** fiber slices executed *)
  exns : (fiber_id * string * exn) list;
      (** exceptions that escaped fiber bodies (fiber id, name, exn) *)
}

type policy =
  | Fifo  (** round-robin; fully deterministic given the program *)
  | Random of int  (** pick the next runnable fiber with a seeded RNG *)

val run :
  ?policy:policy ->
  ?max_steps:int ->
  ?yield_probability:float ->
  (unit -> unit) ->
  result
(** [run main] spawns [main] as the first fiber and schedules until no fiber
    is live (or the step budget is exhausted). Not reentrant. *)

val run_value : ?policy:policy -> (unit -> 'a) -> 'a
(** Convenience: run a single computation to completion inside the scheduler
    and return its value. Raises the fiber's exception if it fails, and
    [Failure] on stall. *)

(** {1 Condition variables} *)

module Condvar : sig
  type t

  val create : string -> t

  val wait : t -> unit
  (** Suspend until signalled. As usual, re-check the predicate on wakeup. *)

  val signal : t -> unit
  (** Wake one waiter (no-op if none). *)

  val broadcast : t -> unit

  val waiters : t -> int
end
