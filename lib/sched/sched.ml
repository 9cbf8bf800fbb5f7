open Effect
open Effect.Deep
module Vec = Aries_util.Vec
module Rng = Aries_util.Rng
module Stats = Aries_util.Stats
module Trace = Aries_trace.Trace

let c_fiber_spawns = Stats.counter Stats.fiber_spawns
let c_daemon_spawns = Stats.counter Stats.daemon_spawns
let c_fiber_yields = Stats.counter Stats.fiber_yields

type fiber_id = int

exception Killed of string

type waker_state =
  | Pending of (unit, unit) continuation
  | Spent

type waker = {
  w_fiber : fiber_id;
  w_name : string;
  mutable w_state : waker_state;
}

type _ Effect.t += Suspend : (waker -> unit) -> unit Effect.t

type entry = {
  e_fiber : fiber_id;
  e_name : string;
  e_task : unit -> unit;
}

type sched = {
  sched_run_id : int;  (* distinguishes scheduler incarnations *)
  runq : entry Vec.t;
  mutable live : int;  (* fibers spawned and not yet finished *)
  mutable live_daemons : int;  (* subset of [live] marked as daemons *)
  mutable steps : int;
  mutable next_id : int;
  mutable cur : fiber_id;
  mutable cur_name : string;
  mutable exns : (fiber_id * string * exn) list;
  suspended : (fiber_id, string) Hashtbl.t;
  daemon_ids : (fiber_id, unit) Hashtbl.t;
  mutable shutting_down : bool;
      (* set once every non-daemon fiber has finished; daemons observe it
         via [shutting_down] and drain *)
  on_shutdown : (unit -> unit) Vec.t;
      (* wake callbacks registered by [spawn_daemon]: a sleeping daemon
         must be nudged when shutdown begins or it would stall the run *)
  policy_rng : Rng.t option;
  yield_rng : Rng.t;
  yield_probability : float;
}

let active : sched option ref = ref None

let the_sched () =
  match !active with
  | Some s -> s
  | None -> invalid_arg "Sched: no scheduler is running"

let in_fiber () = !active <> None

let current () = (the_sched ()).cur

let current_name () = (the_sched ()).cur_name

let steps_now () = (the_sched ()).steps

let suspended_now () =
  let s = the_sched () in
  Hashtbl.fold (fun id name acc -> (id, name) :: acc) s.suspended [] |> List.sort compare

let run_counter = ref 0

let run_id () = (the_sched ()).sched_run_id

let waker_fiber w = w.w_fiber

let enqueue s e = Vec.push s.runq e

let wake w =
  match w.w_state with
  | Spent -> ()
  | Pending k ->
      w.w_state <- Spent;
      let s = the_sched () in
      Hashtbl.remove s.suspended w.w_fiber;
      enqueue s { e_fiber = w.w_fiber; e_name = w.w_name; e_task = (fun () -> continue k ()) }

let abort w e =
  match w.w_state with
  | Spent -> ()
  | Pending k ->
      w.w_state <- Spent;
      let s = the_sched () in
      Hashtbl.remove s.suspended w.w_fiber;
      enqueue s { e_fiber = w.w_fiber; e_name = w.w_name; e_task = (fun () -> discontinue k e) }

let fiber_done s id name =
  s.live <- s.live - 1;
  if Hashtbl.mem s.daemon_ids id then begin
    Hashtbl.remove s.daemon_ids id;
    s.live_daemons <- s.live_daemons - 1;
    if Trace.enabled () then Trace.emit (Trace.Daemon_exit { name })
  end

(* Runs [body] as a sequence of fiber slices: the handler turns each Suspend
   into a return to the scheduler loop, capturing the continuation. *)
let fiber_task s id name body () =
  let fiber_handler =
    {
      retc = (fun () -> fiber_done s id name);
      exnc =
        (fun e ->
          fiber_done s id name;
          s.exns <- (id, name, e) :: s.exns);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let w = { w_fiber = id; w_name = name; w_state = Pending k } in
                  Hashtbl.replace s.suspended id name;
                  (* [register] may wake the waker immediately (e.g. yield);
                     that just re-enqueues the continuation. *)
                  register w)
          | _ -> None);
    }
  in
  match_with body () fiber_handler

let spawn ?name body =
  let s = the_sched () in
  let id = s.next_id in
  s.next_id <- id + 1;
  let name = match name with Some n -> n | None -> Printf.sprintf "fiber-%d" id in
  s.live <- s.live + 1;
  Stats.incr c_fiber_spawns;
  enqueue s { e_fiber = id; e_name = name; e_task = fiber_task s id name body };
  id

let spawn_daemon ?name ?on_shutdown body =
  let s = the_sched () in
  let id = spawn ?name body in
  Hashtbl.replace s.daemon_ids id ();
  s.live_daemons <- s.live_daemons + 1;
  Stats.incr c_daemon_spawns;
  (if Trace.enabled () then
     let name = match name with Some n -> n | None -> Printf.sprintf "fiber-%d" id in
     Trace.emit (Trace.Daemon_spawn { name }));
  (match on_shutdown with Some f -> Vec.push s.on_shutdown f | None -> ());
  id

let shutting_down () = (the_sched ()).shutting_down

let daemons_now () = (the_sched ()).live_daemons

let suspend register = perform (Suspend register)

let yield () =
  Stats.incr c_fiber_yields;
  suspend wake

let periodic ~every ~stop round =
  (* die-on-crash: once a simulated power failure has tripped, the machine
     is dead — exit instead of busy-yielding against permanently-suspended
     fibers (which would keep the run queue nonempty forever). *)
  let stopping () = stop () || shutting_down () || Aries_util.Crashpoint.tripped () in
  let rec loop () =
    if not (stopping ()) then begin
      (* sleep [every] scheduler steps (cut short by shutdown) *)
      let t0 = steps_now () in
      while (not (stopping ())) && steps_now () - t0 < every do
        yield ()
      done;
      if not (stopping ()) then begin
        round ();
        loop ()
      end
    end
  in
  loop ()

let maybe_yield () =
  match !active with
  | None -> ()
  | Some s ->
      if s.yield_probability > 0.0 && Rng.float s.yield_rng 1.0 < s.yield_probability then
        yield ()

type outcome = Completed | Stalled of fiber_id list | Interrupted of int

type result = {
  outcome : outcome;
  steps : int;
  exns : (fiber_id * string * exn) list;
}

type policy = Fifo | Random of int

let run ?(policy = Fifo) ?max_steps ?(yield_probability = 0.0) main =
  if !active <> None then invalid_arg "Sched.run: already running";
  let policy_rng = match policy with Fifo -> None | Random seed -> Some (Rng.create seed) in
  incr run_counter;
  let s =
    {
      sched_run_id = !run_counter;
      runq = Vec.create ();
      live = 0;
      live_daemons = 0;
      steps = 0;
      next_id = 1;
      cur = 0;
      cur_name = "";
      exns = [];
      suspended = Hashtbl.create 16;
      daemon_ids = Hashtbl.create 4;
      shutting_down = false;
      on_shutdown = Vec.create ();
      policy_rng;
      yield_rng = Rng.create (match policy with Fifo -> 0 | Random seed -> seed + 0x5eed);
      yield_probability;
    }
  in
  active := Some s;
  Trace.run_start s.sched_run_id;
  let finish outcome =
    active := None;
    { outcome; steps = s.steps; exns = List.rev s.exns }
  in
  try
    ignore (spawn ~name:"main" main);
    let budget = match max_steps with Some n -> n | None -> max_int in
    let rec loop () =
      (* Daemon drain: once every non-daemon fiber has finished, tell the
         daemons to wind down (flush pending work, exit). Sleeping daemons
         are nudged through their registered wake callbacks; busy daemons
         observe [shutting_down] at their next loop turn. *)
      if (not s.shutting_down) && s.live - s.live_daemons = 0 && s.live_daemons > 0 then begin
        s.shutting_down <- true;
        Vec.iter (fun f -> f ()) s.on_shutdown
      end;
      if Vec.is_empty s.runq then
        if s.live = 0 then finish Completed
        else
          let blocked = Hashtbl.fold (fun id _ acc -> id :: acc) s.suspended [] in
          finish (Stalled (List.sort compare blocked))
      else if s.steps >= budget then finish (Interrupted s.live)
      else begin
        let idx =
          match s.policy_rng with
          | None -> 0
          | Some rng -> Rng.int rng (Vec.length s.runq)
        in
        let e = Vec.remove s.runq idx in
        s.steps <- s.steps + 1;
        s.cur <- e.e_fiber;
        s.cur_name <- e.e_name;
        e.e_task ();
        loop ()
      end
    in
    loop ()
  with e ->
    active := None;
    raise e

let run_value ?policy f =
  let result = ref None in
  let r = run ?policy (fun () -> result := Some (f ())) in
  (match r.exns with
  | (_, _, e) :: _ -> raise e
  | [] -> ());
  match (r.outcome, !result) with
  | Completed, Some v -> v
  | Completed, None -> failwith "Sched.run_value: fiber completed without value"
  | Stalled ids, _ ->
      failwith
        (Printf.sprintf "Sched.run_value: stalled with %d suspended fibers" (List.length ids))
  | Interrupted _, _ -> failwith "Sched.run_value: interrupted"

module Condvar = struct
  type t = { queue : waker Vec.t }

  let create _name = { queue = Vec.create () }

  let wait t = suspend (fun w -> Vec.push t.queue w)

  (* Spent wakers can linger in the queue (a waiter aborted elsewhere);
     skip them when signalling. *)
  let rec signal t =
    if not (Vec.is_empty t.queue) then begin
      let w = Vec.remove t.queue 0 in
      match w.w_state with Spent -> signal t | Pending _ -> wake w
    end

  let broadcast t =
    while not (Vec.is_empty t.queue) do
      let w = Vec.remove t.queue 0 in
      match w.w_state with Spent -> () | Pending _ -> wake w
    done

  let waiters t =
    Vec.fold (fun acc w -> match w.w_state with Pending _ -> acc + 1 | Spent -> acc) 0 t.queue
end

(* Wire the tracer to this scheduler and install the online discipline
   checker. Module-initialization side effect: every program linking the
   scheduler (i.e. everything that runs fibers) gets the checker for free
   in [Check] mode — including the whole test suite under [dune runtest]. *)
let () =
  Trace.set_context
    ~fiber:(fun () -> match !active with Some s -> s.cur | None -> -1)
    ~steps:(fun () -> match !active with Some s -> s.steps | None -> -1);
  Aries_trace.Discipline.install ()
