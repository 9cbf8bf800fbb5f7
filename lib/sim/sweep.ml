open Aries_util
module Sched = Aries_sched.Sched
module Trace = Aries_trace.Trace

type mode =
  | Run
  | Crash of int
  | Instant of int * int option
  | Kill of int * int option
  | Down of int

let mode_to_string = function
  | Run -> "run"
  | Crash k -> Printf.sprintf "crash=%d" k
  | Instant (cut, None) -> Printf.sprintf "instant=%d" cut
  | Instant (cut, Some k2) -> Printf.sprintf "instant=%d/%d" cut k2
  | Kill (victim, None) -> Printf.sprintf "kill=%d@-" victim
  | Kill (victim, Some k) -> Printf.sprintf "kill=%d@%d" victim k
  | Down k -> Printf.sprintf "down=%d" k

let mode_of_string s =
  let bad () = invalid_arg (Printf.sprintf "Sweep.mode_of_string: %S" s) in
  let int v = match int_of_string_opt v with Some k -> k | None -> bad () in
  match String.split_on_char '=' s with
  | [ "run" ] -> Run
  | [ "crash"; k ] -> Crash (int k)
  | [ "instant"; v ] -> (
      match String.split_on_char '/' v with
      | [ cut ] -> Instant (int cut, None)
      | [ cut; k2 ] -> Instant (int cut, Some (int k2))
      | _ -> bad ())
  | [ "kill"; v ] -> (
      match String.split_on_char '@' v with
      | [ victim; "-" ] -> Kill (int victim, None)
      | [ victim; k ] -> Kill (int victim, Some (int k))
      | _ -> bad ())
  | [ "down"; k ] -> Down (int k)
  | _ -> bad ()

type report = {
  rr_events : int;
  rr_txns : int;
  rr_acked : int;
  rr_resolved : int;
  rr_failures : string list;
  rr_trace : string list;
  rr_event_dump : string list;
}

type run = seed:int -> mode -> report

let fresh_machine () =
  Crashpoint.disarm ();
  Faultdisk.disarm ();
  Crashpoint.reset ();
  Trace.reset ();
  Aries_trace.Discipline.reset ();
  Aries_wal.Logmgr.reset_ids ()

(* Every phase of every run gets this many scheduler steps. Without a
   bound a phase can spin forever instead of failing: once a fiber dies
   (a discipline violation, a simulated crash) a peer may stay suspended
   on its locks while the service daemons keep yielding, so the scheduler
   never reports the stall. The largest clean phase of the smoke matrix
   takes a few hundred steps, so the budget only ever ends runs that
   would not have ended. *)
let max_steps = 100_000

let phase failures ~what ?armed_at f =
  let fail fmt = Printf.ksprintf (fun s -> failures := (what ^ ": " ^ s) :: !failures) fmt in
  let r = f max_steps in
  let armed = armed_at <> None and tripped = Crashpoint.tripped () in
  List.iter
    (fun (_, name, e) ->
      match e with
      | Crashpoint.Crash _ when armed -> ()
      | e ->
          fail "fiber %s raised %s%s" name (Printexc.to_string e)
            (if armed then " (not the simulated crash)" else ""))
    r.Sched.exns;
  (match r.Sched.outcome with
  | Sched.Completed -> ()
  | Sched.Stalled _ when armed -> ()
  | Sched.Stalled ids -> fail "stalled with %d suspended fiber(s)" (List.length ids)
  | Sched.Interrupted _ when armed && tripped -> ()
  | Sched.Interrupted live -> fail "step budget exhausted with %d live fiber(s)" live);
  match armed_at with
  | Some k when not tripped ->
      fail "crash index %d never reached (phase produced %d events)" k (Crashpoint.count ())
  | _ -> ()

(* How much of the protocol event window a failing run carries in its
   reproducer. The ring retains more; this is what lands in the artifact. *)
let dump_window = 120

let dump_if_failed failures = if !failures = [] then [] else Trace.dump_last dump_window

type reproducer = {
  rp_workload : string;
  rp_seed : int;
  rp_mode : mode;
  rp_failures : string list;
  rp_trace : string list;
  rp_event_dump : string list;
}

let reproducer_line r =
  Printf.sprintf "SIM-REPRO workload=%s seed=%d mode=%s :: %s" r.rp_workload r.rp_seed
    (mode_to_string r.rp_mode)
    (match r.rp_failures with [] -> "(no failure recorded)" | f :: _ -> f)

let confirms r (rep : report) =
  rep.rr_failures <> [] && List.equal String.equal r.rp_failures rep.rr_failures

type summary = {
  sm_runs : int;
  sm_armed : int;
  sm_events : int;
  sm_acked : int;
  sm_resolved : int;
  sm_failures : reproducer list;
}

let empty =
  { sm_runs = 0; sm_armed = 0; sm_events = 0; sm_acked = 0; sm_resolved = 0; sm_failures = [] }

let merge a b =
  {
    sm_runs = a.sm_runs + b.sm_runs;
    sm_armed = a.sm_armed + b.sm_armed;
    sm_events = a.sm_events + b.sm_events;
    sm_acked = a.sm_acked + b.sm_acked;
    sm_resolved = a.sm_resolved + b.sm_resolved;
    sm_failures = a.sm_failures @ b.sm_failures;
  }

(* Under an armed storage-fault cfg a run may legitimately end in a typed
   storage failure: the bar is "recover to the oracle, or fail loudly with
   a typed [Storage_error] and a reproducer". *)
let typed_storage_failure r =
  let contains s =
    let sub = "Storage_error(" in
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  r.rp_failures <> [] && List.for_all contains r.rp_failures

let fatal_failures s = List.filter (fun r -> not (typed_storage_failure r)) s.sm_failures

(* Evenly spaced sample of [budget] indices over [1..total], both
   endpoints included; every index when the budget covers them all. *)
let sample_indices ~total ~budget =
  if total <= 0 || budget <= 0 then []
  else if budget >= total then List.init total (fun i -> i + 1)
  else if budget = 1 then [ total ]
  else
    List.init budget (fun i -> 1 + (i * (total - 1) / (budget - 1)))
    |> List.sort_uniq compare

(* Fold one run into the summary. Only unarmed runs enumerate events: an
   armed run's count stops at its crash. *)
let note ~progress ~workload ~seed ~armed mode acc (r : report) =
  let acc =
    {
      acc with
      sm_runs = acc.sm_runs + 1;
      sm_armed = (acc.sm_armed + if armed then 1 else 0);
      sm_events = (acc.sm_events + if armed then 0 else r.rr_events);
      sm_acked = acc.sm_acked + r.rr_acked;
      sm_resolved = acc.sm_resolved + r.rr_resolved;
    }
  in
  if r.rr_failures = [] then acc
  else begin
    let rp =
      {
        rp_workload = workload;
        rp_seed = seed;
        rp_mode = mode;
        rp_failures = r.rr_failures;
        rp_trace = r.rr_trace;
        rp_event_dump = r.rr_event_dump;
      }
    in
    progress (reproducer_line rp);
    { acc with sm_failures = acc.sm_failures @ [ rp ] }
  end

let armed_run ~progress ~workload run ~seed mode acc =
  note ~progress ~workload ~seed ~armed:true mode acc (run ~seed mode)

(* The record-then-arm loop behind every sweep: record [record] into
   [acc]; if it passed, fold [arm n] over the [n] event indices sampled
   from it. *)
let record_then_arm ~progress ~workload run ~seed ~record ~budget ?(interior = false) arm acc =
  let r = run ~seed record in
  let acc = note ~progress ~workload ~seed ~armed:false record acc r in
  if r.rr_failures <> [] then acc
  else begin
    let total = if interior then r.rr_events - 1 else r.rr_events in
    let ks = sample_indices ~total ~budget in
    let n = List.length ks in
    progress
      (Printf.sprintf "seed %d: %s produced %d durability events, arming %d" seed
         (mode_to_string record) r.rr_events n);
    List.fold_left (arm n) acc ks
  end

let runs ?(progress = ignore) ~workload run pairs =
  List.fold_left
    (fun acc (seed, mode) ->
      note ~progress ~workload ~seed ~armed:false mode acc (run ~seed mode))
    empty pairs

let sample ?(progress = ignore) ~workload run ~seed ~record ~budget arm =
  record_then_arm ~progress ~workload run ~seed ~record ~budget
    (fun _ acc k -> armed_run ~progress ~workload run ~seed (arm k) acc)
    empty

let crash_sweep ?progress ~workload run ~seed ~budget =
  sample ?progress ~workload run ~seed ~record:Run ~budget (fun k -> Crash k)

let instant_sweep ?(progress = ignore) ~workload run ~seed ~budget =
  record_then_arm ~progress ~workload run ~seed ~record:Run ~budget:(max 1 (budget / 4))
    (fun cuts acc cut ->
      record_then_arm ~progress ~workload run ~seed ~record:(Instant (cut, None))
        ~budget:(max 1 (budget / max 1 cuts))
        (fun _ acc k2 -> armed_run ~progress ~workload run ~seed (Instant (cut, Some k2)) acc)
        acc)
    empty

let kill_sweep ?(progress = ignore) ~workload run ~victims ~seed ~budget =
  List.fold_left
    (fun acc victim ->
      record_then_arm ~progress ~workload run ~seed ~record:(Kill (victim, None))
        ~budget:(max 1 (budget / victims)) ~interior:true
        (fun _ acc k -> armed_run ~progress ~workload run ~seed (Kill (victim, Some k)) acc)
        acc)
    empty
    (List.init victims Fun.id)

let sweep ?progress ~workload run ~seeds ~crash_seeds ~crash_budget =
  List.fold_left
    (fun acc seed -> merge acc (crash_sweep ?progress ~workload run ~seed ~budget:crash_budget))
    (runs ?progress ~workload run (List.map (fun seed -> (seed, Run)) seeds))
    crash_seeds
