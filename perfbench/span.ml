(* Wall-clock timing for the benchmark: a monotonic clock, sample
   statistics, and in-memory spans around the benchmark's own calls into
   the engine's layers. Nothing here reaches inside [lib/]: a span brackets
   one public call (Table.fetch, Txnmgr.commit, Sharddb.commit, ...), and the
   layer a call belongs to is the span name's prefix. *)

module Sched = Aries_sched.Sched
module Vec = Aries_util.Vec

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, seconds_since t0)

(* ------------------------------------------------------------------ *)
(* Sample statistics *)

(* Nearest-rank quantile of an unsorted sample; [nan] when empty. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = quantile 0.5 xs

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = {
  sp_name : string;
  sp_req : int;  (** client transaction the call was made for; 0 = none *)
  sp_parent : int;  (** index of the enclosing span on the same fiber; -1 = root *)
  sp_start : int;  (** ns, monotonic *)
  mutable sp_stop : int;
}

let enabled = ref false

let spans : span Vec.t = Vec.create ()

(* The innermost open span per fiber, so a nested call records its parent.
   Fibers interleave on one OS thread, so a single global stack would
   attribute one fiber's call to another's span. Keyed by scheduler run as
   well: fiber ids restart with every run, and a crash cut leaves spans open. *)
let open_span : (int * int, int) Hashtbl.t = Hashtbl.create 16

let fiber () = if Sched.in_fiber () then (Sched.run_id (), Sched.current ()) else (-1, -1)

(* [wrap ~req name f] runs [f], recording a span when tracing is on. The
   span is closed on exceptions too: an aborted call still took its time. *)
let wrap ?(req = 0) name f =
  if not !enabled then f ()
  else begin
    let fb = fiber () in
    let parent = Option.value (Hashtbl.find_opt open_span fb) ~default:(-1) in
    let idx = Vec.length spans in
    let sp = { sp_name = name; sp_req = req; sp_parent = parent; sp_start = now_ns (); sp_stop = 0 } in
    Vec.push spans sp;
    Hashtbl.replace open_span fb idx;
    let close () =
      sp.sp_stop <- now_ns ();
      if parent < 0 then Hashtbl.remove open_span fb else Hashtbl.replace open_span fb parent
    in
    match f () with
    | x ->
        close ();
        x
    | exception e ->
        close ();
        raise e
  end

let duration sp = sp.sp_stop - sp.sp_start

(* Durations in microseconds of every closed span with this name. Spans
   left open by a crash cut (the fiber never resumed) are skipped. *)
let durations_us name =
  Vec.fold
    (fun acc sp ->
      if String.equal sp.sp_name name && sp.sp_stop > 0 then
        (float_of_int (duration sp) /. 1e3) :: acc
      else acc)
    [] spans
  |> Array.of_list

(* Per-name totals: count, total and self time in ms. Self time is the
   span's duration minus the part its direct children cover. *)
let summary () =
  let n = Vec.length spans in
  let child_ns = Array.make n 0 in
  Vec.iter
    (fun sp ->
      if sp.sp_parent >= 0 && sp.sp_stop > 0 then
        child_ns.(sp.sp_parent) <- child_ns.(sp.sp_parent) + duration sp)
    spans;
  let tbl = Hashtbl.create 16 in
  Vec.iteri
    (fun i sp ->
      if sp.sp_stop > 0 then begin
        let c, tot, self = Option.value (Hashtbl.find_opt tbl sp.sp_name) ~default:(0, 0, 0) in
        Hashtbl.replace tbl sp.sp_name (c + 1, tot + duration sp, self + duration sp - child_ns.(i))
      end)
    spans;
  Hashtbl.fold (fun name (c, tot, self) acc -> (name, c, float tot /. 1e6, float self /. 1e6) :: acc) tbl []
  |> List.sort compare

(* One span per line: index, parent, request, name, start and stop (ns
   since the first span). *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let base = if Vec.is_empty spans then 0 else (Vec.get spans 0).sp_start in
      output_string oc "idx,parent,req,name,start_ns,stop_ns\n";
      Vec.iteri
        (fun i sp ->
          Printf.fprintf oc "%d,%d,%d,%s,%d,%d\n" i sp.sp_parent sp.sp_req sp.sp_name
            (sp.sp_start - base)
            (if sp.sp_stop > 0 then sp.sp_stop - base else -1))
        spans)
