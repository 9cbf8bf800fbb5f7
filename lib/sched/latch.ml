module Vec = Aries_util.Vec
module Stats = Aries_util.Stats
module Trace = Aries_trace.Trace

let c_latch_acquires = Stats.counter Stats.latch_acquires
let c_tree_latch_acquires = Stats.counter Stats.tree_latch_acquires
let c_latch_waits = Stats.counter Stats.latch_waits
let c_tree_latch_waits = Stats.counter Stats.tree_latch_waits

type mode = Trace.latch_mode = S | X

type kind = Trace.latch_kind = Page_latch | Tree_latch

type waiter = {
  wt_mode : mode;
  wt_waker : Sched.waker;
}

type t = {
  l_name : string;
  l_kind : kind;
  mutable holders : (Sched.fiber_id * mode) list;
  waiters : waiter Vec.t;
}

let create ?(kind = Page_latch) name =
  { l_name = name; l_kind = kind; holders = []; waiters = Vec.create () }

let name t = t.l_name

let compatible_with_holders t mode =
  match (mode, t.holders) with
  | _, [] -> true
  | S, hs -> List.for_all (fun (_, m) -> m = S) hs
  | X, _ -> false

let trace_acquire t mode ~cond ~waited =
  if Trace.enabled () then
    Trace.emit (Trace.Latch_acquire { kind = t.l_kind; name = t.l_name; mode; cond; waited })

let count_acquire t waited =
  (match t.l_kind with
  | Page_latch -> Stats.incr c_latch_acquires
  | Tree_latch -> Stats.incr c_tree_latch_acquires);
  if waited then
    match t.l_kind with
    | Page_latch -> Stats.incr c_latch_waits
    | Tree_latch -> Stats.incr c_tree_latch_waits

let check_not_held t =
  let me = Sched.current () in
  if List.mem_assoc me t.holders then
    invalid_arg (Printf.sprintf "Latch %s: fiber %d already holds it (latches are not re-entrant)" t.l_name me)

let grant t mode = t.holders <- (Sched.current (), mode) :: t.holders

(* Called with a holder slot just freed: hand the latch to the longest
   waiting compatible prefix (one X, or a run of S's). *)
let wake_eligible t =
  let rec loop () =
    if not (Vec.is_empty t.waiters) then begin
      let w = Vec.get t.waiters 0 in
      let grantable =
        match (w.wt_mode, t.holders) with
        | _, [] -> true
        | S, hs -> List.for_all (fun (_, m) -> m = S) hs
        | X, _ -> false
      in
      if grantable then begin
        ignore (Vec.remove t.waiters 0);
        (* Record the holder before waking so a later waiter in this same
           release cannot sneak an incompatible grant in between. *)
        t.holders <- (Sched.waker_fiber w.wt_waker, w.wt_mode) :: t.holders;
        Sched.wake w.wt_waker;
        loop ()
      end
    end
  in
  loop ()

let acquire t mode =
  check_not_held t;
  if compatible_with_holders t mode && Vec.is_empty t.waiters then begin
    grant t mode;
    count_acquire t false;
    trace_acquire t mode ~cond:false ~waited:false
  end
  else begin
    count_acquire t true;
    Sched.suspend (fun w -> Vec.push t.waiters { wt_mode = mode; wt_waker = w });
    (* by the time we are woken, wake_eligible has already installed us as
       a holder *)
    trace_acquire t mode ~cond:false ~waited:true
  end

let try_acquire t mode =
  check_not_held t;
  if compatible_with_holders t mode && Vec.is_empty t.waiters then begin
    grant t mode;
    count_acquire t false;
    trace_acquire t mode ~cond:true ~waited:false;
    true
  end
  else begin
    if Trace.enabled () then
      Trace.emit (Trace.Latch_try_fail { kind = t.l_kind; name = t.l_name; mode });
    false
  end

let release t =
  let me = Sched.current () in
  if not (List.mem_assoc me t.holders) then
    invalid_arg (Printf.sprintf "Latch %s: release by non-holder fiber %d" t.l_name me);
  t.holders <- List.filter (fun (f, _) -> f <> me) t.holders;
  if Trace.enabled () then
    Trace.emit (Trace.Latch_release { kind = t.l_kind; name = t.l_name });
  wake_eligible t

let instant t mode =
  acquire t mode;
  release t

let holds t = List.mem_assoc (Sched.current ()) t.holders

let holds_mode t mode =
  match List.assoc_opt (Sched.current ()) t.holders with
  | Some m -> m = mode
  | None -> false

let holder_count t = List.length t.holders

let waiter_count t = Vec.length t.waiters
