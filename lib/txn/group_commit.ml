open Aries_util
module Lsn = Aries_wal.Lsn
module Logmgr = Aries_wal.Logmgr
module Logset = Aries_wal.Logset
module Sched = Aries_sched.Sched

let c_commit_batches = Stats.counter Stats.commit_batches
let c_commit_batch_size = Stats.counter Stats.commit_batch_size
let c_commit_group_waits = Stats.counter Stats.commit_group_waits

(* Batch-size histogram counters, registered up front for sizes up to 64
   and extended on the first larger batch, so each name is built once. *)
let bucket_counter n = Stats.counter (Stats.commit_batch_bucket n)

let batch_buckets = ref (Array.init 65 bucket_counter)

let batch_bucket n =
  let have = Array.length !batch_buckets in
  if n >= have then
    batch_buckets :=
      Array.append !batch_buckets (Array.init (n + 1 - have) (fun j -> bucket_counter (have + j)));
  !batch_buckets.(n)

type policy = { max_batch : int; max_delay_steps : int }

let default_policy = { max_batch = 8; max_delay_steps = 8 }

type waiter = {
  gw_commit_stream : int;
  gw_targets : (int * Lsn.t) list;
  gw_waker : Sched.waker;
}

type t = {
  logs : Logset.t;
  policy : policy;
  waiters : waiter Vec.t;
  cv : Sched.Condvar.t;
  mutable daemon_live : bool;
  mutable daemon_run : int;  (* Sched.run_id of the run the daemon lives in *)
  mutable io_model : (int -> int) option;
}

let create ?(policy = default_policy) logs =
  if policy.max_batch < 1 then invalid_arg "Group_commit.create: max_batch must be >= 1";
  if policy.max_delay_steps < 0 then
    invalid_arg "Group_commit.create: max_delay_steps must be >= 0";
  {
    logs;
    policy;
    waiters = Vec.create ();
    cv = Sched.Condvar.create "group-commit";
    daemon_live = false;
    daemon_run = 0;
    io_model = None;
  }

let policy t = t.policy

let pending t = Vec.length t.waiters

let set_io_model t m = t.io_model <- m

(* The daemon is usable only from inside the scheduler incarnation it was
   spawned in: wakers cached from a dead scheduler must never be woken. *)
let active t = Sched.in_fiber () && t.daemon_live && t.daemon_run = Sched.run_id ()

(* Called by the opener (inside the run's main fiber, before any user work):
   discard waiters left over from a crashed/stalled previous run — their
   continuations belong to a dead scheduler — and mark the daemon live so
   commits enqueue instead of forcing synchronously. *)
let attach t =
  if t.daemon_run <> Sched.run_id () then Vec.clear t.waiters;
  t.daemon_run <- Sched.run_id ();
  t.daemon_live <- true

let nudge t = Sched.Condvar.broadcast t.cv

(* Run the batch's per-stream forces. Without an I/O model they run inline,
   back to back — with one stream this is byte-for-byte the old single
   [flush_to]. With an I/O model, each stream's force runs in its own fiber
   and then busy-waits until [t0 + cost bytes] scheduler steps have elapsed
   (an absolute deadline from a shared start, so concurrent forces overlap:
   the batch completes in ~max of the per-stream costs, not their sum —
   the disk-parallelism a multi-stream log exists to buy). *)
let run_forces t forces =
  match t.io_model with
  | Some cost when Sched.in_fiber () ->
      let t0 = Sched.steps_now () in
      let remaining = ref (List.length forces) in
      let failed = ref None in
      List.iter
        (fun (s, target) ->
          let m = Logset.stream t.logs s in
          let bytes = max 0 (Logmgr.record_end m target - Logmgr.flushed_offset m) in
          ignore
            (Sched.spawn ~name:(Printf.sprintf "gc-force-%d" s) (fun () ->
                 (try
                    Logmgr.flush_to m target;
                    let deadline = t0 + cost bytes in
                    while Sched.steps_now () < deadline do
                      Sched.yield ()
                    done
                  with e -> if !failed = None then failed := Some e);
                 decr remaining)))
        forces;
      while !remaining > 0 do
        Sched.yield ()
      done;
      Option.iter raise !failed
  | Some _ | None ->
      List.iter (fun (s, target) -> Logmgr.flush_to (Logset.stream t.logs s) target) forces

(* One batch = one force per touched stream: fold every enqueued committer's
   fence vector into per-stream maxima, force each covered stream through
   its maximum (the shared instrumented choke points), advance the commit
   epoch, then wake everyone. If any force raises (a simulated power
   failure at a [wal.flush] crash point), no waiter is woken — an unforced
   commit is never acknowledged.

   Under the [wal.stream-fence-skip] fault the batch "forgets" every stream
   that is not some waiter's own commit-record stream — the multi-stream
   durability lie: the Commit records themselves are all forced, but update
   records on other streams may not be. Committers are still woken and
   still emit honest [Commit_fence] vectors, which is how the R8 checker
   catches it end to end. *)
let force_batch t =
  let n = Vec.length t.waiters in
  if n > 0 then begin
    let ws = Vec.to_list t.waiters in
    Vec.clear t.waiters;
    let skip = Crashpoint.active Crashpoint.Wal_stream_fence_skip in
    let allowed =
      if not skip then fun _ -> true
      else
        let commit_streams =
          List.fold_left (fun acc w -> w.gw_commit_stream :: acc) [] ws
        in
        fun s -> List.mem s commit_streams
    in
    let maxima = Hashtbl.create 8 in
    List.iter
      (fun w ->
        List.iter
          (fun (s, l) ->
            if allowed s then
              match Hashtbl.find_opt maxima s with
              | Some l' when Lsn.compare l' l >= 0 -> ()
              | _ -> Hashtbl.replace maxima s l)
          w.gw_targets)
      ws;
    let forces = Hashtbl.fold (fun s l acc -> (s, l) :: acc) maxima [] in
    let forces = List.sort compare forces in
    (try run_forces t forces
     with e ->
       (* A force failed (e.g. transient-I/O retry exhaustion): nobody is
          woken — an unforced commit is never acknowledged — and nobody is
          lost: every committer goes back in the queue so a later force can
          cover it. *)
       List.iter (fun w -> Vec.push t.waiters w) ws;
       raise e);
    ignore (Logset.advance_epoch t.logs);
    Stats.incr c_commit_batches;
    Stats.add c_commit_batch_size n;
    Stats.incr (batch_bucket n);
    List.iter (fun w -> Sched.wake w.gw_waker) ws
  end

let wait_durable t ~commit_stream ~targets =
  let stable =
    List.for_all (fun (s, l) -> Logmgr.is_stable (Logset.stream t.logs s) l) targets
  in
  if not stable then begin
    Stats.incr c_commit_group_waits;
    Sched.suspend (fun w ->
        Vec.push t.waiters { gw_commit_stream = commit_stream; gw_targets = targets; gw_waker = w };
        (* wake the daemon; it batches until the policy window closes *)
        Sched.Condvar.signal t.cv)
  end

let run_daemon t ~stop =
  Fun.protect
    ~finally:(fun () -> t.daemon_live <- false)
    (fun () ->
      let stopping () = stop () || Sched.shutting_down () || Crashpoint.tripped () in
      let rec loop () =
        if stopping () then begin
          (* drain: force whatever is pending immediately (no delay window),
             wake the covered committers, and exit. After a simulated power
             failure the stable state is frozen — never force, never wake:
             a commit cut mid-batch is not acknowledged. *)
          if not (Crashpoint.tripped ()) then force_batch t
        end
        else if Vec.is_empty t.waiters then begin
          Sched.Condvar.wait t.cv;
          loop ()
        end
        else begin
          (* accumulation window: let more committers pile on until the
             batch is full or the step deadline passes *)
          let t0 = Sched.steps_now () in
          while
            Vec.length t.waiters < t.policy.max_batch
            && Sched.steps_now () - t0 < t.policy.max_delay_steps
            && not (stopping ())
          do
            Sched.yield ()
          done;
          (if not (Crashpoint.tripped ()) then
             try force_batch t
             with Storage_error.Error _ ->
               (* typed storage failure out of the force: the batch was
                  re-enqueued by [force_batch]; back off one step and retry
                  on the next round (the transient-EIO storm passes in
                  simulated time) *)
               Sched.yield ());
          loop ()
        end
      in
      loop ())
