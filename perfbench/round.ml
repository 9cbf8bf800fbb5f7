(* What one round of a workload measures and reports: a fresh database is
   set up, loaded by the client fibers until the scheduler-step cut, crashed
   and restarted. Every workload fills in the same record; [Main] turns it
   into metrics.

   A seed fixes a round's whole execution, so every round of a run does the
   same work step for step. Timings are therefore kept in deterministic
   slices — preload batches, windows of scheduler steps, individual
   transactions — and [Main] takes the minimum of each slice across rounds
   before summing: a slice that ran while the host was slowed by other
   tenants is replaced by the same slice from a round that ran unhindered. *)

module Stats = Aries_util.Stats
module Vec = Aries_util.Vec
module Sched = Aries_sched.Sched

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let check cond fmt = Printf.ksprintf (fun s -> if not cond then raise (Check_failed s)) fmt

(* Client-side accounting, shared by every fiber of the round. *)
type acct = {
  mutable committed : int;  (** client transactions acknowledged committed *)
  mutable attempts : int;  (** transaction attempts, retries included *)
  mutable aborts : int;  (** involuntary: deadlock victims, Global_abort, lock timeouts *)
  mutable rollbacks : int;  (** voluntary rollbacks (not failures) *)
  mutable gave_up : int;  (** client transactions abandoned after [max_retries] *)
  mutable ops : int;  (** data operations issued, retries included *)
  mutable user_bytes : int;  (** user bytes written by committed transactions *)
  mutable in_flight : int;  (** client transactions begun but not finished *)
  lat_ms : float Vec.t;  (** first begin to commit ack, per committed client txn, in ack order *)
  window : int;  (** scheduler steps per timing window *)
  marks : int Vec.t;  (** ns at which each window boundary was first seen *)
  mutable space_sum : int;  (** the database's footprint summed over window boundaries *)
}

let windows = 64

let acct ~cut_steps =
  {
    committed = 0;
    attempts = 0;
    aborts = 0;
    rollbacks = 0;
    gave_up = 0;
    ops = 0;
    user_bytes = 0;
    in_flight = 0;
    lat_ms = Vec.create ();
    window = max 1 (cut_steps / windows);
    marks = Vec.create ();
    space_sum = 0;
  }

(* Called by clients before each transaction: stamp every window boundary
   the scheduler has passed since the last stamp, and sample the footprint
   ([space ()] bytes). Which client stamps, and at which step, is fixed by
   the seed. *)
let mark a ~space =
  let w = Sched.steps_now () / a.window in
  if Vec.length a.marks < w then begin
    let now = Span.now_ns () in
    let space = space () in
    while Vec.length a.marks < w do
      Vec.push a.marks now;
      a.space_sum <- a.space_sum + space
    done
  end

(* Mean footprint over the window boundaries of the measured phase: the
   log's live size saws up and down with checkpoints and truncation, so one
   sample at the cut would depend on where the cut fell. *)
let mean_space a = float_of_int a.space_sum /. float_of_int (max 1 (Vec.length a.marks))

let max_retries = 100

(* After an abort, yield for a random number of scheduler turns, doubling
   the range with each retry, so the retried transaction does not meet the
   same lock holders at once. Deterministic: the draws come from the
   client's seeded generator. *)
let backoff rng tries =
  for _ = 0 to Aries_util.Rng.int rng (1 lsl min (tries + 1) 6) do
    Sched.yield ()
  done

(* Seconds between consecutive ns stamps. *)
let segments stamps =
  let a = Array.of_list stamps in
  Array.init (max 0 (Array.length a - 1)) (fun i -> float_of_int (a.(i + 1) - a.(i)) /. 1e9)

type t = {
  setup_segs : float array;  (** seconds per setup slice: create, then each preload batch *)
  run_segs : float array;  (** seconds per window of the measured phase *)
  acct : acct;
  steps : int;  (** scheduler steps of the measured phase *)
  stats : Stats.t;  (** engine counter deltas over the measured phase *)
  gc_minor_words : float;
  gc_major : int;
  write_bytes : int;  (** log bytes + page bytes written in the measured phase *)
  space_amp : float;
  restart_s : float list;  (** samples of Db.load + classic restart *)
  first_commit_ms : float list;
      (** samples of Db.load + instant restart + reopen + one committed transaction *)
  layer : (string * float) list;  (** workload-measured per-layer numbers *)
  counts : (string * int) list;
      (** deterministic counts: two rounds of one seed must agree exactly *)
}

let setup_s r = Array.fold_left ( +. ) 0. r.setup_segs

let run_s r = Array.fold_left ( +. ) 0. r.run_segs

(* Run the measured phase under a fresh stats sink and GC accounting;
   returns the result, the window segments, the sink and the GC deltas. *)
let measure a f =
  let sink = Stats.create () in
  let g0 = Gc.quick_stat () in
  let t0 = Span.now_ns () in
  let x = Stats.with_sink sink f in
  let t1 = Span.now_ns () in
  let g1 = Gc.quick_stat () in
  ( x,
    segments ((t0 :: Vec.to_list a.marks) @ [ t1 ]),
    sink,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_collections - g0.Gc.major_collections )

(* A restart's report numbers, summed over shards. *)
let restart_totals (reports : Aries_recovery.Restart.report list) =
  let sum f = List.fold_left (fun acc rp -> acc + f rp) 0 reports in
  [
    ("records_analyzed", sum (fun rp -> rp.Aries_recovery.Restart.rp_records_analyzed));
    ("redo_applied", sum (fun rp -> rp.Aries_recovery.Restart.rp_redos_applied));
    ("undo_records", sum (fun rp -> rp.Aries_recovery.Restart.rp_undo_records));
  ]

let prefixed prefix l = List.map (fun (k, v) -> (prefix ^ "." ^ k, v)) l

(* The classic restart's numbers as per-layer metrics. *)
let recovery_layer totals = List.map (fun (k, v) -> ("recovery." ^ k, float_of_int v)) totals

(* The counters every workload reports for the determinism self-check. *)
let base_counts (a : acct) (s : Stats.t) ~steps =
  [
    ("committed", a.committed);
    ("attempts", a.attempts);
    ("aborts", a.aborts);
    ("ops", a.ops);
    ("user_bytes", a.user_bytes);
    ("windows", Vec.length a.marks);
    ("space_sum", a.space_sum);
    ("steps", steps);
  ]
  @ List.map
      (fun k -> (k, Stats.get s k))
      [
        Stats.log_bytes;
        Stats.log_records;
        Stats.log_forces;
        Stats.page_writes;
        Stats.page_reads;
        Stats.page_fixes;
        Stats.lock_requests;
        Stats.lock_waits;
        Stats.lock_deadlocks;
        Stats.smo_splits;
        Stats.ckpt_taken;
      ]
