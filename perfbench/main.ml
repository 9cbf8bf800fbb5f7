(* End-to-end benchmark entry point.

     main.exe --workload read-spill|write-hot|shard-2pc --seed N --seconds S --trace 0|1

   Runs rounds of the workload until [--seconds] have passed (at least
   three), checks every round's outputs, and prints the metrics by name and
   unit, then one JSON result object as the last line. [--trace 0] reports
   the end-to-end metrics from untraced rounds; [--trace 1] interleaves
   untraced, span-traced and trace-checker rounds and reports the per-layer
   metrics, writing the spans and the per-layer numbers under the work
   directory. See README.md in this directory. *)

module Stats = Aries_util.Stats
module Vec = Aries_util.Vec
module Trace = Aries_trace.Trace

let workloads = [ "read-spill"; "write-hot"; "shard-2pc" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload read-spill|write-hot|shard-2pc --seed N --seconds S --trace 0|1 \
     [--workdir DIR]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1) and trace = ref (-1) in
  let workdir = ref "_perfbench" in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string v;
        go rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        go rest
    | "--workdir" :: v :: rest ->
        workdir := v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then usage ();
  (!workload, !seed, !seconds, !trace = 1, !workdir)

(* ------------------------------------------------------------------ *)
(* Rounds *)

type kind =
  | Plain  (** no spans, trace off: what end-to-end metrics are measured on *)
  | Spans  (** spans on, trace off *)
  | Checked  (** no spans, trace checker on *)

let run_round workload ~index ~seed ~layers ~workdir =
  match workload with
  | "read-spill" -> Tablewl.round Tablewl.read_spill ~seed ~layers ~workdir
  | "write-hot" -> Tablewl.round Tablewl.write_hot ~seed ~layers ~workdir
  | _ -> Shardwl.round ~index ~seed ~layers

(* Round 0 is a warm-up: checked and compared, never timed. The traced run
   cycles Spans, Plain, Checked after it. *)
let kind_of ~traced index =
  if index = 0 || not traced then Plain
  else match (index - 1) mod 3 with 0 -> Spans | 1 -> Plain | _ -> Checked

let run_rounds workload ~seed ~seconds ~traced ~workdir =
  let t0 = Span.now_ns () in
  let min_rounds = if traced then 4 else 3 in
  let rounds = ref [] in
  let index = ref 0 in
  while !index < min_rounds || Span.seconds_since t0 < float_of_int seconds do
    let kind = kind_of ~traced !index in
    Span.enabled := kind = Spans;
    Trace.set_mode (if kind = Checked then Trace.Check else Trace.Off);
    Trace.reset ();
    Aries_trace.Discipline.reset ();
    Gc.compact ();
    let r = run_round workload ~index:!index ~seed ~layers:(traced && !index = 0) ~workdir in
    Span.enabled := false;
    Trace.set_mode Trace.Off;
    Printf.printf "round %d (%s): setup %.3fs run %.3fs committed %d attempts %d aborts %d steps %d\n%!"
      !index
      (match kind with Plain -> "plain" | Spans -> "spans" | Checked -> "trace-check")
      (Round.setup_s r) (Round.run_s r) r.Round.acct.Round.committed r.Round.acct.Round.attempts
      r.Round.acct.Round.aborts r.Round.steps;
    rounds := (!index, kind, r) :: !rounds;
    incr index
  done;
  List.rev !rounds

(* Every count a round reports must be identical in every round that
   reports it: the engine's daemons are timed in scheduler steps, so a seed
   fixes the whole execution. *)
let check_determinism rounds =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (i, _, r) ->
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt seen k with
          | None -> Hashtbl.replace seen k (i, v)
          | Some (j, v') ->
              Round.check (v = v') "determinism: count %s is %d in round %d but %d in round %d" k v i v'
                j)
        r.Round.counts)
    rounds

(* ------------------------------------------------------------------ *)
(* Metrics *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let per_k a b = 1000. *. ratio a b

let timed_rounds ~kind rounds =
  List.filter_map (fun (i, k, r) -> if i > 0 && k = kind then Some r else None) rounds

let median_of f rs = Span.median (Array.of_list (List.map f rs))

(* The statistic every timing uses across repeated samples of the same
   work: the minimum. The host's speed switches in bursts (other tenants
   share its cores), so time above the floor measures the neighbours, not
   the program. *)
let best xs = Span.quantile 0. xs

(* Rounds of one seed do identical work slice by slice: the best time of
   each slice across rounds, [f r] giving a round's slices. *)
let slice_best f rs =
  let cols = List.map f rs in
  let n = List.fold_left (fun acc a -> min acc (Array.length a)) max_int cols in
  Array.init n (fun i -> best (Array.of_list (List.map (fun a -> a.(i)) cols)))

let sum = Array.fold_left ( +. ) 0.

(* Wall time of the measured phase: the sum of its windows' best times. *)
let run_s rs = sum (slice_best (fun (r : Round.t) -> r.Round.run_segs) rs)

let committed rs = (List.hd rs).Round.acct.Round.committed

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let end_to_end rounds =
  let rs = timed_rounds ~kind:Plain rounds in
  (* the i-th acknowledged transaction is the same one in every round *)
  let lat = slice_best (fun (r : Round.t) -> Vec.to_array r.Round.acct.Round.lat_ms) rs in
  let samples f = Array.of_list (List.concat_map f rs) in
  let r0 = List.hd rs in
  let a = r0.Round.acct in
  [
    ("setup_s", sum (slice_best (fun (r : Round.t) -> r.Round.setup_segs) rs), "s");
    ("throughput_txn_s", float_of_int (committed rs) /. run_s rs, "txn/s");
    ("txn_p50_ms", Span.quantile 0.5 lat, "ms");
    ("txn_p99_ms", Span.quantile 0.99 lat, "ms");
    ("attempts_per_commit", ratio a.Round.attempts a.Round.committed, "ratio");
    ("write_amp", ratio r0.Round.write_bytes a.Round.user_bytes, "ratio");
    ("space_amp", r0.Round.space_amp, "ratio");
    ("heap_peak_mb", heap_peak_mb (), "MB");
    ("restart_s", best (samples (fun (r : Round.t) -> r.Round.restart_s)), "s");
    ("first_commit_ms", best (samples (fun (r : Round.t) -> r.Round.first_commit_ms)), "ms");
  ]

let span_p q name =
  match Span.durations_us name with [||] -> 0. | ds -> Span.quantile q ds

(* Per-layer metrics. Counter ratios come from the warm-up round (every
   round of a seed has the same counts); span quantiles from the Spans
   rounds; workload-measured numbers are medians over the rounds that
   report them. A layer the workload never calls reads 0. *)
let per_layer rounds =
  let _, _, r0 = List.hd rounds in
  let s = r0.Round.stats and a = r0.Round.acct in
  let g k = Stats.get s k in
  let c = a.Round.committed in
  let layer name =
    let vs = List.filter_map (fun (_, _, r) -> List.assoc_opt name r.Round.layer) rounds in
    if vs = [] then 0. else Span.median (Array.of_list vs)
  in
  let run_s kind = run_s (timed_rounds ~kind rounds) in
  let checked = timed_rounds ~kind:Checked rounds in
  let us = "us" and ms = "ms" and n = "count" and x = "ratio" in
  [
    ("db.fetch_p50_us", span_p 0.5 "db.fetch", us);
    ("db.fetch_p99_us", span_p 0.99 "db.fetch", us);
    ("db.scan_p50_us", span_p 0.5 "db.scan", us);
    ("db.insert_p50_us", span_p 0.5 "db.insert", us);
    ("db.update_p50_us", span_p 0.5 "db.update", us);
    ("db.delete_p50_us", span_p 0.5 "db.delete", us);
    ("db.reopen_ms", layer "db.reopen_ms", ms);
    ("txn.commit_p50_us", span_p 0.5 "txn.commit", us);
    ("txn.commit_p99_us", span_p 0.99 "txn.commit", us);
    ("txn.rollback_p50_us", span_p 0.5 "txn.rollback", us);
    ("txn.batch_mean", ratio (g Stats.commit_batch_size) (g Stats.commit_batches), x);
    ("txn.abort_frac", ratio a.Round.aborts a.Round.attempts, x);
    ("wal.forces_per_commit", ratio (g Stats.log_forces) c, x);
    ("wal.bytes_per_txn", ratio (g Stats.log_bytes) c, "bytes");
    ("wal.records_per_txn", ratio (g Stats.log_records) c, x);
    ("wal.reclaimed_frac", layer "wal.reclaimed_frac", x);
    ("wal.scan_mb_s", layer "wal.scan_mb_s", "MB/s");
    ("buffer.fixes_per_op", ratio (g Stats.page_fixes) a.Round.ops, x);
    ("buffer.miss_ratio", ratio (g Stats.page_reads) (g Stats.page_fixes), x);
    ("buffer.writes_per_ktxn", per_k (g Stats.page_writes) c, x);
    ("buffer.cleaner_pages_per_ktxn", per_k (g Stats.cleaner_pages_written) c, x);
    ( "buffer.image_hit_ratio",
      ratio (g Stats.bufpool_image_hits) (g Stats.bufpool_image_hits + g Stats.bufpool_image_misses),
      x );
    ("page.decode_us", layer "page.decode_us", us);
    ("page.encode_us", layer "page.encode_us", us);
    ("lock.requests_per_txn", ratio (g Stats.lock_requests) c, x);
    ("lock.waits_per_ktxn", per_k (g Stats.lock_waits) c, x);
    ("lock.deadlocks_per_ktxn", per_k (g Stats.lock_deadlocks) c, x);
    ("sched.steps_per_txn", ratio r0.Round.steps c, x);
    ("sched.yields_per_txn", ratio (g Stats.fiber_yields) c, x);
    ("latch.acquires_per_op", ratio (g Stats.latch_acquires + g Stats.tree_latch_acquires) a.Round.ops, x);
    ("latch.waits_per_ktxn", per_k (g Stats.latch_waits) c, x);
    ("latch.tree_waits_per_ktxn", per_k (g Stats.tree_latch_waits) c, x);
    ("btree.traversals_per_op", ratio (g Stats.tree_traversals) a.Round.ops, x);
    ("btree.splits_per_ktxn", per_k (g Stats.smo_splits) c, x);
    ("btree.page_deletes_per_ktxn", per_k (g Stats.smo_page_deletes) c, x);
    ("recovery.ckpts_per_ktxn", per_k (g Stats.ckpt_taken) c, x);
    ("recovery.records_analyzed", layer "recovery.records_analyzed", n);
    ("recovery.redo_applied", layer "recovery.redo_applied", n);
    ("recovery.undo_records", layer "recovery.undo_records", n);
    ("recovery.instant_open_ms", layer "recovery.instant_open_ms", ms);
    ("recovery.instant_drain_ms", layer "recovery.instant_drain_ms", ms);
    ("shard.commit_single_p50_us", span_p 0.5 "shard.commit_single", us);
    ("shard.commit_cross_p50_us", span_p 0.5 "shard.commit_cross", us);
    ("shard.commit_cross_p99_us", span_p 0.99 "shard.commit_cross", us);
    ("shard.fetch_p50_us", span_p 0.5 "shard.fetch", us);
    ("shard.insert_p50_us", span_p 0.5 "shard.insert", us);
    ("shard.prepares_per_cross_txn", layer "shard.prepares_per_cross_txn", x);
    ("shard.forces_per_cross_commit", layer "shard.forces_per_cross_commit", x);
    ("shard.global_victims_per_ktxn", per_k (g Stats.deadlock_global_victims) c, x);
    ("trace.check_overhead", run_s Checked /. run_s Plain, x);
    ( "trace.events_per_txn",
      median_of
        (fun (r : Round.t) -> ratio (Stats.get r.Round.stats Stats.trace_events) r.Round.acct.Round.committed)
        checked,
      x );
    ("gc.minor_words_per_txn", r0.Round.gc_minor_words /. float_of_int (max 1 c), x);
    ("gc.major_per_ktxn", per_k r0.Round.gc_major c, x);
    ("bench.span_overhead", run_s Spans /. run_s Plain, x);
  ]

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)

let print_env workload ~seed ~seconds ~traced =
  let gc = Gc.get () in
  Printf.printf "workload %s seed %d seconds %d trace %d\n" workload seed seconds (if traced then 1 else 0);
  Printf.printf "config %s\n"
    (if workload = "shard-2pc" then Shardwl.describe ()
     else Tablewl.describe (if workload = "read-spill" then Tablewl.read_spill else Tablewl.write_hot));
  Printf.printf
    "locking data-only; trace mode off for timed rounds (library default check, ARIES_TRACE ignored)\n";
  Printf.printf "gc minor_heap_size=%d space_overhead=%d max_overhead=%d allocation_policy=%d\n%!"
    gc.Gc.minor_heap_size gc.Gc.space_overhead gc.Gc.max_overhead gc.Gc.allocation_policy

let () =
  let workload, seed, seconds, traced, workdir = parse_args () in
  Trace.set_mode Trace.Off;
  print_env workload ~seed ~seconds ~traced;
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  let checked_rounds () =
    let rounds = run_rounds workload ~seed ~seconds ~traced ~workdir in
    check_determinism rounds;
    rounds
  in
  match checked_rounds () with
  | exception Round.Check_failed msg ->
      Printf.printf "CHECK FAILED: %s\n" msg;
      print_endline (result_line ~correct:false ~attempted:1 ~failed:1 []);
      exit 1
  | rounds ->
      let finished (_, _, (r : Round.t)) =
        let a = r.Round.acct in
        a.Round.committed + a.Round.rollbacks + a.Round.gave_up
      in
      let attempted = List.fold_left (fun acc x -> acc + finished x) 0 rounds in
      let failed =
        List.fold_left (fun acc (_, _, (r : Round.t)) -> acc + r.Round.acct.Round.gave_up) 0 rounds
      in
      let _, _, r0 = List.hd rounds in
      Printf.printf "abort_frac %.6f (%d involuntary aborts / %d attempts, round 0)\n"
        (ratio r0.Round.acct.Round.aborts r0.Round.acct.Round.attempts)
        r0.Round.acct.Round.aborts r0.Round.acct.Round.attempts;
      let metrics =
        if traced then begin
          let base = Printf.sprintf "%s-seed%d" workload seed in
          let spans = Filename.concat workdir ("spans-" ^ base ^ ".csv") in
          Span.write spans;
          List.iter
            (fun (name, count, total, self) ->
              Printf.printf "span %-28s n=%-7d total=%.1fms self=%.1fms\n" name count total self)
            (Span.summary ());
          let m = per_layer rounds in
          let oc = open_out (Filename.concat workdir ("layers-" ^ base ^ ".json")) in
          output_string oc (result_line ~correct:true ~attempted ~failed m);
          output_char oc '\n';
          close_out oc;
          Printf.printf "spans written to %s\n" spans;
          m
        end
        else begin
          let rs = timed_rounds ~kind:Plain rounds in
          Printf.printf "latency samples: %d transactions, each the best of %d timed rounds\n"
            (Vec.length r0.Round.acct.Round.lat_ms) (List.length rs);
          end_to_end rounds
        end
      in
      List.iter (fun (name, v, unit) -> Printf.printf "metric %-34s %.6g %s\n" name v unit) metrics;
      print_endline (result_line ~correct:true ~attempted ~failed metrics)
