(* The deterministic simulation harness, at the default (CI) budget:
   a 64-seed schedule sweep plus crash sweeps totalling >= 200 distinct
   crash points, the determinism/replay contract, and the meta-test — with
   a deliberately injected bug (the WAL skip-flush fault) the harness must
   produce a failing reproducer that replays to the same failure. The full
   overnight-scale sweep lives behind [bench/main.exe -- sim]. *)

open Aries_util
module Sweep = Aries_sim.Sweep
module Workload = Aries_sim.Workload
module Shardsim = Aries_sim.Shardsim
module Sharddb = Aries_shard.Sharddb
module Twopc = Aries_shard.Twopc

let cfg = Workload.default_cfg

let seed_runs ~workload cfg seeds =
  Sweep.runs ~workload (Shardsim.run cfg) (List.map (fun seed -> (seed, Sweep.Run)) seeds)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let fail_with reproducers =
  List.iter (fun rp -> print_endline (Sweep.reproducer_line rp)) reproducers;
  Alcotest.failf "%d failing run(s); first: %s" (List.length reproducers)
    (Sweep.reproducer_line (List.hd reproducers))

(* 64 seeds, every run to completion: no stall, no exn, invariants clean,
   oracle match, no leaked latch/fix/lock/txn. *)
let test_seed_sweep () =
  let seeds = List.init 64 (fun i -> i + 1) in
  let s = seed_runs ~workload:"default" cfg seeds in
  Alcotest.(check int) "runs" 64 s.Sweep.sm_runs;
  if s.Sweep.sm_failures <> [] then fail_with s.Sweep.sm_failures;
  (* the sweep must actually exercise durability machinery *)
  Alcotest.(check bool) "events seen" true (s.Sweep.sm_events > 64)

(* Crash sweeps over five seeds with a per-seed budget of 60 indices:
   >= 200 distinct (seed, crash index) points, each followed by
   crash + restart + oracle check. *)
let test_crash_sweep () =
  let seeds = [ 101; 202; 303; 404; 505 ] in
  let points = ref 0 in
  let failures = ref [] in
  List.iter
    (fun seed ->
      let s = Sweep.crash_sweep ~workload:"default" (Shardsim.run cfg) ~seed ~budget:60 in
      points := !points + s.Sweep.sm_armed;
      failures := !failures @ s.Sweep.sm_failures)
    seeds;
  if !failures <> [] then fail_with !failures;
  Alcotest.(check bool)
    (Printf.sprintf "crash points >= 200 (got %d)" !points)
    true (!points >= 200)

(* The same two sweeps with the full commit pipeline on (group commit +
   background page cleaner): the durability contract is mode-independent —
   any transaction whose [commit] returned before the crash trip must
   survive restart, and the oracle is unchanged. The daemons also must
   drain cleanly on every completed run (a stalled daemon fails the run). *)
let gcfg = Workload.group_cfg

let test_seed_sweep_group () =
  let seeds = List.init 48 (fun i -> i + 1) in
  let s = seed_runs ~workload:"group+cleaner" gcfg seeds in
  Alcotest.(check int) "runs" 48 s.Sweep.sm_runs;
  if s.Sweep.sm_failures <> [] then fail_with s.Sweep.sm_failures

let test_crash_sweep_group () =
  let seeds = [ 606; 707; 808; 909 ] in
  let points = ref 0 in
  let failures = ref [] in
  List.iter
    (fun seed ->
      let s = Sweep.crash_sweep ~workload:"group+cleaner" (Shardsim.run gcfg) ~seed ~budget:60 in
      points := !points + s.Sweep.sm_armed;
      failures := !failures @ s.Sweep.sm_failures)
    seeds;
  if !failures <> [] then fail_with !failures;
  Alcotest.(check bool)
    (Printf.sprintf "group-mode crash points >= 150 (got %d)" !points)
    true (!points >= 150)

(* A run is a pure function of (seed, cfg, crash index): byte-identical
   reports on re-execution, for both completed and crash-cut runs, in both
   commit modes (the daemons derive every choice from the scheduler). *)
let test_determinism () =
  let a = Shardsim.run cfg ~seed:7 Sweep.Run in
  let b = Shardsim.run cfg ~seed:7 Sweep.Run in
  Alcotest.(check bool) "completed runs identical" true (a = b);
  let a = Shardsim.run cfg ~seed:7 (Sweep.Crash 41) in
  let b = Shardsim.run cfg ~seed:7 (Sweep.Crash 41) in
  Alcotest.(check bool) "crash-cut runs identical" true (a = b);
  let a = Shardsim.run gcfg ~seed:7 Sweep.Run in
  let b = Shardsim.run gcfg ~seed:7 Sweep.Run in
  Alcotest.(check bool) "group-mode completed runs identical" true (a = b);
  let a = Shardsim.run gcfg ~seed:7 (Sweep.Crash 41) in
  let b = Shardsim.run gcfg ~seed:7 (Sweep.Crash 41) in
  Alcotest.(check bool) "group-mode crash-cut runs identical" true (a = b)

(* Arming a crash index past the end of the run is reported, not silently
   ignored — replaying a stale reproducer against a changed tree stays loud. *)
let test_unreachable_crash_index () =
  let r = Shardsim.run cfg ~seed:3 (Sweep.Crash 1_000_000) in
  match r.Sweep.rr_failures with
  | [] -> Alcotest.fail "unreachable crash index not reported"
  | msg :: _ ->
      Alcotest.(check bool) "mentions never reached" true (contains ~sub:"never reached" msg)

(* The meta-test: with the WAL skip-flush fault enabled (commits are acked
   without their log force reaching stable storage), the harness MUST find
   failing crash points, print a SIM-REPRO line, and the reproducer must
   replay to the identical failure set. *)
let test_injected_fault_is_caught () =
  Fun.protect ~finally:Crashpoint.clear (fun () ->
      Crashpoint.enable Crashpoint.Wal_skip_flush;
      let s =
        Sweep.sweep ~workload:"default" (Shardsim.run cfg) ~seeds:[ 11; 12 ] ~crash_seeds:[ 11; 12 ]
          ~crash_budget:25
      in
      match s.Sweep.sm_failures with
      | [] -> Alcotest.fail "skip-flush fault escaped the harness"
      | rp :: _ ->
          let line = Sweep.reproducer_line rp in
          Alcotest.(check string) "reproducer line prefix" "SIM-REPRO" (String.sub line 0 9);
          let rep = Shardsim.run cfg ~seed:rp.Sweep.rp_seed rp.Sweep.rp_mode in
          Alcotest.(check bool) "replay reproduces the failure" true (Sweep.confirms rp rep));
  (* and with the fault cleared, the very same seed passes again *)
  let r = Shardsim.run cfg ~seed:11 Sweep.Run in
  Alcotest.(check (list string)) "clean after fault removed" [] r.Sweep.rr_failures

(* The same meta-test under group commit: the daemon's batched force goes
   through the identical instrumented choke point, so the skip-flush fault
   makes the daemon acknowledge unforced batches — the harness must catch
   that too (a group-commit bug that dropped forces must not hide from the
   sweep). *)
let test_injected_fault_is_caught_group () =
  Fun.protect ~finally:Crashpoint.clear (fun () ->
      Crashpoint.enable Crashpoint.Wal_skip_flush;
      let s =
        Sweep.sweep ~workload:"group+cleaner" (Shardsim.run gcfg) ~seeds:[ 11; 12 ]
          ~crash_seeds:[ 11; 12 ] ~crash_budget:25
      in
      match s.Sweep.sm_failures with
      | [] -> Alcotest.fail "skip-flush fault escaped the group-commit harness"
      | rp :: _ ->
          let rep = Shardsim.run gcfg ~seed:rp.Sweep.rp_seed rp.Sweep.rp_mode in
          Alcotest.(check bool) "replay reproduces the failure" true (Sweep.confirms rp rep));
  let r = Shardsim.run gcfg ~seed:11 Sweep.Run in
  Alcotest.(check (list string)) "clean after fault removed" [] r.Sweep.rr_failures

(* ------------------------------------------------------------------ *)
(* Storage-fault sweeps (PR 5): the same workloads over an adversarial
   disk — transient EIO, bit-rot, torn page/log images. The bar: every run
   either recovers exactly to the oracle or fails loudly with a typed
   [Storage_error] reproducer. Oracle mismatches, leaks, discipline
   violations and bare parser exceptions are fatal even under faults. *)

let test_fault_seed_sweep () =
  let sink = Stats.create () in
  let s =
    Stats.with_sink sink (fun () ->
        seed_runs ~workload:"faults" Workload.fault_cfg (List.init 32 (fun i -> i + 1)))
  in
  (match Sweep.fatal_failures s with [] -> () | fs -> fail_with fs);
  (* the adversarial disk must actually have misbehaved, and bounded
     retries must have absorbed the transient errors (a completed run under
     faults implies every EIO was retried away) *)
  Alcotest.(check bool) "faults were injected" true
    (Stats.get sink Stats.disk_eio_injected > 0 && Stats.get sink Stats.disk_bit_flips > 0);
  Alcotest.(check bool) "transient EIOs were retried" true
    (Stats.get sink Stats.disk_retries > 0)

let test_fault_crash_sweep () =
  let sink = Stats.create () in
  let points = ref 0 in
  let fatal = ref [] in
  Stats.with_sink sink (fun () ->
      List.iter
        (fun seed ->
          let s =
            Sweep.crash_sweep ~workload:"faults" (Shardsim.run Workload.fault_cfg) ~seed ~budget:30
          in
          points := !points + s.Sweep.sm_armed;
          fatal := !fatal @ Sweep.fatal_failures s)
        [ 1101; 2202; 3303 ]);
  if !fatal <> [] then fail_with !fatal;
  Alcotest.(check bool)
    (Printf.sprintf "fault crash points >= 60 (got %d)" !points)
    true (!points >= 60);
  (* crashing mid-write over a torn-write disk must have left torn images
     for the tail scan / repair path to deal with at least once *)
  Alcotest.(check bool) "torn images or torn log tails occurred" true
    (Stats.get sink Stats.disk_torn_writes > 0
    || Stats.get sink Stats.log_tail_truncations > 0);
  (* restart re-reads pages from the adversarial disk, so at least one
     CRC-failing image must have been quarantined and rebuilt from the
     archive + log by automatic media repair (the PR 5 acceptance bar) *)
  Alcotest.(check bool)
    (Printf.sprintf "automatic media repair ran (quarantines=%d repairs=%d)"
       (Stats.get sink Stats.disk_quarantines)
       (Stats.get sink Stats.disk_repairs))
    true
    (Stats.get sink Stats.disk_repairs > 0)

let test_fault_crash_sweep_group () =
  let points = ref 0 in
  let fatal = ref [] in
  List.iter
    (fun seed ->
      let s =
        Sweep.crash_sweep ~workload:"faults+group+cleaner" (Shardsim.run Workload.fault_group_cfg)
          ~seed ~budget:30
      in
      points := !points + s.Sweep.sm_armed;
      fatal := !fatal @ Sweep.fatal_failures s)
    [ 4404; 5505 ];
  if !fatal <> [] then fail_with !fatal;
  Alcotest.(check bool)
    (Printf.sprintf "group-mode fault crash points >= 40 (got %d)" !points)
    true (!points >= 40)

(* The pure transient-EIO storm: no stored byte is ever corrupted, so the
   runs must not merely fail loudly — they must all pass outright (bounded
   retry absorbs every injected error), including the batched commit
   pipeline whose force must delay, never drop, its batch. *)
let test_fault_eio_storm () =
  let sink = Stats.create () in
  let s =
    Stats.with_sink sink (fun () ->
        Sweep.sweep ~workload:"eio-only+group" (Shardsim.run Workload.fault_eio_cfg)
          ~seeds:(List.init 16 (fun i -> i + 21))
          ~crash_seeds:[ 21; 22 ] ~crash_budget:20)
  in
  if s.Sweep.sm_failures <> [] then fail_with s.Sweep.sm_failures;
  Alcotest.(check bool) "the storm actually hit" true
    (Stats.get sink Stats.disk_eio_injected > 0);
  Alcotest.(check bool) "retries absorbed it" true (Stats.get sink Stats.disk_retries > 0)

(* Fault runs are as replayable as fault-free ones: the fault stream is a
   pure function of (run seed, cfg). *)
let test_fault_determinism () =
  let a = Shardsim.run Workload.fault_cfg ~seed:9 Sweep.Run in
  let b = Shardsim.run Workload.fault_cfg ~seed:9 Sweep.Run in
  Alcotest.(check bool) "fault runs identical" true (a = b);
  let a = Shardsim.run Workload.fault_cfg ~seed:9 (Sweep.Crash 23) in
  let b = Shardsim.run Workload.fault_cfg ~seed:9 (Sweep.Crash 23) in
  Alcotest.(check bool) "fault crash-cut runs identical" true (a = b)

(* The meta-fault: with CRC verification switched off, bit-rot flows
   straight through the codecs — the committed-state oracle (not the
   checksums) must be what catches the corruption. Detection layers may
   not silently paper over each other. Crash sweeps drive it, because only
   a post-crash restart re-reads the rotten images from disk. *)
let test_crc_disabled_meta_fault () =
  Fun.protect ~finally:Crashpoint.clear (fun () ->
      Crashpoint.enable Crashpoint.Crc_check_disabled;
      let bitrot =
        { Aries_util.Faultdisk.eio_read_p = 0.0; eio_write_p = 0.0; eio_force_p = 0.0;
          bit_flip_p = 0.25; torn_write = false; torn_append = false; stream_shuffle = false }
      in
      let cfg = { Workload.default_cfg with Workload.faults = Some bitrot } in
      let failures = ref [] in
      List.iter
        (fun seed ->
          let s = Sweep.crash_sweep ~workload:"bitrot" (Shardsim.run cfg) ~seed ~budget:25 in
          failures := !failures @ s.Sweep.sm_failures)
        [ 31; 32; 33 ];
      match !failures with
      | [] -> Alcotest.fail "bit-rot with CRC checks disabled escaped the oracle"
      | rp :: _ ->
          let rep = Shardsim.run cfg ~seed:rp.Sweep.rp_seed rp.Sweep.rp_mode in
          Alcotest.(check bool) "replay reproduces the failure" true (Sweep.confirms rp rep))

(* ------------------------------------------------------------------ *)
(* Instant restart (PR 6): recovery during recovery. Phase 1 crashes the
   workload at a sampled cut; phase 2 recovers with the instant engine
   while a fresh workload runs against the still-draining Db — and the
   sweep crashes phase 2 at every sampled durability point, including
   points inside the drain itself, finishing with a classic restart.
   Every run must converge to the committed-state oracle with zero R1-R7
   violations and no leaks. *)

let test_instant_sweep () =
  let points = ref 0 and failures = ref [] in
  List.iter
    (fun seed ->
      let s = Sweep.instant_sweep ~workload:"default" (Shardsim.run cfg) ~seed ~budget:40 in
      points := !points + s.Sweep.sm_armed;
      failures := !failures @ s.Sweep.sm_failures)
    [ 61; 62; 63 ];
  if !failures <> [] then fail_with !failures;
  Alcotest.(check bool)
    (Printf.sprintf "instant crash points >= 60 (got %d)" !points)
    true (!points >= 60)

let test_instant_sweep_group () =
  let points = ref 0 and failures = ref [] in
  List.iter
    (fun seed ->
      let s = Sweep.instant_sweep ~workload:"group+cleaner" (Shardsim.run gcfg) ~seed ~budget:30 in
      points := !points + s.Sweep.sm_armed;
      failures := !failures @ s.Sweep.sm_failures)
    [ 71; 72 ];
  if !failures <> [] then fail_with !failures;
  Alcotest.(check bool)
    (Printf.sprintf "group-mode instant crash points >= 30 (got %d)" !points)
    true (!points >= 30)

(* Two-phase instant runs are as deterministic as plain ones, and the
   mode round-trips through its reproducer string. *)
let test_instant_determinism () =
  let a = Shardsim.run cfg ~seed:7 (Sweep.Instant (5, None)) in
  let b = Shardsim.run cfg ~seed:7 (Sweep.Instant (5, None)) in
  Alcotest.(check bool) "instant runs identical" true (a = b);
  let mode = Sweep.Instant (5, Some 3) in
  let a = Shardsim.run cfg ~seed:7 mode in
  let b = Shardsim.run cfg ~seed:7 mode in
  Alcotest.(check bool) "recovery-crash runs identical" true (a = b);
  Alcotest.(check string) "mode string" "instant=5/3" (Sweep.mode_to_string mode);
  let rep = Shardsim.run cfg ~seed:7 (Sweep.mode_of_string (Sweep.mode_to_string mode)) in
  Alcotest.(check bool) "replay matches" true (rep = a)

(* Pinned reproducers: runs that once failed, replayed to a clean pass. *)
let replay_clean cfg ~seed mode =
  let rep = Shardsim.run cfg ~seed (Sweep.mode_of_string mode) in
  Alcotest.(check (list string)) "no failures" [] rep.Sweep.rr_failures

(* Four streams with the crash-time flush shuffle: a checkpoint that
   survived without its master named records the shuffle lost. Instant
   restart must take per-page chains from the anchoring checkpoint only,
   or per-page redo reads past a stream's end and loses pages. *)
let test_replay_nonanchor_chains () =
  replay_clean Workload.multistream_group_cfg ~seed:1008 "instant=90"

(* The same shape for the transaction table: a transaction the scan never
   met must not be restored from such a checkpoint, or its undo cursors
   point past the end of a stream the crash cut short. *)
let test_replay_nonanchor_txns () =
  replay_clean Workload.multistream_cfg ~seed:2001 "instant=131/93"

(* A checkpoint taken mid-rollback records an NTA anchor's turn as past;
   a later cross-stream CLR must not send its own stream's cursor back
   over the SMO bracket the anchor fenced, or restart undoes the split
   physically and then cannot find the key it should undo logically. *)
let test_replay_clr_keeps_own_cursor () =
  replay_clean Workload.multistream_cfg ~seed:2018 "instant=145/133"

(* The fate of a transaction is the stable state's at the crash that cut
   it: a Commit whose fence target the crash lost is a loser, even after
   later appends reuse the target's offset and truncation archives it. *)
let test_replay_fate_fixed_at_crash () =
  replay_clean Workload.multistream_group_cfg ~seed:2001 "instant=79"

(* A logical undo whose CLR lands on another stream (the key moved) must
   be durable before rollback goes on: otherwise a crash can keep a later
   CLR on the compensated record's stream and lose this one, and restart
   leaves the loser's insert in the tree. *)
let test_replay_cross_stream_clr_forced () =
  replay_clean Workload.multistream_cfg ~seed:2010 "instant=31/116"

(* Instant restart undoes in one reverse-gsn order: a loser whose records
   are all lock-fenced must still be compensated before another loser's
   half-open SMO beneath them is rolled back physically. Undone later, its
   logical undo cannot find the key the physical rollback moved. *)
let test_replay_one_undo_order () =
  replay_clean Workload.multistream_group_cfg ~seed:2019 "instant=88"

(* Bit-rot on the repair's own page write: the repairer healed the page in
   the pool, and the fix must serve that frame instead of re-reading the
   rotted image and failing with a checksum error. *)
let test_replay_repair_serves_healed_page () =
  replay_clean Workload.fault_group_cfg ~seed:1011 "crash=80"

(* A harder cfg: more fibers and txns, tighter pool, hotter yields — the
   shape the bench entry scales up. One seed keeps CI fast. *)
let test_stress_cfg () =
  let cfg =
    {
      cfg with
      Workload.fibers = 5;
      txns_per_fiber = 8;
      max_ops_per_txn = 6;
      pool_capacity = 8;
      yield_probability = 0.35;
      steal_probability = 0.25;
    }
  in
  let s =
    Sweep.sweep ~workload:"stress" (Shardsim.run cfg) ~seeds:[ 900 ] ~crash_seeds:[ 901 ]
      ~crash_budget:40
  in
  if s.Sweep.sm_failures <> [] then fail_with s.Sweep.sm_failures

(* A violation that kills one fiber can leave its peers suspended on the
   dead fiber's locks while the service daemons keep yielding: the run
   must end at the step budget with the violation and the budget both
   reported, not spin. *)
let check_ends_at_budget ~rule (r : Sweep.report) =
  match List.rev r.Sweep.rr_failures with
  | last :: rest ->
      Alcotest.(check bool) "ends with the exhausted budget" true
        (contains ~sub:"step budget exhausted" last);
      Alcotest.(check bool) ("reports the " ^ rule ^ " violation") true
        (List.exists (contains ~sub:(rule ^ ":")) rest)
  | [] -> Alcotest.fail "meta-fault run passed"

let test_mvcc_reader_lock_ends_at_budget () =
  Fun.protect ~finally:Crashpoint.clear (fun () ->
      Crashpoint.enable Crashpoint.Mvcc_reader_key_lock;
      check_ends_at_budget ~rule:"R9" (Shardsim.run Workload.mvcc_cfg ~seed:41 Sweep.Run))

(* ------------------------------------------------------------------ *)
(* The sharded harness under the same engine: a small sweep over every
   mode, determinism, and the presumed-abort meta-fault (a coordinator
   that acknowledges its commit decision before forcing it, rule R10). *)

let scfg = Workload.shards_cfg

let test_shard_sweep () =
  let s =
    Shardsim.sweep ~workload:"shards" scfg ~seeds:[ 1; 2 ] ~crash_seeds:[ 1001 ] ~crash_budget:6
  in
  if s.Sweep.sm_failures <> [] then fail_with s.Sweep.sm_failures;
  (* 2 seed runs, 1 crash recording, one kill recording per shard, one
     downed-shard run per shard *)
  Alcotest.(check int) "unarmed runs" (3 + (2 * scfg.Workload.shards))
    (s.Sweep.sm_runs - s.Sweep.sm_armed);
  Alcotest.(check bool) "crash and kill points armed" true (s.Sweep.sm_armed >= 6);
  Alcotest.(check bool) "commits acknowledged" true (s.Sweep.sm_acked > 0)

let test_shard_determinism () =
  List.iter
    (fun mode ->
      let a = Shardsim.run scfg ~seed:3 mode in
      let b = Shardsim.run scfg ~seed:3 mode in
      Alcotest.(check bool) (Sweep.mode_to_string mode ^ " runs identical") true (a = b))
    Sweep.[ Run; Crash 40; Instant (30, None); Kill (1, Some 30); Down 2 ]

let test_shard_early_decide_replays () =
  Fun.protect ~finally:Crashpoint.clear (fun () ->
      Crashpoint.enable Crashpoint.Twopc_early_decide;
      let s =
        Shardsim.sweep ~workload:"shards" scfg ~seeds:[ 1; 2 ] ~crash_seeds:[ 1001 ] ~crash_budget:6
      in
      match s.Sweep.sm_failures with
      | [] -> Alcotest.fail "2pc.early-decide escaped the sharded harness"
      | rp :: _ ->
          let rep =
            Shardsim.run scfg ~seed:rp.Sweep.rp_seed
              (Sweep.mode_of_string (Sweep.mode_to_string rp.Sweep.rp_mode))
          in
          Alcotest.(check bool) "replay reproduces the failure" true (Sweep.confirms rp rep))

(* A cluster crashes again inside its own recovery phase — mid-drain or
   mid-resolution — and a classic restart must converge; the run is as
   deterministic as the others and replays from its mode string. *)
let test_shard_double_crash () =
  let mode = Sweep.Instant (30, Some 20) in
  let a = Shardsim.run scfg ~seed:3 mode in
  Alcotest.(check (list string)) "converges" [] a.Sweep.rr_failures;
  Alcotest.(check bool) "runs identical" true (a = Shardsim.run scfg ~seed:3 mode);
  Alcotest.(check string) "mode string" "instant=30/20" (Sweep.mode_to_string mode);
  let rep = Shardsim.run scfg ~seed:3 (Sweep.mode_of_string (Sweep.mode_to_string mode)) in
  Alcotest.(check bool) "replay matches" true (rep = a)

(* One shard is the single-Db harness: every transaction has one branch
   and commits locally, so no run appends a Prepare or a decision. *)
let test_single_shard_no_2pc () =
  let sink = Stats.create () in
  let t =
    Sharddb.create ~shards:1 ~page_size:cfg.Workload.page_size
      ~pool_capacity:cfg.Workload.pool_capacity ~segment_size:cfg.Workload.segment_size ()
  in
  let trace = Vec.create () in
  let acked =
    Stats.with_sink sink (fun () ->
        let r =
          Sharddb.run t (fun () ->
              Sharddb.setup t;
              Workload.spawn_fibers t cfg ~seed:1 ~trace)
        in
        Alcotest.(check bool) "workload completed" true (r.Aries_sched.Sched.exns = []);
        let s =
          Sweep.sweep ~workload:"default" (Shardsim.run cfg) ~seeds:[ 1; 2; 3 ]
            ~crash_seeds:[ 1001 ] ~crash_budget:10
        in
        if s.Sweep.sm_failures <> [] then fail_with s.Sweep.sm_failures;
        s.Sweep.sm_acked)
  in
  Alcotest.(check bool) "commits acknowledged" true (acked > 0);
  Alcotest.(check int) "txn.prepares" 0 (Stats.get sink Stats.txn_prepares);
  Alcotest.(check int) "decisions" 0 (Hashtbl.length (Twopc.decisions (Sharddb.db t 0)))

let test_shard_early_decide_ends_at_budget () =
  Fun.protect ~finally:Crashpoint.clear (fun () ->
      Crashpoint.enable Crashpoint.Twopc_early_decide;
      check_ends_at_budget ~rule:"R10" (Shardsim.run scfg ~seed:1 Sweep.Run))

let () =
  Alcotest.run "sim"
    [
      ( "sim",
        [
          Alcotest.test_case "seed sweep (64 seeds)" `Quick test_seed_sweep;
          Alcotest.test_case "crash sweep (>=200 points)" `Quick test_crash_sweep;
          Alcotest.test_case "seed sweep, group commit + cleaner" `Quick
            test_seed_sweep_group;
          Alcotest.test_case "crash sweep, group commit + cleaner (>=150 points)" `Quick
            test_crash_sweep_group;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "unreachable crash index" `Quick test_unreachable_crash_index;
          Alcotest.test_case "injected skip-flush fault is caught" `Quick
            test_injected_fault_is_caught;
          Alcotest.test_case "injected skip-flush fault is caught (group commit)" `Quick
            test_injected_fault_is_caught_group;
          Alcotest.test_case "stress cfg" `Quick test_stress_cfg;
          Alcotest.test_case "mvcc.reader-key-lock run ends at the step budget" `Quick
            test_mvcc_reader_lock_ends_at_budget;
        ] );
      ( "shards",
        [
          Alcotest.test_case "seed, crash, kill and degrade sweep" `Quick test_shard_sweep;
          Alcotest.test_case "determinism" `Quick test_shard_determinism;
          Alcotest.test_case "2pc.early-decide reproducer replays" `Quick
            test_shard_early_decide_replays;
          Alcotest.test_case "2pc.early-decide run ends at the step budget" `Quick
            test_shard_early_decide_ends_at_budget;
          Alcotest.test_case "second crash inside cluster recovery" `Quick
            test_shard_double_crash;
          Alcotest.test_case "one shard writes no 2PC record" `Quick test_single_shard_no_2pc;
        ] );
      ( "instant",
        [
          Alcotest.test_case "recovery-during-recovery sweep (>=60 points)" `Quick
            test_instant_sweep;
          Alcotest.test_case "recovery-during-recovery sweep, group commit (>=30 points)"
            `Quick test_instant_sweep_group;
          Alcotest.test_case "instant determinism + replay" `Quick test_instant_determinism;
          Alcotest.test_case "replay: chains from the anchoring checkpoint only" `Quick
            test_replay_nonanchor_chains;
          Alcotest.test_case "replay: txns from the anchoring checkpoint only" `Quick
            test_replay_nonanchor_txns;
          Alcotest.test_case "replay: a cross-stream CLR keeps its own cursor" `Quick
            test_replay_clr_keeps_own_cursor;
          Alcotest.test_case "replay: a crash fixes the fate of what it cut" `Quick
            test_replay_fate_fixed_at_crash;
          Alcotest.test_case "replay: a cross-stream CLR is forced before rollback goes on"
            `Quick test_replay_cross_stream_clr_forced;
          Alcotest.test_case
            "replay: a deferred loser is undone before an eager SMO rollback beneath it" `Quick
            test_replay_one_undo_order;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fault seed sweep (32 seeds)" `Quick test_fault_seed_sweep;
          Alcotest.test_case "fault crash sweep (>=60 points)" `Quick test_fault_crash_sweep;
          Alcotest.test_case "fault crash sweep, group commit (>=40 points)" `Quick
            test_fault_crash_sweep_group;
          Alcotest.test_case "transient-EIO storm passes outright" `Quick test_fault_eio_storm;
          Alcotest.test_case "fault determinism" `Quick test_fault_determinism;
          Alcotest.test_case "replay: media repair serves the healed page" `Quick
            test_replay_repair_serves_healed_page;
          Alcotest.test_case "crc.check-disabled meta-fault is caught by the oracle" `Quick
            test_crc_disabled_meta_fault;
        ] );
    ]
