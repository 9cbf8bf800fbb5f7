open Aries_util
module Btree = Aries_btree.Btree
module Bufpool = Aries_buffer.Bufpool
module Sched = Aries_sched.Sched
module Db = Aries_db.Db

(* Invariants + oracle + leak audit, in one pass. Called inside the
   scheduler (tree reads latch pages). [phase] prefixes every finding so a
   post-restart divergence is distinguishable from a post-run one. *)
let check_state db tree (trace : Workload.trace) ~phase failures =
  let fail fmt =
    Printf.ksprintf (fun s -> failures := (phase ^ ": " ^ s) :: !failures) fmt
  in
  (try Btree.check_invariants tree with
  | Failure m -> fail "tree invariant violated: %s" m
  | e -> fail "check_invariants raised %s" (Printexc.to_string e));
  let committed = Oracle.committed_txns db in
  List.iter (fun m -> fail "%s" m) (Workload.consistency_failures trace committed);
  let expected = Workload.expected_state trace committed in
  let actual = Btree.to_list tree in
  List.iter (fun m -> fail "state mismatch: %s" m) (Oracle.diff_lines expected actual);
  List.iter (fun m -> fail "leak: %s" m) (Db.leak_report db)

(* The btree config a workload cfg selects (its locking protocol over the
   stock defaults). Passed to [Db.create] and to every [Db.crash] — the
   post-crash environment must re-open its trees under the same protocol. *)
let btree_config (cfg : Workload.cfg) =
  { Btree.default_config with locking = cfg.Workload.locking }

(* An unarmed single-computation phase: setup, restart, oracle checks. *)
let checked db failures ~what f =
  Sweep.phase failures ~what (fun max_steps -> Db.run db ~max_steps f)

(* A workload phase under the run's seeded random schedule, with the
   randomized steal hook on and the crash hook armed at [armed_at].
   Returns the phase's durability events. *)
let workload_phase (cfg : Workload.cfg) db failures ~what ~steal_seed ~policy ?armed_at main =
  Bufpool.set_steal_hook db.Db.pool ~seed:steal_seed ~probability:cfg.Workload.steal_probability;
  Crashpoint.reset ();
  Option.iter (fun k -> Crashpoint.arm ~at:k) armed_at;
  Sweep.phase failures ~what ?armed_at (fun max_steps ->
      Db.run db ~policy ~max_steps ~yield_probability:cfg.Workload.yield_probability main);
  let events = Crashpoint.count () in
  Crashpoint.disarm ();
  Bufpool.clear_steal_hook db.Db.pool;
  events

(* Power failure: the stable state is frozen at the trip, so [Db.crash] +
   classic restart must recover exactly the oracle's committed state. *)
let restart_and_check db index trace failures ~what =
  let db' = Db.crash db in
  checked db' failures ~what (fun () ->
      ignore (Db.restart db');
      check_state db' (Btree.open_existing db'.Db.benv index) trace ~phase:what failures)

let run (cfg : Workload.cfg) ~seed (mode : Sweep.mode) : Sweep.report =
  let crash_at, instant =
    match mode with
    | Sweep.Run -> (None, None)
    | Sweep.Crash k -> (Some k, None)
    | Sweep.Instant (cut, k2) -> (Some cut, Some k2)
    | Sweep.Kill _ | Sweep.Down _ ->
        invalid_arg ("Sim.run: a single Db has no shard to " ^ Sweep.mode_to_string mode)
  in
  (* Setup (environment + empty tree) happens with the hook quiet so crash
     indices enumerate only workload-phase durability events and the tree's
     anchor is always recoverable. Every simulated machine gets a fresh
     protocol tracer + discipline checker; a failing run dumps its event
     window into the reproducer. *)
  Sweep.fresh_machine ();
  let failures = ref [] in
  let db =
    Db.create ~page_size:cfg.Workload.page_size ~pool_capacity:cfg.Workload.pool_capacity
      ~config:(btree_config cfg) ~commit_mode:cfg.Workload.commit_mode
      ?cleaner:cfg.Workload.cleaner ?checkpoint:cfg.Workload.checkpoint ?vgc:cfg.Workload.vgc
      ~segment_size:cfg.Workload.segment_size ~streams:cfg.Workload.streams ()
  in
  let tree = ref None in
  checked db failures ~what:"setup" (fun () ->
      tree :=
        Some (Db.with_txn db (fun txn -> Btree.create db.Db.benv txn ~name:"sim" ~unique:false)));
  let trace : Workload.trace = Vec.create () in
  let events = ref 0 in
  (match !tree with
  | None -> ()
  | Some tree ->
      (* Storage faults arm after setup (the empty tree's anchor is never
         fault-damaged, mirroring the quiet-setup rule for crash points)
         and stay armed through crash + restart, so recovery itself runs
         over the adversarial disk. The fault stream is seeded from the run
         seed, so a fault run is as replayable as a fault-free one. *)
      Option.iter (fun f -> Faultdisk.arm ~seed:(seed lxor 0xFA17) f) cfg.Workload.faults;
      Fun.protect ~finally:Faultdisk.disarm @@ fun () ->
      let index = Btree.index_id tree in
      events :=
        workload_phase cfg db failures ~what:"workload" ~steal_seed:(seed + 0x51ea1)
          ~policy:(Sched.Random seed) ?armed_at:crash_at (fun () ->
            Workload.spawn_fibers db tree cfg ~seed ~trace);
      if !failures = [] then
        match (crash_at, instant) with
        | None, _ ->
            checked db failures ~what:"post-run" (fun () ->
                check_state db tree trace ~phase:"post-run" failures)
        | Some _, None -> restart_and_check db index trace failures ~what:"post-restart"
        | Some _, Some crash_at2 ->
            (* Recovery during recovery: the Db opens right after Analysis
               and a second workload phase (key slices disjoint from the
               first, via [fiber_base]) runs against the drain daemon's
               background redo/undo, on-demand page redo and lock-driven
               loser preemption. [rr_events] then counts this phase, so
               [crash_at2] is swept like [crash_at]. *)
            let db' = Db.crash db in
            events :=
              workload_phase cfg db' failures ~what:"recovery phase" ~steal_seed:(seed + 0x51ea2)
                ~policy:(Sched.Random (seed lxor 0x1257a2)) ?armed_at:crash_at2 (fun () ->
                  ignore (Db.restart ~instant:true db');
                  (* a phase-1 transaction that crashed before logging
                     anything durable is invisible to analysis and its id
                     can be reissued; the oracle keys the shared trace by
                     txn id, so phase 2 lives in a disjoint id range *)
                  Aries_txn.Txnmgr.note_txn_id db'.Db.mgr 100_000;
                  let tree' = Btree.open_existing db'.Db.benv index in
                  Workload.spawn_fibers ~fiber_base:cfg.Workload.fibers db' tree' cfg ~seed ~trace);
            if !failures = [] then
              if crash_at2 = None then
                checked db' failures ~what:"post-instant" (fun () ->
                    check_state db'
                      (Btree.open_existing db'.Db.benv index)
                      trace ~phase:"post-instant" failures)
              else
                (* the second power failure may cut instant restart itself;
                   its partial work (CLRs, redone pages, its restart
                   checkpoint) is just more history for a classic restart *)
                restart_and_check db' index trace failures ~what:"post-restart2");
  {
    Sweep.rr_events = !events;
    rr_txns = Vec.length trace;
    rr_acked = Vec.fold (fun n t -> if t.Workload.tt_acked then n + 1 else n) 0 trace;
    rr_resolved = 0;
    rr_failures = List.rev !failures;
    rr_trace = Workload.trace_to_string trace;
    rr_event_dump = Sweep.dump_if_failed failures;
  }
