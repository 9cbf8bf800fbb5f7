(* The per-figure experiments (E1-E11) and the quantitative claims
   (Q series). The figures are the schedules of test/figures/figures.ml,
   which test_scenarios also asserts: each eN entry prints every check of
   its figure as CONFIRMED or VIOLATED and, through bench/record.ml, writes
   _bench/eN.json and exits 1 if one is violated. EXPERIMENTS.md records
   expected-vs-measured. *)

open Aries_util
open Workload
open Aries_figures.Figures
module Lockmgr = Aries_lock.Lockmgr
module Bufpool = Aries_buffer.Bufpool
module Restart = Aries_recovery.Restart
module Media = Aries_recovery.Media
module Disk = Aries_page.Disk
module Page = Aries_page.Page

let figure (id, title, run) =
  ( id,
    fun ppf ->
      let r = Record.start ppf id title in
      List.iter (fun c -> Record.check r c.name ~ok:c.ok) (run ());
      Record.finish r )

(* ------------------------------------------------------------------ *)
(* Q1: locks acquired per operation, by protocol (through the Table layer,
   so record-manager locks are included). *)

let q1 ppf =
  section ppf "Q1: lock requests per operation (1 record, 2 indexes)";
  let specs =
    [
      { Table.sp_name = "pk"; sp_unique = true; sp_key = (fun r -> r.(0)) };
      { Table.sp_name = "cat"; sp_unique = false; sp_key = (fun r -> r.(1)) };
    ]
  in
  Format.fprintf ppf "  %-16s %8s %8s %8s %8s@." "protocol" "fetch" "insert" "delete" "scan25";
  List.iter
    (fun locking ->
      let config = config_of locking in
      let db = Db.create ~config () in
      let tbl =
        Db.run_exn db (fun () -> Db.with_txn db (fun txn -> Table.create db txn ~id:1 specs))
      in
      Db.run_exn db (fun () ->
          Db.with_txn db (fun txn ->
              for i = 0 to 199 do
                ignore
                  (Table.insert tbl txn
                     [| Printf.sprintf "item%04d" i; Printf.sprintf "cat%d" (i mod 8) |])
              done));
      let count f =
        let (), s = measured (fun () -> Db.run_exn db (fun () -> Db.with_txn db f)) in
        Stats.get s Stats.lock_requests
      in
      let f = count (fun txn -> ignore (Table.fetch tbl txn ~index:"pk" "item0100")) in
      let i = count (fun txn -> ignore (Table.insert tbl txn [| "item9000"; "cat1" |])) in
      let d =
        count (fun txn ->
            match Table.fetch tbl txn ~index:"pk" "item0050" with
            | Some (r, _) -> Table.delete tbl txn r
            | None -> ())
      in
      let s =
        count (fun txn -> ignore (Table.scan tbl txn ~index:"cat" "cat3" ~stop:("cat3", `Le) ()))
      in
      Format.fprintf ppf "  %-16s %8d %8d %8d %8d@." (Protocol.locking_to_string locking) f i d s)
    protocols;
  Format.fprintf ppf
    "  Paper (§1,§5): ARIES/IM data-only locking acquires the minimal number of@.";
  Format.fprintf ppf "  locks; System R-style locking acquires the most.@."

(* Q2: lock waits under contention, by protocol *)

let q2 ppf =
  section ppf "Q2: concurrency — lock waits and deadlocks under contention";
  Format.fprintf ppf "  %-16s %10s %10s %10s@." "protocol" "committed" "lock-waits" "deadlocks";
  List.iter
    (fun locking ->
      let config = config_of locking in
      (* a nonunique index over a handful of hot key values: readers fetch a
         value while writers add fresh duplicates of it. Under key locking
         (IM) the reader's lock covers one key; under value locking (KVL /
         System R) it covers every duplicate, so writers conflict. *)
      let db, tree = fresh ~page_size:512 ~unique:false ~config () in
      let hot = 8 in
      Db.run_exn db (fun () ->
          Db.with_txn db (fun txn ->
              for i = 0 to 79 do
                Btree.insert tree txn ~value:(v (i mod hot)) ~rid:(rid i)
              done));
      let committed = ref 0 in
      let next_rid = ref 1000 in
      let (), s =
        measured (fun () ->
            ignore
              (Db.run db ~policy:(Sched.Random 11) ~yield_probability:0.2 (fun () ->
                   for f = 0 to 5 do
                     let rng = Rng.create (100 + f) in
                     ignore
                       (Sched.spawn (fun () ->
                            for _ = 1 to 25 do
                              let t = Txnmgr.begin_txn db.Db.mgr in
                              match
                                for _ = 1 to 3 do
                                  let value = v (Rng.int rng hot) in
                                  if Rng.bool rng then
                                    (* reader *)
                                    ignore (Btree.fetch tree t value)
                                  else begin
                                    (* writer: fresh duplicate of a hot value *)
                                    incr next_rid;
                                    let r = rid !next_rid in
                                    Txnmgr.lock db.Db.mgr t (Lockmgr.Rid r) Lockmgr.X
                                      Lockmgr.Commit;
                                    Btree.insert tree t ~value ~rid:r
                                  end
                                done
                              with
                              | () ->
                                  Txnmgr.commit db.Db.mgr t;
                                  incr committed
                              | exception Txnmgr.Aborted _ -> ()
                            done))
                   done)))
      in
      Format.fprintf ppf "  %-16s %10d %10d %10d@."
        (Protocol.locking_to_string locking)
        !committed
        (Stats.get s Stats.lock_waits)
        (Stats.get s Stats.lock_deadlocks))
    protocols;
  Format.fprintf ppf
    "  Paper (§1): more permitted interleavings under ARIES/IM; value-level and@.";
  Format.fprintf ppf "  commit-duration locking produce more waits on the same workload.@."

(* Q3: restart recovery is page-oriented *)

let q3 ppf =
  section ppf "Q3: restart recovery — page-oriented redo, page-oriented undo when possible";
  let db, tree = fresh ~page_size:384 () in
  Bufpool.set_steal_hook db.Db.pool ~seed:3 ~probability:0.15;
  (* even keys committed; the loser scatters inserts (odd keys) and deletes
     (existing evens) across the tree — the typical case the paper argues
     stays page-oriented *)
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 299 do
            Btree.insert tree txn ~value:(v (2 * i)) ~rid:(rid (2 * i))
          done));
  Bufpool.flush_all db.Db.pool;
  Db.checkpoint db;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 99 do
            Btree.insert tree txn ~value:(v ((14 * i mod 600) + 1)) ~rid:(rid ((14 * i mod 600) + 1))
          done));
  ignore
    (Db.run db (fun () ->
         let t = Txnmgr.begin_txn db.Db.mgr in
         (* scattered fresh inserts: each sorts right after an existing even
            key, so pages rarely split and undo stays page-oriented *)
         for i = 0 to 49 do
           let k = 2 * ((13 * i) mod 300) in
           Btree.insert tree t ~value:(v k ^ "a") ~rid:(rid (700 + i))
         done;
         for i = 0 to 49 do
           let k = 2 * ((11 * i) mod 300) in
           Btree.delete tree t ~value:(v k) ~rid:(rid k)
         done;
         Logmgr.flush db.Db.wal));
  let db' = Db.crash db in
  let report, s = measured (fun () -> Db.run_exn db' (fun () -> Db.restart db')) in
  kv ppf "log records analyzed" "%d" report.Restart.rp_records_analyzed;
  kv ppf "redo: records scanned / applied / skipped" "%d / %d / %d"
    report.Restart.rp_records_redo_scanned report.Restart.rp_redos_applied
    report.Restart.rp_redos_skipped;
  kv ppf "tree traversals during redo" "%d (paper: always 0)" report.Restart.rp_redo_traversals;
  kv ppf "undo: records processed" "%d" report.Restart.rp_undo_records;
  kv ppf "undo: page-oriented / logical" "%d / %d"
    (Stats.get s Stats.page_oriented_undos)
    (Stats.get s Stats.logical_undos);
  let tree' = Btree.open_existing db'.Db.benv (Btree.index_id tree) in
  Btree.check_invariants tree';
  kv ppf "recovered keys" "%d (expected 400)" (List.length (Btree.to_list tree'))

(* Q4: rolling-back transactions never deadlock *)

let q4 ppf =
  section ppf "Q4: rolling-back transactions never deadlock";
  let db, tree = fresh ~page_size:384 () in
  seed_keys db tree 0 99;
  let rng = Rng.create 99 in
  let deadlocks = ref 0 and committed = ref 0 and rolled_back = ref 0 in
  let (), s =
    measured (fun () ->
        ignore
          (Db.run db ~policy:(Sched.Random 99) ~yield_probability:0.2 (fun () ->
               for _f = 1 to 6 do
                 ignore
                   (Sched.spawn (fun () ->
                        for _ = 1 to 20 do
                          let t = Txnmgr.begin_txn db.Db.mgr in
                          match
                            for _ = 1 to 1 + Rng.int rng 4 do
                              let i = Rng.int rng 400 in
                              Txnmgr.lock db.Db.mgr t (Lockmgr.Rid (rid i)) Lockmgr.X
                                Lockmgr.Commit;
                              let value = v i in
                              try Btree.insert tree t ~value ~rid:(rid i)
                              with Btree.Unique_violation _ -> (
                                try Btree.delete tree t ~value ~rid:(rid i)
                                with Btree.Key_not_found _ -> ())
                            done
                          with
                          | () ->
                              if Rng.int rng 3 = 0 then begin
                                Txnmgr.rollback db.Db.mgr t;
                                incr rolled_back
                              end
                              else begin
                                Txnmgr.commit db.Db.mgr t;
                                incr committed
                              end
                          | exception Txnmgr.Aborted _ -> incr deadlocks
                        done))
               done)))
  in
  kv ppf "transactions committed / rolled back / deadlock-aborted" "%d / %d / %d" !committed
    !rolled_back !deadlocks;
  kv ppf "deadlock victims that were rolling back" "%d (by construction: %s)" 0
    "rollbacks request no locks and are exempt from victim selection";
  kv ppf "lock waits total" "%d" (Stats.get s Stats.lock_waits);
  Btree.check_invariants tree;
  kv ppf "tree invariants after the storm" "%s" "hold"

(* Q5: SMOs concurrent with other operations vs a serialize-everything
   strawman *)

let q5 ppf =
  section ppf "Q5: operations concurrent with SMOs vs tree-latch-everything strawman";
  let run ~strawman =
    let config = { Btree.default_config with Btree.serialize_smo_ops = strawman } in
    let db, tree = fresh ~page_size:384 ~config () in
    seed_keys db tree 0 49;
    let completed = ref 0 in
    let steps = 40_000 in
    ignore
      (Db.run db ~policy:(Sched.Random 5) ~yield_probability:0.3 ~max_steps:steps (fun () ->
           (* one writer causing a steady stream of splits *)
           ignore
             (Sched.spawn (fun () ->
                  let i = ref 100 in
                  while true do
                    Db.with_txn db (fun txn ->
                        for _ = 1 to 5 do
                          Btree.insert tree txn ~value:(v !i) ~rid:(rid !i);
                          incr i
                        done);
                    incr completed;
                    Sched.yield ()
                  done));
           (* readers *)
           for f = 0 to 3 do
             let rng = Rng.create (50 + f) in
             ignore
               (Sched.spawn (fun () ->
                    while true do
                      Db.with_txn db (fun txn ->
                          ignore (Btree.fetch tree txn (v (Rng.int rng 100))));
                      incr completed;
                      Sched.yield ()
                    done))
           done));
    !completed
  in
  let normal = run ~strawman:false in
  let strawman = run ~strawman:true in
  kv ppf "ops completed in a fixed step budget (ARIES/IM)" "%d" normal;
  kv ppf "ops completed with every op serialized on the tree latch" "%d" strawman;
  kv ppf "speedup from letting ops run during SMOs" "%.2fx"
    (float_of_int normal /. float_of_int (max 1 strawman))

(* Q7 (§5 extension): concurrent SMOs via the tree lock *)

let q7 ppf =
  section ppf "Q7 (§5): concurrent SMOs — tree lock (IX/X) vs serialized tree latch";
  let run ~concurrent =
    let config = { Btree.default_config with Btree.concurrent_smos = concurrent } in
    let db, tree = fresh ~page_size:512 ~config () in
    seed_keys db tree 0 49;
    let committed = ref 0 in
    let steps = 60_000 in
    ignore
      (Db.run db ~policy:(Sched.Random 9) ~yield_probability:0.3 ~max_steps:steps (fun () ->
           (* several writers, each driving splits in its own key region *)
           for f = 0 to 3 do
             ignore
               (Sched.spawn (fun () ->
                    let i = ref (10_000 * (f + 1)) in
                    while true do
                      (match
                         Db.with_txn db (fun txn ->
                             for _ = 1 to 4 do
                               Btree.insert tree txn ~value:(v !i) ~rid:(rid !i);
                               incr i
                             done)
                       with
                      | () -> incr committed
                      | exception Txnmgr.Aborted _ -> ());
                      Sched.yield ()
                    done))
           done));
    Btree.check_invariants tree;
    !committed
  in
  let serialized = run ~concurrent:false in
  let concurrent = run ~concurrent:true in
  kv ppf "txns committed, SMOs serialized on the tree latch" "%d" serialized;
  kv ppf "txns committed, concurrent SMOs (tree lock, IX leaf-level)" "%d" concurrent;
  kv ppf "throughput ratio" "%.2fx" (float_of_int concurrent /. float_of_int (max 1 serialized));
  Format.fprintf ppf
    "  §5: \"Concurrent SMOs can be easily permitted by changing the tree latch@.";
  Format.fprintf ppf
    "  into a lock\" — leaf-level SMOs take IX; nonleaf-level SMOs upgrade to X@.";
  Format.fprintf ppf "  (upgrade deadlocks abort the transaction, as the paper predicts).@."

(* Q8 (ablation, Figure 8's "optional" step): cost of not resetting SM bits *)

let q8 ppf =
  section ppf "Q8 (ablation): Figure 8's optional SM_Bit reset";
  let run ~reset =
    let config = { Btree.default_config with Btree.reset_sm_bits = reset } in
    let db, tree = fresh ~page_size:384 ~config () in
    seed_keys db tree 0 499;
    (* after plenty of splits, measure the tree-latch traffic of reads *)
    let (), s =
      measured (fun () ->
          Db.run_exn db (fun () ->
              Db.with_txn db (fun txn ->
                  for i = 0 to 499 do
                    ignore (Btree.fetch tree txn (v i))
                  done)))
    in
    (Stats.get s Stats.tree_latch_acquires, Stats.get s Stats.tree_traversals)
  in
  let latches_on, traversals_on = run ~reset:true in
  let latches_off, traversals_off = run ~reset:false in
  kv ppf "[reset ON ] tree-latch acquisitions / traversals for 500 fetches" "%d / %d" latches_on
    traversals_on;
  kv ppf "[reset OFF] tree-latch acquisitions / traversals for 500 fetches" "%d / %d" latches_off
    traversals_off;
  Format.fprintf ppf
    "  Stale bits force traversers to touch the tree latch (and re-descend) on@.";
  Format.fprintf ppf
    "  every rightmost route through a once-split page: the reset is optional@.";
  Format.fprintf ppf "  for correctness but pays for itself immediately.@."

(* Q6: media recovery *)

let q6 ppf =
  section ppf "Q6: page-oriented media recovery for indexes";
  let db, tree = fresh () in
  seed_keys db tree 0 149;
  let dump = Media.take_dump db.Db.mgr db.Db.pool in
  seed_keys db tree 150 299;
  Bufpool.flush_all db.Db.pool;
  let victim = Btree.locate_leaf tree (v 200) in
  let before = Disk.read db.Db.disk victim in
  Disk.corrupt_drop db.Db.disk victim;
  Bufpool.drop db.Db.pool victim;
  let applied = Db.run_exn db (fun () -> Media.recover_page db.Db.mgr db.Db.pool dump victim) in
  let after = Disk.read db.Db.disk victim in
  kv ppf "dump taken after" "%d keys; %d more committed afterwards" 150 150;
  kv ppf "lost page" "%d" victim;
  kv ppf "log records replayed onto the dump image" "%d" applied;
  kv ppf "recovered page byte-identical to the lost one" "%b"
    (match (before, after) with Some b, Some a -> Page.equal b a | _ -> false);
  Btree.check_invariants tree;
  kv ppf "no tree traversals involved" "%s" "recovery replayed only that page's records"

(* ------------------------------------------------------------------ *)
(* Q9: the commit path — batched group-commit forces vs per-commit
   forcing, and the background page cleaner's effect on restart redo.
   Acceptance: group commit issues >= 4x fewer log forces (deterministic;
   test_commit_pipeline enforces the same floor). *)

module Group_commit = Aries_txn.Group_commit
module Cleaner = Aries_buffer.Cleaner

type commit_path = {
  cp_label : string;
  cp_txns : int;  (* committed transactions *)
  cp_steps : int;  (* scheduler slices the run took *)
  cp_forces : int;  (* synchronous log forces, all causes *)
  cp_batches : int;  (* batched forces issued by the daemon *)
  cp_covered : int;  (* committers covered by batched forces *)
  cp_waits : int;  (* commits that enqueued and suspended *)
  cp_hist : (int * int) list;  (* batch size -> number of batches *)
}

let batch_hist s =
  let prefix = "commit.batch_hist." in
  let plen = String.length prefix in
  List.filter_map
    (fun (name, n) ->
      if String.length name > plen && String.sub name 0 plen = prefix then
        Option.map
          (fun k -> (k, n))
          (int_of_string_opt (String.sub name plen (String.length name - plen)))
      else None)
    (Stats.to_alist s)

(* 16 committers x 12 small transactions under a randomized overlapping
   schedule: the per-commit run pays one synchronous force per commit, the
   group run amortizes each force over the daemon's batch. *)
let measure_commit_path ~commit_mode ~label =
  let db = Db.create ~page_size:512 ~commit_mode () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn ->
            Btree.create db.Db.benv txn ~name:"commitpath" ~unique:false))
  in
  let committers = 16 and txns_per_fiber = 12 in
  let committed = ref 0 in
  let steps = ref 0 in
  let s = Stats.create () in
  Stats.with_sink s (fun () ->
      let r =
        Db.run db ~policy:(Sched.Random 42) ~yield_probability:0.2 (fun () ->
            for f = 0 to committers - 1 do
              ignore
                (Sched.spawn
                   ~name:(Printf.sprintf "commit-%02d" f)
                   (fun () ->
                     for t = 1 to txns_per_fiber do
                       let txn = Txnmgr.begin_txn db.Db.mgr in
                       let base = (f * 1_000) + (t * 3) in
                       match
                         Btree.insert tree txn
                           ~value:(Printf.sprintf "f%02d-%04d" f base)
                           ~rid:(rid base);
                         Btree.insert tree txn
                           ~value:(Printf.sprintf "f%02d-%04d" f (base + 1))
                           ~rid:(rid (base + 1))
                       with
                       | () ->
                           Txnmgr.commit db.Db.mgr txn;
                           incr committed
                       | exception Txnmgr.Aborted _ -> ()
                     done))
            done)
      in
      steps := r.Sched.steps);
  {
    cp_label = label;
    cp_txns = !committed;
    cp_steps = !steps;
    cp_forces = Stats.get s Stats.log_forces;
    cp_batches = Stats.get s Stats.commit_batches;
    cp_covered = Stats.get s Stats.commit_batch_size;
    cp_waits = Stats.get s Stats.commit_group_waits;
    cp_hist = batch_hist s;
  }

(* The same sequential committed workload with the cleaner on or off, then
   checkpoint + crash + restart: the cleaner advances the recLSN horizon,
   so the redo scan shortens. *)
let measure_cleaner ~cleaner ~label : (string * Record.json) list =
  let db = Db.create ~page_size:384 ?cleaner () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn ->
            Btree.create db.Db.benv txn ~name:"cleanerpath" ~unique:false))
  in
  let s = Stats.create () in
  Stats.with_sink s (fun () ->
      Db.run_exn db (fun () ->
          for i = 1 to 150 do
            Db.with_txn db (fun txn -> Btree.insert tree txn ~value:(v i) ~rid:(rid i));
            (* give the cleaner daemon its slices between transactions *)
            Sched.yield ()
          done));
  let dirty = List.length (Bufpool.dirty_page_table db.Db.pool) in
  Db.checkpoint db;
  let db' = Db.crash db in
  let report, s' = measured (fun () -> Db.run_exn db' (fun () -> Db.restart db')) in
  [
    ("cleaner", Str label);
    ("dirty_at_crash", Int dirty);
    ("pages_cleaned", Int (Stats.get s Stats.cleaner_pages_written));
    ("redo_scanned", Int report.Restart.rp_records_redo_scanned);
    ("redo_pages", Int (Stats.get s' Stats.redo_pages_examined));
    ("redos_applied", Int report.Restart.rp_redos_applied);
  ]

let commit_path_row c : (string * Record.json) list =
  [
    ("mode", Str c.cp_label);
    ("committed_txns", Int c.cp_txns);
    ("steps", Int c.cp_steps);
    ("log_forces", Int c.cp_forces);
    ("forces_per_commit", Float (float_of_int c.cp_forces /. float_of_int (max 1 c.cp_txns)));
    ("commit_batches", Int c.cp_batches);
    ("committers_covered", Int c.cp_covered);
    ("group_waits", Int c.cp_waits);
    ("mean_batch_size", Float (float_of_int c.cp_covered /. float_of_int (max 1 c.cp_batches)));
  ]

let q9 ppf =
  let r = Record.start ppf "q9" "Q9: commit path — batched group commit vs per-commit forcing" in
  let pc = measure_commit_path ~commit_mode:Db.Per_commit ~label:"per-commit" in
  let gc =
    measure_commit_path ~commit_mode:(Db.Group Group_commit.default_policy)
      ~label:"group-commit"
  in
  Record.table r "modes" (List.map commit_path_row [ pc; gc ]);
  let reduction = float_of_int pc.cp_forces /. float_of_int (max 1 gc.cp_forces) in
  Record.line r "force reduction (x)" [ ("force_reduction", Float reduction) ];
  Record.gate r ">= 4x fewer log forces under group commit" ~ok:(reduction >= 4.0);
  Record.line r "[group] batch size: batches"
    [
      ( "batch_histogram",
        Obj (List.map (fun (size, n) -> (string_of_int size, Record.Int n)) gc.cp_hist) );
    ];
  let off = measure_cleaner ~cleaner:None ~label:"off" in
  let on =
    measure_cleaner
      ~cleaner:(Some { Cleaner.interval_steps = 4; batch_pages = 4 })
      ~label:"on"
  in
  Record.table r "cleaner" [ off; on ];
  Format.fprintf ppf
    "  Group commit batches N concurrent commit forces into ~1 (no-force, §1);@.";
  Format.fprintf ppf
    "  the cleaner advances the dirty-page recLSN horizon so restart redo@.";
  Format.fprintf ppf "  scans and examines less — without ever violating the WAL rule.@.";
  Record.finish r

(* ------------------------------------------------------------------ *)

(* Q10: what does the protocol tracer cost? The same full simulation run
   (workload + invariants + oracle) under the three tracer modes: off (one
   flag test per emit site), record (ring buffer only), and check (ring +
   the online R1-R5 discipline checker — the dune-runtest default).
   Acceptance: checker-on <= 2x off (test/test_trace.ml enforces it too). *)
let q10 ppf =
  let module Trace = Aries_trace.Trace in
  let module Sim = Aries_sim.Sim in
  let r = Record.start ppf "q10" "Q10: protocol tracer overhead — off / ring-on / checker-on" in
  let cfg = Aries_sim.Workload.default_cfg in
  let seeds = List.init 8 (fun i -> 40 + i) in
  let n = List.length seeds in
  let mode_label = function
    | Trace.Off -> "off"
    | Trace.Record -> "record"
    | Trace.Check -> "check"
  in
  (* best of 3 passes over every seed; each pass emits the same events *)
  let time_mode m =
    Trace.set_mode m;
    let events = ref 0 in
    let t =
      Record.best_of 3 (fun () ->
          events := 0;
          List.iter
            (fun seed ->
              let rr = Sim.run cfg ~seed Aries_sim.Sweep.Run in
              if rr.Aries_sim.Sweep.rr_failures <> [] then
                failwith
                  (Printf.sprintf "q10: seed %d failed with the tracer %s" seed (mode_label m));
              events := !events + Trace.event_count ())
            seeds)
    in
    (t, !events)
  in
  let saved = Trace.mode () in
  let modes =
    Fun.protect
      ~finally:(fun () -> Trace.set_mode saved)
      (fun () ->
        List.map (fun m -> (mode_label m, time_mode m)) [ Trace.Off; Trace.Record; Trace.Check ])
  in
  let t_off = fst (List.assoc "off" modes) and t_chk = fst (List.assoc "check" modes) in
  Record.line r "sim runs per mode (best of 3 passes)" [ ("runs_per_mode", Int n) ];
  Record.table r "modes"
    (List.map
       (fun (label, (t, evs)) ->
         [
           ("mode", Record.Str label);
           ("total_s", Float t);
           ("per_run_ms", Float (t /. float_of_int n *. 1e3));
           ("events_per_run", Int (evs / n));
           ("overhead_vs_off", Float (t /. Float.max t_off 1e-9));
         ])
       modes);
  Record.gate r "checker-on <= 2x off" ~ok:(t_chk <= (2.0 *. t_off) +. 0.01);
  Record.finish r

(* ------------------------------------------------------------------ *)

(* Q11: log lifecycle — the segmented WAL plus the fuzzy-checkpoint daemon.
   The same sustained committed workload runs twice: without the daemon the
   live log grows without bound; with the daemon (checkpoint + whole-segment
   truncation, stale dirty pages nudged to the cleaner) the live footprint
   plateaus at a few segments, and post-crash restart analysis is bounded by
   the records written since the last complete checkpoint. *)
let q11 ppf =
  let module Ckptd = Aries_recovery.Ckptd in
  let module Archive = Aries_recovery.Media.Archive in
  let r =
    Record.start ppf "q11" "Q11: log lifecycle — live-log plateau under the checkpoint daemon"
  in
  let seg = 2048 in
  let batches = 24 and txns_per_batch = 4 and inserts_per_txn = 4 in
  let run_workload ~checkpoint =
    let db = Db.create ~page_size:384 ?checkpoint ~segment_size:seg () in
    let tree =
      Db.run_exn db (fun () ->
          Db.with_txn db (fun txn -> Btree.create db.Db.benv txn ~name:"bench" ~unique:true))
    in
    let samples = ref [] in
    let n = ref 0 in
    let (), stats =
      measured (fun () ->
          Db.run_exn db (fun () ->
              for _b = 1 to batches do
                for _t = 1 to txns_per_batch do
                  Db.with_txn db (fun txn ->
                      for _i = 1 to inserts_per_txn do
                        incr n;
                        Btree.insert tree txn ~value:(v !n) ~rid:(rid !n)
                      done);
                  (* give the daemon a turn between transactions *)
                  Sched.yield ()
                done;
                samples := Logmgr.size_bytes db.Db.wal :: !samples
              done))
    in
    (db, tree, List.rev !samples, stats)
  in
  let ck_cfg = Some { Ckptd.every_steps = 8; nudge_pages = 4; truncate = true } in
  let db_off, tree_off, samples_off, _ = run_workload ~checkpoint:None in
  let db_on, tree_on, samples_on, stats_on = run_workload ~checkpoint:ck_cfg in
  (* taken before the crash: restart appends to the same logs *)
  let live_off = Logmgr.size_bytes db_off.Db.wal and live_on = Logmgr.size_bytes db_on.Db.wal in
  let committed = batches * txns_per_batch * inserts_per_txn in
  Record.line r "workload: batches / txns each / inserts each / segment B"
    [
      ("batches", Int batches);
      ("txns_per_batch", Int txns_per_batch);
      ("inserts_per_txn", Int inserts_per_txn);
      ("segment_bytes", Int seg);
    ];
  Record.line r "[no daemon] final live log B / segments"
    [
      ("no_daemon_live_bytes", Int live_off);
      ("no_daemon_segments", Int (Logmgr.segment_count db_off.Db.wal));
    ];
  Record.line r "[daemon   ] final live log B / segments / archived"
    [
      ("daemon_live_bytes", Int live_on);
      ("daemon_segments", Int (Logmgr.segment_count db_on.Db.wal));
      ("daemon_archived_segments", Int (Archive.segment_count db_on.Db.archive));
    ];
  Record.line r "[daemon   ] rounds / checkpoints / nudges"
    [
      ("daemon_rounds", Int (Stats.get stats_on Stats.ckptd_rounds));
      ("daemon_checkpoints", Int (Stats.get stats_on Stats.ckpt_taken));
      ("daemon_nudges", Int (Stats.get stats_on Stats.ckptd_nudges));
    ];
  Record.line r "[daemon   ] truncations / segments reclaimed"
    [
      ("daemon_truncations", Int (Stats.get stats_on Stats.log_truncations));
      ("daemon_segments_reclaimed", Int (Stats.get stats_on Stats.log_segments_reclaimed));
    ];
  let peak l = List.fold_left max 0 l in
  Record.line r "live-log peak B over the run (no daemon / daemon)"
    [
      ("no_daemon_peak_bytes", Int (peak samples_off));
      ("daemon_peak_bytes", Int (peak samples_on));
    ];
  let ints l = Record.List (List.map (fun n -> Record.Int n) l) in
  Record.add r
    [
      ("no_daemon_live_bytes_per_batch", ints samples_off);
      ("daemon_live_bytes_per_batch", ints samples_on);
    ];
  Record.gate r "daemon footprint under half of unbounded" ~ok:(2 * live_on < live_off);
  (* post-crash analysis bound: records since the last complete checkpoint *)
  let since_ckpt = ref 0 in
  Logmgr.iter_from db_on.Db.wal (Logmgr.master db_on.Db.wal) (fun _ -> incr since_ckpt);
  let crash_report db =
    let db' = Db.crash db in
    (db', Db.run_exn db' (fun () -> Db.restart db'))
  in
  let db_off', rep_off = crash_report db_off in
  let db_on', rep_on = crash_report db_on in
  Record.line r "[no daemon] restart records analyzed"
    [ ("no_daemon_records_analyzed", Int rep_off.Restart.rp_records_analyzed) ];
  Record.line r "[daemon   ] restart records analyzed / since last ckpt"
    [
      ("daemon_records_analyzed", Int rep_on.Restart.rp_records_analyzed);
      ("daemon_records_since_ckpt", Int !since_ckpt);
    ];
  Record.gate r "analysis <= records since last checkpoint"
    ~ok:(rep_on.Restart.rp_records_analyzed <= !since_ckpt);
  (* both databases recover the full committed state — truncation lost nothing *)
  let count db tree =
    List.length (Btree.to_list (Btree.open_existing db.Db.benv (Btree.index_id tree)))
  in
  let n_off = count db_off' tree_off and n_on = count db_on' tree_on in
  Record.line r
    (Printf.sprintf "recovered keys, no daemon / daemon (of %d)" committed)
    [ ("no_daemon_recovered_keys", Int n_off); ("daemon_recovered_keys", Int n_on) ];
  if n_off <> committed || n_on <> committed then
    failwith "q11: truncation or recovery lost committed work";
  Record.finish r

(* Q12: the storage fault layer's coverage — automatic media repair
   latency (records rolled forward, scheduler steps, healed transparently
   through the pool's repairer hook), crash-time tail-scan truncation
   volume under torn appends, and a bounded fault sweep digest (the
   acceptance gate: every seed recovers to the oracle or fails typed).
   The CRC hot-path overhead is Q16's measurement. *)
let q12 ppf =
  let module Sim = Aries_sim.Sim in
  let module Sweep = Aries_sim.Sweep in
  let module Swl = Aries_sim.Workload in
  let module Faultdisk = Aries_util.Faultdisk in
  let r = Record.start ppf "q12" "Q12: storage faults — repair latency, tail scan, sweep digest" in
  (* -- automatic repair latency: rot the root, heal through the pool -- *)
  let rdb = Db.create ~page_size:384 ~segment_size:1024 () in
  let rtree =
    Db.run_exn rdb (fun () ->
        Db.with_txn rdb (fun txn -> Btree.create rdb.Db.benv txn ~name:"bench" ~unique:true))
  in
  Db.run_exn rdb (fun () ->
      Db.with_txn rdb (fun txn ->
          for i = 1 to 200 do
            Btree.insert rtree txn ~value:(v i) ~rid:(rid i)
          done));
  Bufpool.flush_all rdb.Db.pool;
  Db.checkpoint rdb;
  let reclaimed = Db.trim_log rdb in
  let victim = Btree.root_pid rtree in
  Disk.corrupt_flip ~seed:5 rdb.Db.disk victim;
  Bufpool.drop rdb.Db.pool victim;
  let steps = ref 0 in
  let t_repair = ref 0.0 in
  let rows, rstats =
    measured (fun () ->
        Db.run_exn rdb (fun () ->
            let s0 = Sched.steps_now () in
            let t0 = Sys.time () in
            let n = List.length (Btree.to_list rtree) in
            t_repair := Sys.time () -. t0;
            steps := Sched.steps_now () - s0;
            n))
  in
  let repair_records =
    (* re-rot and measure the roll-forward directly for the record count *)
    Disk.corrupt_flip ~seed:6 rdb.Db.disk victim;
    Bufpool.drop rdb.Db.pool victim;
    Db.run_exn rdb (fun () -> Media.auto_repair ~archive:rdb.Db.archive rdb.Db.mgr rdb.Db.pool victim)
  in
  Record.line r "repair: rows read through the heal (of 200)" [ ("repair_rows", Int rows) ];
  Record.line r "repair: quarantines / repairs"
    [
      ("repair_quarantines", Int (Stats.get rstats Stats.disk_quarantines));
      ("repair_repairs", Int (Stats.get rstats Stats.disk_repairs));
    ];
  Record.line r "repair: records rolled forward / log B reclaimed before"
    [
      ("repair_records_rolled_forward", Int repair_records);
      ("repair_log_bytes_reclaimed", Int reclaimed);
    ];
  Record.line r "repair: latency steps / wall ms"
    [ ("repair_latency_steps", Int !steps); ("repair_latency_ms", Float (1000.0 *. !t_repair)) ];
  if rows <> 200 then failwith "q12: repair lost rows";
  (* -- tail-scan truncation volume under torn appends -- *)
  let torn_cfg =
    {
      Faultdisk.eio_read_p = 0.0;
      eio_write_p = 0.0;
      eio_force_p = 0.0;
      bit_flip_p = 0.0;
      torn_write = false;
      torn_append = true;
      stream_shuffle = false;
    }
  in
  let tail_bytes = ref 0 and tail_cuts = ref 0 and tail_runs = 16 in
  for seed = 1 to tail_runs do
    let l = Logmgr.create ~segment_size:4096 () in
    for i = 1 to 20 do
      ignore
        (Logmgr.append l
           (Logrec.make ~page:i ~rm_id:1 ~op:1
              ~body:(Bytes.make (24 + (seed * 7 mod 64)) 'x')
              ~txn:i ~prev_lsn:Lsn.nil Logrec.Update))
    done;
    Logmgr.flush l;
    for i = 21 to 23 do
      ignore
        (Logmgr.append l
           (Logrec.make ~page:i ~rm_id:1 ~op:1 ~body:(Bytes.make 80 'y') ~txn:i
              ~prev_lsn:Lsn.nil Logrec.Update))
    done;
    let (), tstats =
      measured (fun () ->
          Faultdisk.arm ~seed torn_cfg;
          Logmgr.crash l;
          Faultdisk.disarm ())
    in
    tail_bytes := !tail_bytes + Stats.get tstats Stats.log_tail_truncated_bytes;
    tail_cuts := !tail_cuts + Stats.get tstats Stats.log_tail_truncations
  done;
  Record.line r "tail scan: torn crashes / truncations / B dropped"
    [
      ("tail_torn_crashes", Int tail_runs);
      ("tail_truncations", Int !tail_cuts);
      ("tail_bytes_dropped", Int !tail_bytes);
    ];
  (* -- bounded fault sweep digest: the acceptance gate in miniature -- *)
  let sweep_seeds = 12 and sweep_crash_seeds = 2 and sweep_budget = 20 in
  let digest, dstats =
    measured (fun () ->
        Sweep.sweep ~workload:"faults" (Sim.run Swl.fault_cfg)
          ~seeds:(List.init sweep_seeds (fun i -> i + 1))
          ~crash_seeds:(List.init sweep_crash_seeds (fun i -> 1001 + i))
          ~crash_budget:sweep_budget)
  in
  let fatal = Sweep.fatal_failures digest in
  let count c = Record.Int (Stats.get dstats c) in
  Record.line r "fault sweep: seed runs / crash points"
    [
      ("sweep_seed_runs", Int (digest.Sweep.sm_runs - digest.Sweep.sm_armed));
      ("sweep_crash_points", Int digest.Sweep.sm_armed);
    ];
  Record.line r "fault sweep: EIO / bit flips / torn writes injected"
    [
      ("sweep_eio_injected", count Stats.disk_eio_injected);
      ("sweep_bit_flips", count Stats.disk_bit_flips);
      ("sweep_torn_writes", count Stats.disk_torn_writes);
    ];
  Record.line r "fault sweep: retries / quarantines / repairs / tail cuts"
    [
      ("sweep_retries", count Stats.disk_retries);
      ("sweep_quarantines", count Stats.disk_quarantines);
      ("sweep_repairs", count Stats.disk_repairs);
      ("sweep_tail_truncations", count Stats.log_tail_truncations);
    ];
  Record.line r "fault sweep: fatal / tolerated-typed failures"
    [
      ("sweep_fatal_failures", Int (List.length fatal));
      ("sweep_tolerated_failures", Int (List.length digest.Sweep.sm_failures - List.length fatal));
    ];
  List.iter (fun rp -> kv ppf "FATAL" "%s" (Sweep.reproducer_line rp)) fatal;
  Record.gate r "zero fatal failures" ~ok:(fatal = []);
  Record.finish r

(* Q13: instant restart — time to the first committed new transaction
   after a crash. The same crashed image (save/load) restarts twice:
   classic must finish the Redo and Undo passes before any new work runs;
   instant opens for business after Analysis + loser-lock reacquisition,
   redoing pages on demand and draining the rest in the background. Two
   log shapes: a short log (the fuzzy-checkpoint daemon keeps analysis
   and redo bounded — the PR4 steady state) and an artificially long one
   (checkpoints still run, so analysis stays short and the per-page log
   chains are persisted, but pages are never cleaned: the redo backlog
   spans the whole run and dwarfs the restart buffer pool) where the
   paper's downtime argument predicts the win; the acceptance gate
   requires >= 5x there. *)
let q13 ppf =
  let module Ckptd = Aries_recovery.Ckptd in
  let r = Record.start ppf "q13" "Q13: instant restart — time to first committed transaction" in
  let committed = 5_000 and per_txn = 10 in
  let loser_keys = 20 and restart_pool = 24 in
  let build ~long =
    (* long shape: checkpoints keep running (short analysis window, the
       dirty pages' log chains ride in each End_ckpt) but nudge almost
       nothing to disk, and the build pool is big enough that nothing is
       ever evicted — nearly every page's recLSN stays near the log's
       start, so the crashed image owes the whole run as redo work *)
    let checkpoint =
      if long then Some { Ckptd.every_steps = 64; Ckptd.nudge_pages = 1; truncate = true }
      else Some { Ckptd.every_steps = 8; Ckptd.nudge_pages = 4; truncate = true }
    in
    let pool_capacity = if long then 1024 else 128 in
    let db = Db.create ~page_size:384 ~pool_capacity ?checkpoint ~segment_size:2048 () in
    let tree =
      Db.run_exn db (fun () ->
          Db.with_txn db (fun txn -> Btree.create db.Db.benv txn ~name:"bench" ~unique:true))
    in
    Db.run_exn db (fun () ->
        for t = 0 to (committed / per_txn) - 1 do
          Db.with_txn db (fun txn ->
              for i = (t * per_txn) + 1 to (t + 1) * per_txn do
                Btree.insert tree txn ~value:(v i) ~rid:(rid i)
              done);
          (* give the checkpoint daemon a turn between transactions *)
          Sched.yield ()
        done;
        (* a loser cut mid-flight: its key locks must be reacquired before
           the instant-restarted Db opens *)
        let t = Txnmgr.begin_txn db.Db.mgr in
        for i = 1 to loser_keys do
          Btree.insert tree t ~value:(v (100_000 + i)) ~rid:(rid (100_000 + i))
        done;
        Logmgr.flush db.Db.wal);
    let img = Filename.temp_file "aries_q13" ".img" in
    Db.save db img;
    (img, Btree.index_id tree)
  in
  let tight = { Restart.dr_every_steps = 1; dr_redo_pages = 8; dr_undo_txns = 1 } in
  (* time from restart start to the first committed new transaction, then
     (instant only) on to the fully drained engine *)
  let time_restart ~instant img ix =
    let db' = Db.load ~pool_capacity:restart_pool img in
    let t_first = ref 0.0 and t_drained = ref 0.0 and pending0 = ref 0 in
    let (rep : Restart.report), stats =
      measured (fun () ->
          Db.run_exn db' (fun () ->
              let t0 = Sys.time () in
              let rep = Db.restart ~instant ~drain:tight db' in
              (match Db.restart_engine db' with
              | Some en when instant -> pending0 := List.length (Restart.pending_redo en)
              | Some _ | None -> ());
              let tree' = Btree.open_existing db'.Db.benv ix in
              Db.with_txn db' (fun txn ->
                  Btree.insert tree' txn ~value:"zzzz-first" ~rid:(rid 99_999));
              t_first := Sys.time () -. t0;
              let rep =
                match Db.restart_engine db' with
                | Some en when instant ->
                    while not (Restart.finished en) do
                      Sched.yield ()
                    done;
                    (* the open-time report predates the drain; the engine's
                       aggregates across every pass *)
                    Restart.report en
                | Some _ | None -> rep
              in
              t_drained := Sys.time () -. t0;
              rep))
    in
    let rows = List.length (Btree.to_list (Btree.open_existing db'.Db.benv ix)) in
    (rep, stats, !t_first, !t_drained, !pending0, rows)
  in
  let ms t = 1000.0 *. t in
  let shape name ~long =
    let img, ix = build ~long in
    let c_rep, _, c_first, _, _, c_rows = time_restart ~instant:false img ix in
    let i_rep, i_stats, i_first, i_drained, i_pending, i_rows =
      time_restart ~instant:true img ix
    in
    Sys.remove img;
    let line what fields =
      Record.line r (Printf.sprintf "[%s] %s" name what)
        (List.map (fun (k, v) -> (name ^ "_" ^ k, v)) fields)
    in
    line "classic: redos / undos / first-commit ms"
      [
        ("classic_redos", Int c_rep.Restart.rp_redos_applied);
        ("classic_undos", Int c_rep.Restart.rp_undo_records);
        ("classic_first_commit_ms", Float (ms c_first));
      ];
    line "instant: pending@open / first-commit ms / drained ms"
      [
        ("instant_pending_at_open", Int i_pending);
        ("instant_first_commit_ms", Float (ms i_first));
        ("instant_drained_ms", Float (ms i_drained));
      ];
    line "instant: on-demand redos / drain rounds / locks reacquired"
      [
        ("instant_ondemand_redos", Int (Stats.get i_stats Stats.instant_ondemand_redos));
        ("instant_drain_rounds", Int (Stats.get i_stats Stats.instant_drain_rounds));
        ("instant_locks_reacquired", Int (Stats.get i_stats Stats.instant_locks_reacquired));
      ];
    if c_rows <> committed + 1 || i_rows <> committed + 1 then
      failwith (Printf.sprintf "q13: %s-log recovery lost rows (%d / %d)" name c_rows i_rows);
    if i_rep.Restart.rp_redos_applied <> c_rep.Restart.rp_redos_applied then
      failwith
        (Printf.sprintf "q13: instant and classic redo different record counts (%d vs %d)"
           i_rep.Restart.rp_redos_applied c_rep.Restart.rp_redos_applied);
    let speedup = c_first /. Float.max i_first 1e-6 in
    line "time-to-first-commit speedup (x)" [ ("speedup", Float speedup) ];
    speedup
  in
  Record.line r "workload: committed inserts / per txn / loser keys / restart pool pages"
    [
      ("committed_inserts", Int committed);
      ("inserts_per_txn", Int per_txn);
      ("loser_keys", Int loser_keys);
      ("restart_pool_pages", Int restart_pool);
    ];
  ignore (shape "short" ~long:false);
  let long_speedup = shape "long" ~long:true in
  Record.gate r ">= 5x on the long-log workload" ~ok:(long_speedup >= 5.0);
  Record.finish r

(* ------------------------------------------------------------------ *)
(* Q14 (PR 7): multi-stream parallel WAL — commit throughput scaling.

   The same committer workload at N in {1, 2, 4, 8} log streams, group
   commit (batch 16 / 6-step window) with the synthetic per-stream
   log-device model installed ({!Group_commit.set_io_model}): one
   stream's force of [b] unflushed bytes occupies that device for
   [8 + b/24] scheduler steps, and a batch's per-stream forces run
   concurrently against a shared deadline — cost ~max, not sum, which is
   exactly the device parallelism N streams exist to buy. Following Zhou
   et al.'s partially-constrained-log argument, relaxing the total log
   order to per-stream orders plus the commit-epoch fence removes the
   single log tail as the commit bottleneck; the fence (rule R8) is the
   only cross-stream synchronization left on the commit path.

   Acceptance: >= 2x modelled commits/step at N = 4 vs N = 1 with 16
   committers. Every throughput here is the step I/O model's, not a
   wall-clock measurement. *)

let q14_cost bytes = 8 + (bytes / 24)

type q14_cell = {
  ms_streams : int;
  ms_fibers : int;
  ms_txns : int;
  ms_steps : int;
  ms_batches : int;
  ms_forces : int;
}

let q14_model_throughput c = 1000.0 *. float_of_int c.ms_txns /. float_of_int (max 1 c.ms_steps)

let q14_run ~streams ~fibers =
  let db =
    Db.create ~page_size:512 ~streams
      ~commit_mode:(Db.Group { Group_commit.max_batch = 16; max_delay_steps = 6 })
      ()
  in
  (match db.Db.gc with
  | Some gc -> Group_commit.set_io_model gc (Some q14_cost)
  | None -> assert false);
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Btree.create db.Db.benv txn ~name:"q14" ~unique:false))
  in
  let txns_per_fiber = 12 in
  let committed = ref 0 in
  let s = Stats.create () in
  let steps = ref 0 in
  Stats.with_sink s (fun () ->
      let r =
        Db.run db
          ~policy:(Sched.Random ((streams * 100) + fibers))
          ~yield_probability:0.05
          (fun () ->
            for f = 0 to fibers - 1 do
              ignore
                (Sched.spawn
                   ~name:(Printf.sprintf "q14-%02d" f)
                   (fun () ->
                     for t = 1 to txns_per_fiber do
                       let txn = Txnmgr.begin_txn db.Db.mgr in
                       let base = (f * 1_000) + (t * 3) in
                       match
                         Btree.insert tree txn
                           ~value:(Printf.sprintf "f%02d-%04d" f base)
                           ~rid:(rid base);
                         Btree.insert tree txn
                           ~value:(Printf.sprintf "f%02d-%04d" f (base + 1))
                           ~rid:(rid (base + 1))
                       with
                       | () ->
                           Txnmgr.commit db.Db.mgr txn;
                           incr committed
                       | exception Txnmgr.Aborted _ -> ()
                     done))
            done)
      in
      steps := r.Sched.steps);
  {
    ms_streams = streams;
    ms_fibers = fibers;
    ms_txns = !committed;
    ms_steps = !steps;
    ms_batches = Stats.get s Stats.commit_batches;
    ms_forces = Stats.get s Stats.log_forces;
  }

let q14 ppf =
  let r =
    Record.start ppf "q14"
      "Q14: parallel WAL — commit throughput vs fibers at N streams (step I/O model)"
  in
  let stream_counts = [ 1; 2; 4; 8 ] and fiber_counts = [ 2; 4; 8; 16 ] in
  let cells =
    List.concat_map
      (fun streams -> List.map (fun fibers -> q14_run ~streams ~fibers) fiber_counts)
      stream_counts
  in
  Record.add r
    [ ("io_model", Str "steps = 8 + bytes/24 per stream force, concurrent across streams") ];
  Record.table r "cells"
    (List.map
       (fun c ->
         [
           ("streams", Record.Int c.ms_streams);
           ("committers", Int c.ms_fibers);
           ("committed_txns", Int c.ms_txns);
           ("steps", Int c.ms_steps);
           ("model_commits_per_kstep", Float (q14_model_throughput c));
           ("commit_batches", Int c.ms_batches);
           ("log_forces", Int c.ms_forces);
         ])
       cells);
  let cell streams fibers =
    List.find (fun c -> c.ms_streams = streams && c.ms_fibers = fibers) cells
  in
  let speedup = q14_model_throughput (cell 4 16) /. q14_model_throughput (cell 1 16) in
  Record.line r "N=4 vs N=1 model speedup at 16 committers (x)"
    [ ("model_speedup_n4_vs_n1", Float speedup) ];
  Record.gate r ">= 2x for N=4 vs N=1 at 16 committers" ~ok:(speedup >= 2.0);
  Record.finish r

(* Q15: MVCC snapshot reads — reader lock traffic on a scan-vs-writer mix.

   One reader fiber repeatedly scans a 150-row range of a table while two
   writer fibers churn fetch+delete+reinsert transactions over hot rows of
   the same index, sorted just past the scan's stop bound — so the scan's
   boundary probe (fetch_next locks the next key before noticing it is
   beyond the stop) collides with the writers' commit-duration X locks.
   Reader lock requests and waits are counted from the trace ring
   (Lock_request / Lock_wait events carry the requesting txn id), so the
   writers' own lock traffic is excluded from the reader's bill.

   The locking protocols price every fetched row: data-only locking takes
   the record lock (1 request/row, it doubles as every index's key lock),
   ARIES/KVL and System R lock the index key value and then the record
   (2 requests/row), and any of them can wait at the hot boundary.
   Protocol #5 (Mvcc) resolves every key against the pinned snapshot's
   version chains: no key locks, no record locks, no waits, regardless of
   writer churn (rule R9) — only the table-level IS intent lock remains,
   one request per scan.

   Acceptance: Mvcc < 0.01 reader lock requests/op and 0 reader waits;
   data-only >= 1/op; KVL and System R >= 2/op. *)

type q15_cell = {
  sr_locking : Protocol.locking;
  sr_scans : int;
  sr_ops : int;
  sr_requests : int;
  sr_waits : int;
  sr_writer_commits : int;
}

let q15_per_op c = float_of_int c.sr_requests /. float_of_int (max 1 c.sr_ops)

let q15_hot f j = Printf.sprintf "zhot-%d-%02d" f j

let q15_run locking =
  let module Trace = Aries_trace.Trace in
  let config = config_of locking in
  let db = Db.create ~page_size:512 ~config () in
  let specs = [ { Table.sp_name = "pk"; sp_unique = true; sp_key = (fun r -> r.(0)) } ] in
  let tbl =
    Db.run_exn db (fun () -> Db.with_txn db (fun txn -> Table.create db txn ~id:1 specs))
  in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 149 do
            ignore (Table.insert tbl txn [| Printf.sprintf "scan-%03d" i |])
          done;
          for f = 0 to 1 do
            for j = 0 to 6 do
              ignore (Table.insert tbl txn [| q15_hot f j |])
            done
          done));
  let saved_mode = Trace.mode () and saved_cap = Trace.capacity () in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_mode saved_mode;
      Trace.set_capacity saved_cap)
    (fun () ->
      Trace.set_capacity 262_144;
      Trace.set_mode Trace.Record;
      let readers = Hashtbl.create 8 in
      let ops = ref 0 and scans = ref 0 and writer_commits = ref 0 in
      ignore
        (Db.run db ~policy:(Sched.Random 15) ~yield_probability:0.1 (fun () ->
             (* writers churn their private hot rows: fetch the current rid,
                delete the row, reinsert it (a fresh rid every round) *)
             for f = 0 to 1 do
               ignore
                 (Sched.spawn
                    ~name:(Printf.sprintf "q15-writer-%d" f)
                    (fun () ->
                      for t = 1 to 18 do
                        let key = q15_hot f (t mod 7) in
                        let txn = Txnmgr.begin_txn db.Db.mgr in
                        match
                          match Table.fetch tbl txn ~index:"pk" key with
                          | Some (r, _) ->
                              Table.delete tbl txn r;
                              ignore (Table.insert tbl txn [| key |])
                          | None -> ()
                        with
                        | () ->
                            Txnmgr.commit db.Db.mgr txn;
                            incr writer_commits
                        | exception Txnmgr.Aborted _ -> ()
                      done))
             done;
             ignore
               (Sched.spawn ~name:"q15-reader" (fun () ->
                    for _ = 1 to 6 do
                      let txn = Txnmgr.begin_txn db.Db.mgr in
                      Hashtbl.replace readers txn.Txnmgr.txn_id ();
                      match
                        Table.scan tbl txn ~index:"pk" "scan-" ~stop:("scan-999", `Le) ()
                      with
                      | rows ->
                          ops := !ops + List.length rows;
                          Txnmgr.commit db.Db.mgr txn;
                          incr scans
                      | exception Txnmgr.Aborted _ -> ()
                    done))));
      if Trace.event_count () > Trace.capacity () then
        failwith "q15: trace ring overflowed; raise the capacity";
      let requests = ref 0 and waits = ref 0 in
      List.iter
        (fun (e : Trace.event) ->
          match e.Trace.ev_payload with
          | Trace.Lock_request { txn; _ } when Hashtbl.mem readers txn -> incr requests
          | Trace.Lock_wait { txn; _ } when Hashtbl.mem readers txn -> incr waits
          | _ -> ())
        (Trace.events ());
      {
        sr_locking = locking;
        sr_scans = !scans;
        sr_ops = !ops;
        sr_requests = !requests;
        sr_waits = !waits;
        sr_writer_commits = !writer_commits;
      })

let q15 ppf =
  let r =
    Record.start ppf "q15" "Q15: snapshot reads — reader lock traffic on a scan-vs-writer mix"
  in
  let cells =
    List.map q15_run [ Protocol.Data_only; Protocol.Kvl; Protocol.System_r; Protocol.Mvcc ]
  in
  Record.add r
    [ ("workload", Str "1 reader x 6 scans vs 2 writers x 18 delete+reinsert txns, 164 keys") ];
  Record.table r "cells"
    (List.map
       (fun c ->
         [
           ("protocol", Record.Str (Protocol.locking_to_string c.sr_locking));
           ("scans", Int c.sr_scans);
           ("reader_ops", Int c.sr_ops);
           ("reader_lock_requests", Int c.sr_requests);
           ("reader_lock_waits", Int c.sr_waits);
           ("requests_per_op", Float (q15_per_op c));
           ("writer_commits", Int c.sr_writer_commits);
         ])
       cells);
  let per_op l = q15_per_op (List.find (fun c -> c.sr_locking = l) cells) in
  let mvcc = List.find (fun c -> c.sr_locking = Protocol.Mvcc) cells in
  Record.gate r "Mvcc reader < 0.01 lock requests/op (rule R9)"
    ~ok:(per_op Protocol.Mvcc < 0.01);
  Record.gate r "Mvcc reader never waits on a lock (rule R9)" ~ok:(mvcc.sr_waits = 0);
  Record.gate r "data-only reader pays >= 1 lock request/op"
    ~ok:(per_op Protocol.Data_only >= 1.0);
  Record.gate r "KVL reader pays >= 2 lock requests/op" ~ok:(per_op Protocol.Kvl >= 2.0);
  Record.gate r "System R reader pays >= 2 lock requests/op"
    ~ok:(per_op Protocol.System_r >= 2.0);
  Record.finish r

(* Q16: the hot-path speed pass, measured end to end.

   Three wall-clock claims and four deterministic ones:
   - raw CRC throughput: the slice-by-16 [Crc.update] must beat the
     one-table bytewise baseline ([Crc.update_bytewise], the pre-pass
     implementation) by >= 4x, min of 5 interleaved pairs.
   - page codec CRC overhead: BENCH_PR5.json recorded +51% for
     checks-on vs checks-off before the pass; the fast CRC must cut
     that to <= 25.5% (half) on the same encode+2xdecode loop.
   - page codec allocation: minor-heap words per [Page.encode_into]
     (warm arena) and per [Page.decode] over a fixed page set, read
     with [Gc.minor_words ()], which counts every allocated word, so
     the figure is exact and the same on a loaded host. Gated at the
     values measured when the gate was set (OCaml 5.1.1); only a
     compiler change or a codec change may move them.
   - CRC allocation: every CRC entry point the engine calls allocates
     nothing, read the same way.
   - log append allocation: the per-manager encode arena must be
     reused on every steady-state append (no per-record buffer), with
     minor-heap words/append reported as evidence.
   The log-image load overhead (tail-scan CRC path) is re-measured and
   reported for the EXPERIMENTS.md before/after table but not gated:
   its baseline varies too much run to run. *)
let q16 ppf =
  let r =
    Record.start ppf "q16"
      "Q16: hot-path speed pass — fast CRC, page codec, allocation-free encode"
  in
  (* -- raw CRC throughput: slice-by-16 vs the bytewise baseline -- *)
  let buf_len = 4 * 1024 * 1024 in
  let buf = Bytes.create buf_len in
  let st = ref 123456789 in
  for i = 0 to buf_len - 1 do
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    Bytes.unsafe_set buf i (Char.chr (!st land 0xFF))
  done;
  let s = Bytes.unsafe_to_string buf in
  let passes = 16 in
  let crc_run f =
    let c = ref 0 in
    fun () ->
      for _ = 1 to passes do
        c := f !c s 0 buf_len
      done
  in
  if Crc.update 0 s 0 buf_len <> Crc.update_bytewise 0 s 0 buf_len then
    failwith "q16: CRC engines disagree";
  ignore (Record.timed (crc_run Crc.update));
  ignore (Record.timed (crc_run Crc.update_bytewise));
  let t_fast, t_slow = Record.pairs 5 (crc_run Crc.update) (crc_run Crc.update_bytewise) in
  let speedup = t_slow /. t_fast in
  let mib = float_of_int (buf_len * passes) /. (1024.0 *. 1024.0) in
  Record.line r
    (Printf.sprintf "crc (%d MiB x%d, min of 5 pairs): slice-by-16 / bytewise MiB/s / x"
       (buf_len / 1024 / 1024) passes)
    [
      ("crc_slice_by_16_mib_s", Float (mib /. t_fast));
      ("crc_bytewise_mib_s", Float (mib /. t_slow));
      ("crc_speedup", Float speedup);
    ];
  Record.gate r "slice-by-16 CRC >= 4x bytewise" ~ok:(speedup >= 4.0);
  (* warm up, then min of 3 interleaved on/off pairs; the overhead in % *)
  let crc_overhead key label loop =
    ignore (Record.timed loop);
    let t_on, t_off = Record.on_off 3 loop in
    let pct = (t_on -. t_off) /. t_off *. 100.0 in
    Record.line r (label ^ ": crc-on s / crc-off s / overhead %")
      [
        (key ^ "_crc_on_s", Float t_on);
        (key ^ "_crc_off_s", Float t_off);
        (key ^ "_overhead_pct", Float pct);
      ];
    pct
  in
  (* -- page codec CRC overhead -- *)
  let db, tree = fresh ~page_size:4096 () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 1 to 120 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  Bufpool.flush_all db.Db.pool;
  let image =
    match Disk.read db.Db.disk (Btree.root_pid tree) with
    | Some p -> Page.encode p
    | None -> failwith "q16: root image missing"
  in
  let iters = 20_000 in
  let codec_loop () =
    for _ = 1 to iters do
      ignore (Page.decode ~psize:4096 (Page.encode (Page.decode ~psize:4096 image)))
    done
  in
  let codec_overhead =
    crc_overhead "page_codec"
      (Printf.sprintf "page codec (%d enc+2dec, %dB image)" iters (Bytes.length image))
      codec_loop
  in
  Record.gate r "page-codec CRC overhead <= 25.5% (51% before the pass)"
    ~ok:(codec_overhead <= 25.5);
  (* -- page codec allocation over a fixed page set: a flushed table of
     600 rows with a unique index, so data, leaf, nonleaf and anchor
     pages all take part -- *)
  let tdb = Db.create ~page_size:4096 () in
  let specs = [ { Table.sp_name = "pk"; sp_unique = true; sp_key = (fun row -> row.(0)) } ] in
  Db.run_exn tdb (fun () ->
      Db.with_txn tdb (fun txn ->
          let tbl = Table.create tdb txn ~id:1 specs in
          for i = 1 to 600 do
            ignore (Table.insert tbl txn [| v i; Printf.sprintf "row payload %05d" i |])
          done));
  Bufpool.flush_all tdb.Db.pool;
  let images =
    List.filter_map
      (fun pid -> Option.map snd (Disk.read_with_image tdb.Db.disk pid))
      (Disk.pids tdb.Db.disk)
  in
  let rounds = 100 in
  let words_per_call xs f =
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      List.iter f xs
    done;
    (Gc.minor_words () -. w0) /. float_of_int (rounds * List.length xs)
  in
  let decode_words = words_per_call images (fun image -> ignore (Page.decode ~psize:4096 image)) in
  (* built pages (every entry materialized) and a warm arena, so only the
     encode itself is counted. An image over 256 words is allocated in the
     major heap and does not show here; everything else the codec
     allocates does. *)
  let arena = Bytebuf.W.create ~size:(4096 + 16) () in
  let pages = List.map (Page.decode ~psize:4096) images in
  List.iter (fun p -> ignore (Page.encode_into arena p)) pages;
  let encode_words = words_per_call pages (fun p -> ignore (Page.encode_into arena p)) in
  Record.line r
    (Printf.sprintf "page codec (%d pages x%d): minor words per encode_into / per decode"
       (List.length images) rounds)
    [ ("encode_minor_words", Float encode_words); ("decode_minor_words", Float decode_words) ];
  (* one more word on one page of the set moves a figure by 1/15 *)
  Record.gate r "encode_into (warm arena) allocates <= 15.94 minor words/call"
    ~ok:(encode_words <= 15.94);
  Record.gate r "decode allocates <= 123.0 minor words/call" ~ok:(decode_words <= 123.0);
  (* -- CRC allocation: every CRC entry point the engine calls, over the
     same images; a boxed optional argument would show as 2 words -- *)
  let dst = Bytebuf.W.create ~size:(4096 + 16) () in
  let src = Bytebuf.W.create ~size:(4096 + 16) () in
  let crc_words =
    [
      ("crc_update", fun b -> ignore (Crc.update 0 (Bytes.unsafe_to_string b) 1 (Bytes.length b - 5)));
      ("crc_string", fun b -> ignore (Crc.string (Bytes.unsafe_to_string b)));
      ("crc_bytes", fun b -> ignore (Crc.bytes b));
      ( "w_crc",
        fun b ->
          Bytebuf.W.reset src;
          Bytebuf.W.raw_string src (Bytes.unsafe_to_string b);
          ignore (Bytebuf.W.crc src) );
      ( "w_append_with_crc",
        fun b ->
          Bytebuf.W.reset src;
          Bytebuf.W.raw_string src (Bytes.unsafe_to_string b);
          Bytebuf.W.reset dst;
          ignore (Bytebuf.W.append_with_crc dst src) );
    ]
    |> List.map (fun (key, f) -> (key ^ "_minor_words", words_per_call images f))
  in
  Record.line r "crc (same pages): minor words per call, by entry point"
    (List.map (fun (k, w) -> (k, Record.Float w)) crc_words);
  Record.gate r "every CRC entry point allocates 0 minor words/call"
    ~ok:(List.for_all (fun (_, w) -> w = 0.0) crc_words);
  (* -- log image load (tail-scan CRC path), reported not gated -- *)
  let llog = Logmgr.create ~segment_size:4096 () in
  for i = 1 to 2_000 do
    ignore
      (Logmgr.append llog
         (Logrec.make ~page:(i mod 64) ~rm_id:1 ~op:1 ~body:(Bytes.make 48 'q') ~txn:i
            ~prev_lsn:Lsn.nil Logrec.Update))
  done;
  Logmgr.flush llog;
  let log_img = Logmgr.serialize llog in
  let load_iters = 200 in
  let load_loop () =
    for _ = 1 to load_iters do
      ignore (Logmgr.deserialize log_img)
    done
  in
  ignore
    (crc_overhead "log_load"
       (Printf.sprintf "log image load (%dx, %dB, 2000 records)" load_iters (Bytes.length log_img))
       load_loop);
  (* -- log append: arena reuse on every steady-state append -- *)
  let alog = Logmgr.create ~segment_size:65536 () in
  let body = Bytes.make 48 'q' in
  ignore
    (Logmgr.append alog
       (Logrec.make ~page:1 ~rm_id:1 ~op:1 ~body ~txn:1 ~prev_lsn:Lsn.nil Logrec.Update));
  let appends = 10_000 in
  let astats = Stats.create () in
  let minor0 = Gc.minor_words () in
  Stats.with_sink astats (fun () ->
      for i = 1 to appends do
        ignore
          (Logmgr.append alog
             (Logrec.make ~page:(i mod 64) ~rm_id:1 ~op:1 ~body ~txn:i ~prev_lsn:Lsn.nil
                Logrec.Update))
      done);
  let minor1 = Gc.minor_words () in
  let words_per_append = (minor1 -. minor0) /. float_of_int appends in
  let reuses = Stats.get astats Stats.wal_encode_arena_reuses in
  Record.line r
    (Printf.sprintf "log append (%d after warm-up): arena reuses / minor words each" appends)
    [ ("append_arena_reuses", Int reuses); ("append_minor_words", Float words_per_append) ];
  Record.gate r "encode arena reused on every steady-state append" ~ok:(reuses >= appends);
  Record.finish r

(* ------------------------------------------------------------------ *)
(* Q17 (PR 10): sharded Db + presumed-abort 2PC.

   Three claims, three gates:
   - commit cost: a cross-shard commit pays exactly the presumed-abort
     force budget — per participant a forced Prepare plus a forced
     Commit (the ack lets the coordinator forget the gid, so the commit
     must be stable first), plus the coordinator's forced decision:
     2P+1 where a single-shard commit pays one force. Gated on the
     measured forces-per-commit of both shapes; wall-clock throughput
     is reported, not gated.
   - in-doubt resolution latency: branches prepared on two shards when
     the whole cluster dies must be restored in-doubt by restart and
     resolved (abort by presumption — no decision survived) before
     restart returns; same again when only the {e coordinator} dies and
     is revived. Gated on every in-doubt resolved and a clean cluster
     leak report. Latency is reported in scheduler steps.
   - robustness: a bounded sharded crash/kill/degrade sweep (the same
     rig as [sim smoke --shards]) must be failure-free. *)
let q17 ppf =
  let r = Record.start ppf "q17" "Q17: sharded 2PC — commit cost, in-doubt latency, fault sweep" in
  let module Sharddb = Aries_shard.Sharddb in
  let module Twopc = Aries_shard.Twopc in
  let module Shardsim = Aries_sim.Shardsim in
  let module Sweep = Aries_sim.Sweep in
  let module Sched = Aries_sched.Sched in
  let run_ok t f =
    let r = Sharddb.run t ~policy:Sched.Fifo f in
    (match r.Sched.exns with
    | [] -> ()
    | (_, name, e) :: _ ->
        failwith (Printf.sprintf "q17: fiber %s died: %s" name (Printexc.to_string e)));
    match r.Sched.outcome with
    | Sched.Completed -> ()
    | _ -> failwith "q17: workload did not complete"
  in
  (* -- commit cost: single-shard vs cross-shard -- *)
  let t = Sharddb.create ~shards:3 ~page_size:640 ~pool_capacity:32 () in
  run_ok t (fun () -> Sharddb.setup t);
  (* [n] values routed to shard [k], distinct from anything in [used] *)
  let vals_on k n =
    let rec go i acc m =
      if m = 0 then List.rev acc
      else
        let v = Printf.sprintf "q17-%05d" i in
        if Sharddb.shard_of t v = k then go (i + 1) (v :: acc) (m - 1) else go (i + 1) acc m
    in
    go (k * 100_000) [] n
  in
  let ntxns = 200 in
  let srid =
    let c = ref 0 in
    fun () ->
      incr c;
      { Ids.rid_page = 310_000; rid_slot = !c }
  in
  let commit_batch pairs =
    let stats = Stats.create () in
    let time =
      Record.timed (fun () ->
          Stats.with_sink stats (fun () ->
              run_ok t (fun () ->
                  ignore
                    (Sched.spawn ~name:"commits" (fun () ->
                         List.iter
                           (fun (a, b) ->
                             let g = Sharddb.begin_gtxn t in
                             Sharddb.insert t g ~value:a ~rid:(srid ());
                             Sharddb.insert t g ~value:b ~rid:(srid ());
                             Sharddb.commit t g)
                           pairs)))))
    in
    (time, Stats.get stats Stats.log_forces, Stats.get stats Stats.txn_prepares)
  in
  let on0 = vals_on 0 (2 * ntxns) in
  let single_pairs =
    List.init ntxns (fun i -> (List.nth on0 (2 * i), List.nth on0 ((2 * i) + 1)))
  in
  let cross_pairs = List.combine (vals_on 1 ntxns) (vals_on 2 ntxns) in
  let s_time, s_forces, s_prepares = commit_batch single_pairs in
  let x_time, x_forces, x_prepares = commit_batch cross_pairs in
  let row shape time forces prepares : (string * Record.json) list =
    [
      ("shape", Str shape);
      ("txns", Int ntxns);
      ("txns_per_s", Float (float_of_int ntxns /. Float.max time epsilon_float));
      ("forces_per_commit", Float (float_of_int forces /. float_of_int ntxns));
      ("prepares", Int prepares);
    ]
  in
  Record.table r "commit_cost"
    [
      row "single-shard" s_time s_forces s_prepares; row "cross-shard" x_time x_forces x_prepares;
    ];
  (* presumed-abort force budget: 1 per single-shard commit; 2P+1 (= 5
     here) per cross-shard commit — prepare + commit force per
     participant, decision force on the coordinator *)
  Record.gate r "single-shard commit: no prepare, 1 force" ~ok:(s_prepares = 0 && s_forces = ntxns);
  Record.gate r "cross-shard commit: 2 prepares, 2P+1 = 5 forces"
    ~ok:(x_prepares = 2 * ntxns && x_forces = 5 * ntxns);
  Sharddb.close t;
  (* -- in-doubt resolution latency -- *)
  (* prepare a cross-shard transaction by hand (phase 1 only), then lose
     the decision two ways: the whole cluster dies, or just the
     coordinator dies and is revived. *)
  let prep () =
    let t = Sharddb.create ~shards:2 ~page_size:640 ~pool_capacity:32 () in
    run_ok t (fun () -> Sharddb.setup t);
    (* two values this cluster's router sends to different shards *)
    let pv i = Printf.sprintf "q17p-%03d" i in
    let rec hunt i =
      if Sharddb.shard_of t (pv i) <> Sharddb.shard_of t (pv 0) then (pv 0, pv i)
      else hunt (i + 1)
    in
    let a, b = hunt 1 in
    let coord = ref 0 in
    run_ok t (fun () ->
        ignore
          (Sched.spawn ~name:"prep" (fun () ->
               let g = Sharddb.begin_gtxn t in
               Sharddb.insert t g ~value:a ~rid:{ Ids.rid_page = 311_000; rid_slot = 1 };
               Sharddb.insert t g ~value:b ~rid:{ Ids.rid_page = 311_000; rid_slot = 2 };
               coord := Sharddb.shard_of t a;
               List.iter
                 (fun k ->
                   let tx = Sharddb.local t g k in
                   Txnmgr.prepare
                     ~meta:(Twopc.encode_prepare_meta ~gid:(Sharddb.gid g) ~coord:!coord)
                     (Sharddb.db t k).Db.mgr tx)
                 (Sharddb.participants g))));
    (t, !coord)
  in
  let t1, _ = prep () in
  Sharddb.crash t1;
  let stats1 = Stats.create () in
  let restart_ms = ref 0.0 and restart_resolved = ref 0 in
  Stats.with_sink stats1 (fun () ->
      run_ok t1 (fun () ->
          ignore
            (Sched.spawn ~name:"restart" (fun () ->
                 restart_ms :=
                   1000.0 *. Record.timed (fun () -> restart_resolved := snd (Sharddb.restart t1));
                 if Sharddb.leak_report t1 <> [] then failwith "q17: post-restart leak"))));
  Record.line r "cluster crash, 2 in-doubt branches: restored / resolved / ms"
    [
      ("crash_indoubt_restored", Int (Stats.get stats1 Stats.txn_indoubt_restored));
      ("crash_indoubt_resolved", Int !restart_resolved);
      ("crash_restart_ms", Float !restart_ms);
    ];
  Record.gate r "cluster restart restores and resolves both in-doubt branches"
    ~ok:(!restart_resolved = 2 && Stats.get stats1 Stats.txn_indoubt_restored = 2);
  Sharddb.close t1;
  let t2, coord = prep () in
  let stats2 = Stats.create () in
  let revive_ms = ref 0.0 and parked_resolved = ref 0 and down_resolved = ref 0 in
  Stats.with_sink stats2 (fun () ->
      run_ok t2 (fun () ->
          ignore
            (Sched.spawn ~name:"coord-crash" (fun () ->
                 Sharddb.kill t2 coord;
                 (* the participant's branch stays parked: its coordinator
                    is down, aborting by presumption now would be wrong *)
                 down_resolved := Sharddb.resolve_indoubts t2;
                 revive_ms := 1000.0 *. Record.timed (fun () -> ignore (Sharddb.revive t2 coord));
                 parked_resolved := Sharddb.resolve_indoubts t2;
                 if Sharddb.leak_report t2 <> [] then failwith "q17: post-revive leak"))));
  Record.line r "coordinator fail-stop: resolved while down / revive ms / resolved"
    [
      ("failstop_resolved_while_down", Int !down_resolved);
      ("failstop_revive_ms", Float !revive_ms);
      ("failstop_resolved", Int (Stats.get stats2 Stats.txn_indoubt_resolved));
    ];
  Record.gate r "nothing resolved while the coordinator is down; revive resolves both"
    ~ok:(!down_resolved = 0 && Stats.get stats2 Stats.txn_indoubt_resolved >= 2);
  Sharddb.close t2;
  (* -- zero-fatal sharded fault sweep (the sim smoke rig, small budget) -- *)
  let sweep =
    Shardsim.sweep ~workload:"shards" Shardsim.default_cfg ~seeds:[ 1; 2 ] ~crash_seeds:[ 1001 ] ~crash_budget:9
  in
  Record.line r "sharded fault sweep: runs / acked / in-doubt resolved / failures"
    [
      ("sweep_runs", Int sweep.Sweep.sm_runs);
      ("sweep_acked", Int sweep.Sweep.sm_acked);
      ("sweep_resolved", Int sweep.Sweep.sm_resolved);
      ("sweep_failures", Int (List.length sweep.Sweep.sm_failures));
    ];
  List.iter
    (fun rp -> kv ppf "  FAILURE" "%s" (Sweep.reproducer_line rp))
    sweep.Sweep.sm_failures;
  Record.gate r "sharded fault sweep clean, commits acked"
    ~ok:(sweep.Sweep.sm_failures = [] && sweep.Sweep.sm_acked > 0);
  Record.finish r

let all : (string * (Format.formatter -> unit)) list =
  List.map figure Aries_figures.Figures.all
  @ [
    ("q1", q1);
    ("q2", q2);
    ("q3", q3);
    ("q4", q4);
    ("q5", q5);
    ("q6", q6);
    ("q7", q7);
    ("q8", q8);
    ("q9", q9);
    ("q10", q10);
    ("q11", q11);
    ("q12", q12);
    ("q13", q13);
    ("q14", q14);
    ("q15", q15);
    ("q16", q16);
    ("q17", q17);
  ]
