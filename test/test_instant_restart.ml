(* Instant restart: the Db opens for new transactions right after Analysis.
   Redo happens per page on demand (or through the background drain), undo
   is lock-driven and preemptible, and crashing while the drain is still
   running is just another crash. The suite pins each of those behaviours
   deterministically; the randomized recovery-during-recovery sweep lives
   in test_sim.ml. *)

open Aries_util
module Logmgr = Aries_wal.Logmgr
module Btree = Aries_btree.Btree
module Txnmgr = Aries_txn.Txnmgr
module Lockcodec = Aries_txn.Lockcodec
module Lockmgr = Aries_lock.Lockmgr
module Restart = Aries_recovery.Restart
module Bufpool = Aries_buffer.Bufpool
module Db = Aries_db.Db
module Trace = Aries_trace.Trace
module Discipline = Aries_trace.Discipline

let rid i = { Ids.rid_page = 1000 + (i / 100); rid_slot = i mod 100 }

let v i = Printf.sprintf "key%05d" i

let fresh ?(page_size = 384) () =
  let db = Db.create ~page_size () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Btree.create db.Db.benv txn ~name:"t" ~unique:true))
  in
  (db, tree)

let reopen db = Btree.open_existing db.Db.benv

(* [lo..hi] committed in one transaction *)
let commit_range db tree lo hi =
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = lo to hi do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done))

(* a loser: begin, do [work], flush the log tail, end the fiber without
   committing — the transaction is in flight at the crash *)
let in_flight db work =
  ignore
    (Db.run db (fun () ->
         let txn = Txnmgr.begin_txn db.Db.mgr in
         work txn;
         Logmgr.flush db.Db.wal))

(* start the instant engine directly (no restartd daemon), so the test can
   interact with a half-recovered Db *)
let start_engine db' = Restart.start ~archive:db'.Db.archive db'.Db.mgr db'.Db.pool

let stat name = Stats.get (Stats.current ()) name

(* ---------- serving transactions before redo completes ---------- *)

let test_commit_before_redo_complete () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  commit_range db tree 0 199;
  (* no page ever flushed: every page must come back through redo *)
  let db' = Db.crash db in
  Db.run_exn db' (fun () ->
      let en = start_engine db' in
      Alcotest.(check bool) "engine not finished at open" false (Restart.finished en);
      let pend0 = List.length (Restart.pending_redo en) in
      Alcotest.(check bool) "several pages awaiting redo" true (pend0 > 3);
      (* a brand-new transaction commits while most of the tree is still
         un-redone: only the pages its traversal fixes are replayed *)
      let tree' = reopen db' ix in
      Db.with_txn db' (fun txn -> Btree.insert tree' txn ~value:(v 500) ~rid:(rid 500));
      Alcotest.(check bool) "committed before redo completed" true
        (Restart.pending_redo en <> [] && not (Restart.finished en));
      Restart.drain en;
      Alcotest.(check bool) "drain finishes the engine" true (Restart.finished en));
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "old and new commits all present" 201 (List.length (Btree.to_list tree'))

let test_ondemand_redo_exact_page () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  commit_range db tree 0 199;
  let db' = Db.crash db in
  Db.run_exn db' (fun () ->
      let en = start_engine db' in
      let pending = Restart.pending_redo en in
      let pid = List.hd (List.rev pending) in
      let od0 = stat Stats.instant_ondemand_redos in
      let p = Bufpool.fix db'.Db.pool pid in
      Bufpool.unfix db'.Db.pool p;
      Alcotest.(check (list int)) "exactly that page left the needs-redo set"
        (List.filter (fun q -> q <> pid) pending)
        (Restart.pending_redo en);
      Alcotest.(check int) "one on-demand redo" 1 (stat Stats.instant_ondemand_redos - od0);
      Restart.drain en);
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "contents intact" 200 (List.length (Btree.to_list tree'))

(* ---------- lock-driven, preemptible undo ---------- *)

let test_loser_lock_preempts_undo () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  commit_range db tree 0 19;
  in_flight db (fun txn ->
      for i = 100 to 104 do
        Btree.insert tree txn ~value:(v i) ~rid:(rid i)
      done);
  let db' = Db.crash db in
  Db.run_exn db' (fun () ->
      let en = start_engine db' in
      let lid =
        match Restart.losers_remaining en with
        | [ id ] -> id
        | l -> Alcotest.failf "expected one live loser, got %d" (List.length l)
      in
      (* the loser's uncommitted keys are fenced by reacquired X locks *)
      let held = Lockmgr.held_locks db'.Db.locks ~txn:lid in
      let name, _ =
        try List.find (fun (_, m) -> m = Lockmgr.X) held
        with Not_found -> Alcotest.fail "loser holds no X lock"
      in
      Alcotest.(check bool) "the loser is among the holders" true
        (List.exists (fun (id, _) -> id = lid) (Lockmgr.holders db'.Db.locks name));
      (* a new transaction asking for that name preempts exactly that
         loser's undo, then gets the lock *)
      let pre0 = stat Stats.instant_preemptions in
      Db.with_txn db' (fun txn -> Txnmgr.lock db'.Db.mgr txn name Lockmgr.X Lockmgr.Commit);
      Alcotest.(check int) "one preemption" 1 (stat Stats.instant_preemptions - pre0);
      Alcotest.(check (list int)) "the loser is fully undone" [] (Restart.losers_remaining en);
      Restart.drain en);
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "loser's inserts are gone" 20 (List.length (Btree.to_list tree'))

(* ---------- recovery during recovery ---------- *)

let test_crash_mid_drain_reenters_instant () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  commit_range db tree 0 149;
  in_flight db (fun txn ->
      for i = 200 to 229 do
        Btree.insert tree txn ~value:(v i) ~rid:(rid i)
      done);
  let db' = Db.crash db in
  let cfg = { Restart.dr_every_steps = 1; dr_redo_pages = 2; dr_undo_txns = 0 } in
  Db.run_exn db' (fun () ->
      let en = start_engine db' in
      Restart.drain_step ~cfg en;
      Restart.drain_step ~cfg en;
      Alcotest.(check bool) "drain still in flight at the second crash" false
        (Restart.finished en));
  (* crash while the drain is still running, and recover with the instant
     engine again — just another crash *)
  let db'' = Db.crash db' in
  ignore (Db.run_exn db'' (fun () -> Db.restart ~instant:true db''));
  let en = Option.get (Db.restart_engine db'') in
  Alcotest.(check bool) "second instant restart completes" true (Restart.finished en);
  Alcotest.(check int) "the loser is found again" 1
    (List.length (Restart.report en).Restart.rp_losers);
  let tree' = reopen db'' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "committed work only" 150 (List.length (Btree.to_list tree'))

let test_mid_drain_checkpoint_sound () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  commit_range db tree 0 149;
  in_flight db (fun txn ->
      for i = 200 to 224 do
        Btree.insert tree txn ~value:(v i) ~rid:(rid i)
      done);
  let db' = Db.crash db in
  let cfg = { Restart.dr_every_steps = 1; dr_redo_pages = 2; dr_undo_txns = 0 } in
  Db.run_exn db' (fun () ->
      let en = start_engine db' in
      (* every needs-redo page is checkpoint-visible through the Bufpool
         overlay, so a fuzzy checkpoint taken mid-drain still covers the
         un-replayed history *)
      let dpt = List.map fst (Bufpool.dirty_page_table db'.Db.pool) in
      List.iter
        (fun pid ->
          Alcotest.(check bool)
            (Printf.sprintf "pending page %d visible in the DPT" pid)
            true (List.mem pid dpt))
        (Restart.pending_redo en);
      Restart.drain_step ~cfg en;
      Db.checkpoint db';
      Alcotest.(check bool) "checkpoint taken mid-drain" false (Restart.finished en));
  (* crash right after that mid-drain checkpoint; a classic restart must
     recover from it alone *)
  let db'' = Db.crash db' in
  ignore (Db.run_exn db'' (fun () -> Db.restart db''));
  let tree' = reopen db'' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "classic restart from mid-drain checkpoint" 150
    (List.length (Btree.to_list tree'))

(* ---------- equivalence with classic restart ---------- *)

let test_instant_equiv_classic () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  commit_range db tree 0 119;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 9 do
            Btree.delete tree txn ~value:(v i) ~rid:(rid i)
          done));
  (* loser 1: inserts only — all of its locks are derivable from the log,
     so the instant engine may leave it lazy *)
  in_flight db (fun txn ->
      for i = 200 to 214 do
        Btree.insert tree txn ~value:(v i) ~rid:(rid i)
      done);
  (* loser 2: deletes a committed key — its commit-duration next-key lock
     is not derivable, so the instant engine must undo it eagerly *)
  in_flight db (fun txn ->
      Btree.delete tree txn ~value:(v 15) ~rid:(rid 15);
      Btree.insert tree txn ~value:(v 300) ~rid:(rid 300));
  let file = Filename.temp_file "aries_instant_equiv" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Db.save db file;
      let db_classic = Db.load file and db_instant = Db.load file in
      let r_classic = Db.run_exn db_classic (fun () -> Db.restart db_classic) in
      ignore (Db.run_exn db_instant (fun () -> Db.restart ~instant:true db_instant));
      let en = Option.get (Db.restart_engine db_instant) in
      Alcotest.(check bool) "instant engine drained" true (Restart.finished en);
      let r_instant = Restart.report en in
      let sorted l = List.sort compare l in
      Alcotest.(check (list int)) "same losers"
        (sorted r_classic.Restart.rp_losers)
        (sorted r_instant.Restart.rp_losers);
      Alcotest.(check (list int)) "same in-doubt set"
        (sorted r_classic.Restart.rp_indoubt)
        (sorted r_instant.Restart.rp_indoubt);
      Alcotest.(check int) "same redos applied" r_classic.Restart.rp_redos_applied
        r_instant.Restart.rp_redos_applied;
      Alcotest.(check int) "same loser records undone" r_classic.Restart.rp_undo_records
        r_instant.Restart.rp_undo_records;
      let tc = reopen db_classic ix and ti = reopen db_instant ix in
      Btree.check_invariants tc;
      Btree.check_invariants ti;
      let lc = Btree.to_list tc and li = Btree.to_list ti in
      Alcotest.(check int) "expected survivors" 110 (List.length lc);
      Alcotest.(check bool) "identical contents" true (lc = li))

(* ---------- report counters aggregate across passes ---------- *)

let test_report_aggregates_across_passes () =
  let db, tree = fresh () in
  commit_range db tree 0 149;
  in_flight db (fun txn ->
      for i = 200 to 229 do
        Btree.insert tree txn ~value:(v i) ~rid:(rid i)
      done);
  let db' = Db.crash db in
  Db.run_exn db' (fun () ->
      let en = start_engine db' in
      let r0 = Restart.report en in
      (* an on-demand redo is visible in the very next report *)
      let pid = List.hd (Restart.pending_redo en) in
      let p = Bufpool.fix db'.Db.pool pid in
      Bufpool.unfix db'.Db.pool p;
      let r1 = Restart.report en in
      Alcotest.(check bool) "on-demand redo counted" true
        (r1.Restart.rp_redos_applied > r0.Restart.rp_redos_applied);
      (* tiny drain rounds: every counter is monotone across passes, never
         reset per round *)
      let cfg = { Restart.dr_every_steps = 1; dr_redo_pages = 1; dr_undo_txns = 1 } in
      let prev = ref r1 in
      let rounds = ref 0 in
      while not (Restart.finished en) do
        incr rounds;
        if !rounds > 10_000 then Alcotest.fail "drain did not converge";
        Restart.drain_step ~cfg en;
        let r = Restart.report en in
        Alcotest.(check bool) "redos_applied monotone" true
          (r.Restart.rp_redos_applied >= !prev.Restart.rp_redos_applied);
        Alcotest.(check bool) "redo scan monotone" true
          (r.Restart.rp_records_redo_scanned >= !prev.Restart.rp_records_redo_scanned);
        Alcotest.(check bool) "undo_records monotone" true
          (r.Restart.rp_undo_records >= !prev.Restart.rp_undo_records);
        prev := r
      done;
      (* the totals are stable once finished *)
      let rf = Restart.report en in
      Alcotest.(check bool) "report stable after finish" true (Restart.report en = rf);
      Alcotest.(check bool) "undo work accounted" true (rf.Restart.rp_undo_records > 0);
      Alcotest.(check int) "one loser in the final report" 1
        (List.length rf.Restart.rp_losers))

(* ---------- boundaries ---------- *)

let test_clean_log_nothing_to_drain () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  commit_range db tree 0 59;
  Bufpool.flush_all db.Db.pool;
  Db.checkpoint db;
  let db' = Db.crash db in
  Db.run_exn db' (fun () ->
      let en = start_engine db' in
      Alcotest.(check (list int)) "nothing needs redo" [] (Restart.pending_redo en);
      Alcotest.(check (list int)) "no losers" [] (Restart.losers_remaining en);
      Restart.drain en;
      Alcotest.(check bool) "finished" true (Restart.finished en);
      Alcotest.(check int) "no redo work at all" 0
        (Restart.report en).Restart.rp_redos_applied);
  let tree' = reopen db' ix in
  Alcotest.(check int) "contents intact" 60 (List.length (Btree.to_list tree'))

let test_daemon_drains_under_scheduler () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  commit_range db tree 0 149;
  in_flight db (fun txn ->
      for i = 200 to 219 do
        Btree.insert tree txn ~value:(v i) ~rid:(rid i)
      done);
  let db' = Db.crash db in
  (* the Db-level entry point: restartd drains in the background and the
     post-run state is fully quiesced *)
  ignore (Db.run_exn db' (fun () -> Db.restart ~instant:true db'));
  let en = Option.get (Db.restart_engine db') in
  Alcotest.(check bool) "daemon finished the drain" true (Restart.finished en);
  Alcotest.(check (list string)) "no leaks after instant restart" [] (Db.leak_report db');
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "committed work only" 150 (List.length (Btree.to_list tree'))

let test_indoubt_under_instant () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  ignore
    (Db.run db (fun () ->
         let t = Txnmgr.begin_txn db.Db.mgr in
         Txnmgr.lock db.Db.mgr t (Lockmgr.Rid (rid 1)) Lockmgr.X Lockmgr.Commit;
         Btree.insert tree t ~value:(v 1) ~rid:(rid 1);
         Txnmgr.prepare db.Db.mgr t));
  let db' = Db.crash db in
  ignore (Db.run_exn db' (fun () -> Db.restart ~instant:true db'));
  let en = Option.get (Db.restart_engine db') in
  let report = Restart.report en in
  Alcotest.(check int) "one in-doubt txn" 1 (List.length report.Restart.rp_indoubt);
  let id = List.hd report.Restart.rp_indoubt in
  Alcotest.(check bool) "in-doubt txn is not a loser" true
    (not (List.mem id report.Restart.rp_losers));
  Alcotest.(check bool) "its locks are held across the drain" true
    (Lockmgr.held_count db'.Db.locks ~txn:id > 0);
  let txn = Option.get (Txnmgr.find db'.Db.mgr id) in
  Db.run_exn db' (fun () -> Txnmgr.commit_prepared db'.Db.mgr txn);
  let tree' = reopen db' ix in
  Alcotest.(check int) "coordinator's commit lands" 1 (List.length (Btree.to_list tree'))

(* ---------- the discipline rule has teeth ---------- *)

let test_skip_redo_fault_trips_r7 () =
  let db, tree = fresh () in
  commit_range db tree 0 49;
  (* flush, then dirty the pages again: at the crash they exist on disk but
     are stale, so the faulty fix below serves old content instead of
     failing outright *)
  Bufpool.flush_all db.Db.pool;
  commit_range db tree 50 99;
  let db' = Db.crash db in
  Trace.set_mode Trace.Check;
  Trace.reset ();
  Discipline.reset ();
  Crashpoint.enable Crashpoint.Instant_skip_redo;
  Fun.protect
    ~finally:(fun () ->
      Crashpoint.clear ();
      Trace.set_mode Trace.Off;
      Trace.reset ();
      Discipline.reset ())
    (fun () ->
      let tripped =
        try
          Db.run_exn db' (fun () ->
              let en = start_engine db' in
              let on_disk = Aries_page.Disk.pids db'.Db.disk in
              let pid =
                List.find (fun p -> List.mem p on_disk) (Restart.pending_redo en)
              in
              (* the faulty engine drops the page from its pending set
                 without repeating its history: the checker's needs-redo
                 table still lists it, so the fix is served stale *)
              let p = Bufpool.fix db'.Db.pool pid in
              Bufpool.unfix db'.Db.pool p);
          false
        with Discipline.Violation (Discipline.R7, _) -> true
      in
      Alcotest.(check bool) "R7 catches the skipped redo" true tripped;
      Alcotest.(check bool) "violation counted" true (Discipline.violations () > 0))

(* ---------- checkpoint lock-list codec ---------- *)

let lockcodec_roundtrip =
  (* 1000 seeded random lock lists through encode_list/decode_list *)
  let gen_name st =
    match Random.State.int st 6 with
    | 0 ->
        Lockmgr.Rid
          { Ids.rid_page = Random.State.int st 100_000; rid_slot = Random.State.int st 4096 }
    | 1 ->
        let len = Random.State.int st 24 in
        Lockmgr.Key_value
          ( Random.State.int st 1_000,
            String.init len (fun _ -> Char.chr (Random.State.int st 256)) )
    | 2 -> Lockmgr.Eof (Random.State.int st 1_000)
    | 3 -> Lockmgr.Table (Random.State.int st 1_000)
    | 4 -> Lockmgr.Page_lock (Random.State.int st 1_000_000)
    | _ -> Lockmgr.Tree_lock (Random.State.int st 1_000)
  in
  let gen_mode st =
    match Random.State.int st 5 with
    | 0 -> Lockmgr.IS
    | 1 -> Lockmgr.IX
    | 2 -> Lockmgr.S
    | 3 -> Lockmgr.SIX
    | _ -> Lockmgr.X
  in
  fun () ->
    let st = Random.State.make [| 0xC0DEC; 6 |] in
    for case = 1 to 1000 do
      let n = Random.State.int st 41 in
      let locks = List.init n (fun _ -> (gen_name st, gen_mode st)) in
      let back = Lockcodec.decode_list (Lockcodec.encode_list locks) in
      if back <> locks then Alcotest.failf "roundtrip mismatch on case %d (%d locks)" case n
    done

let () =
  Alcotest.run "instant_restart"
    [
      ( "serve-during-recovery",
        [
          Alcotest.test_case "commit before redo completes" `Quick
            test_commit_before_redo_complete;
          Alcotest.test_case "on-demand redo hits exactly the fixed page" `Quick
            test_ondemand_redo_exact_page;
          Alcotest.test_case "loser lock preempts exactly that undo" `Quick
            test_loser_lock_preempts_undo;
        ] );
      ( "recovery-during-recovery",
        [
          Alcotest.test_case "crash mid-drain re-enters instant restart" `Quick
            test_crash_mid_drain_reenters_instant;
          Alcotest.test_case "mid-drain checkpoint is sound" `Quick
            test_mid_drain_checkpoint_sound;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "instant = classic on identical logs" `Quick
            test_instant_equiv_classic;
          Alcotest.test_case "report counters aggregate across passes" `Quick
            test_report_aggregates_across_passes;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "clean log: nothing to drain" `Quick test_clean_log_nothing_to_drain;
          Alcotest.test_case "restartd daemon drains under the scheduler" `Quick
            test_daemon_drains_under_scheduler;
          Alcotest.test_case "in-doubt txn under instant restart" `Quick
            test_indoubt_under_instant;
        ] );
      ( "discipline",
        [
          Alcotest.test_case "skip-redo fault trips R7" `Quick test_skip_redo_fault_trips_r7;
        ] );
      ( "codec",
        [ Alcotest.test_case "lock-list roundtrip x1000" `Quick lockcodec_roundtrip ] );
    ]
