(* Transaction manager: PrevLSN chains, commit forcing, total and partial
   rollback through a mock resource manager, nested top actions, CLR
   chaining (bounded logging), deadlock-abort integration, and the
   checkpoint / lock-list codecs. *)

open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logmgr = Aries_wal.Logmgr
module L = Aries_lock.Lockmgr
module Txnmgr = Aries_txn.Txnmgr
module Lockcodec = Aries_txn.Lockcodec
module Checkpoint = Aries_recovery.Checkpoint
module Sched = Aries_sched.Sched

(* Mock resource manager: a register file. op 1 = set register; body =
   (reg, old, new). Undo writes a CLR with the values swapped. *)
let mock_rm_id = 9

type mock = { regs : (int, int) Hashtbl.t }

let mock_body reg ~old_v ~new_v =
  let w = Bytebuf.W.create () in
  Bytebuf.W.i64 w reg;
  Bytebuf.W.i64 w old_v;
  Bytebuf.W.i64 w new_v;
  Bytebuf.W.contents w

let mock_decode b =
  let r = Bytebuf.R.of_bytes b in
  let reg = Bytebuf.R.i64 r in
  let old_v = Bytebuf.R.i64 r in
  let new_v = Bytebuf.R.i64 r in
  (reg, old_v, new_v)

let install_mock mgr =
  let m = { regs = Hashtbl.create 8 } in
  Txnmgr.register_rm mgr ~rm_id:mock_rm_id
    ~redo:(fun r ->
      let reg, _old_v, new_v = mock_decode r.Logrec.body in
      Hashtbl.replace m.regs reg new_v)
    ~undo:(fun txn r ->
      let reg, old_v, new_v = mock_decode r.Logrec.body in
      ignore
        (Txnmgr.log_clr mgr txn ~rm_id:mock_rm_id ~op:1 ~enc:Bytebuf.raw_bytes
           ~body:(mock_body reg ~old_v:new_v ~new_v:old_v)
           ~undo_nxt:r.Logrec.prev_lsn ());
      Hashtbl.replace m.regs reg old_v)
    ();
  m

let set mgr m txn reg v =
  let old_v = match Hashtbl.find_opt m.regs reg with Some x -> x | None -> 0 in
  ignore
    (Txnmgr.log_update mgr txn ~rm_id:mock_rm_id ~op:1 ~enc:Bytebuf.raw_bytes
       ~body:(mock_body reg ~old_v ~new_v:v) ());
  Hashtbl.replace m.regs reg v

let setup () =
  let wal = Logmgr.create () in
  let locks = L.create () in
  let mgr = Txnmgr.create (Aries_wal.Logset.of_mgr wal) locks in
  let m = install_mock mgr in
  (wal, locks, mgr, m)

let get m reg = match Hashtbl.find_opt m.regs reg with Some x -> x | None -> 0

let test_prev_lsn_chain () =
  let wal, _, mgr, m = setup () in
  let txn = Txnmgr.begin_txn mgr in
  set mgr m txn 1 10;
  set mgr m txn 1 20;
  set mgr m txn 1 30;
  (* walk the chain backwards *)
  let r3 = Logmgr.read wal txn.Txnmgr.lasts.(0) in
  let r2 = Logmgr.read wal r3.Logrec.prev_lsn in
  let r1 = Logmgr.read wal r2.Logrec.prev_lsn in
  Alcotest.(check bool) "chain terminates" true (Lsn.is_nil r1.Logrec.prev_lsn);
  Alcotest.(check (list int)) "values in order" [ 10; 20; 30 ]
    (List.map (fun r -> let _, _, v = mock_decode r.Logrec.body in v) [ r1; r2; r3 ])

let test_commit_forces_log () =
  let wal, _, mgr, m = setup () in
  let txn = Txnmgr.begin_txn mgr in
  set mgr m txn 1 10;
  Alcotest.(check bool) "volatile before commit" true (Lsn.is_nil (Logmgr.flushed_lsn wal));
  Txnmgr.commit mgr txn;
  Alcotest.(check bool) "stable after commit" true (not (Lsn.is_nil (Logmgr.flushed_lsn wal)))

let test_total_rollback () =
  let _, _, mgr, m = setup () in
  let txn = Txnmgr.begin_txn mgr in
  set mgr m txn 1 10;
  set mgr m txn 2 20;
  set mgr m txn 1 15;
  Txnmgr.rollback mgr txn;
  Alcotest.(check int) "reg1 restored" 0 (get m 1);
  Alcotest.(check int) "reg2 restored" 0 (get m 2);
  Alcotest.(check bool) "txn gone" true (Txnmgr.find mgr txn.Txnmgr.txn_id = None)

let test_partial_rollback () =
  let _, _, mgr, m = setup () in
  let txn = Txnmgr.begin_txn mgr in
  set mgr m txn 1 10;
  let sp = Txnmgr.savepoint txn in
  set mgr m txn 1 99;
  set mgr m txn 2 50;
  Txnmgr.rollback_to mgr txn sp;
  Alcotest.(check int) "back to savepoint" 10 (get m 1);
  Alcotest.(check int) "later change undone" 0 (get m 2);
  (* keep working and commit *)
  set mgr m txn 3 7;
  Txnmgr.commit mgr txn;
  Alcotest.(check int) "post-savepoint work kept" 7 (get m 3)

let test_rollback_after_partial () =
  (* ARIES: total rollback after a partial one must not undo twice (CLRs
     are jumped over) *)
  let _, _, mgr, m = setup () in
  let txn = Txnmgr.begin_txn mgr in
  set mgr m txn 1 10;
  let sp = Txnmgr.savepoint txn in
  set mgr m txn 1 20;
  Txnmgr.rollback_to mgr txn sp;
  Alcotest.(check int) "partial undone" 10 (get m 1);
  set mgr m txn 1 30;
  Txnmgr.rollback mgr txn;
  Alcotest.(check int) "fully undone exactly once" 0 (get m 1)

let test_clr_count_bounded () =
  (* undoing N updates writes exactly N CLRs: bounded logging *)
  let wal, _, mgr, m = setup () in
  let txn = Txnmgr.begin_txn mgr in
  for i = 1 to 10 do
    set mgr m txn i i
  done;
  let before = Logmgr.record_count wal in
  Txnmgr.rollback mgr txn;
  let written = Logmgr.record_count wal - before in
  (* 10 CLRs + Rollback + End *)
  Alcotest.(check int) "10 CLRs + rollback + end" 12 written

let test_nta_skipped_on_rollback () =
  let _, _, mgr, m = setup () in
  let txn = Txnmgr.begin_txn mgr in
  set mgr m txn 1 10;
  let nta = Txnmgr.nta_begin txn in
  set mgr m txn 2 77;
  (* "structural" change *)
  ignore (Txnmgr.nta_end mgr txn nta);
  set mgr m txn 3 30;
  Txnmgr.rollback mgr txn;
  Alcotest.(check int) "outside-NTA undone" 0 (get m 1);
  Alcotest.(check int) "outside-NTA undone (after)" 0 (get m 3);
  Alcotest.(check int) "NTA change survives rollback" 77 (get m 2)

let test_incomplete_nta_undone () =
  let _, _, mgr, m = setup () in
  let txn = Txnmgr.begin_txn mgr in
  set mgr m txn 1 10;
  let _nta = Txnmgr.nta_begin txn in
  set mgr m txn 2 77;
  (* no nta_end: the bracket is incomplete *)
  Txnmgr.rollback mgr txn;
  Alcotest.(check int) "incomplete NTA undone" 0 (get m 2);
  Alcotest.(check int) "everything undone" 0 (get m 1)

let test_deadlock_rolls_back_and_raises () =
  let _, locks, mgr, m = setup () in
  let aborted = ref false and survivor = ref false in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn (fun () ->
                let t1 = Txnmgr.begin_txn mgr in
                Txnmgr.lock mgr t1 (L.Table 1) L.X L.Commit;
                Sched.yield ();
                Txnmgr.lock mgr t1 (L.Table 2) L.X L.Commit;
                survivor := true;
                Txnmgr.commit mgr t1));
         ignore
           (Sched.spawn (fun () ->
                let t2 = Txnmgr.begin_txn mgr in
                set mgr m t2 9 99;
                Txnmgr.lock mgr t2 (L.Table 2) L.X L.Commit;
                Sched.yield ();
                match Txnmgr.lock mgr t2 (L.Table 1) L.X L.Commit with
                | () -> ()
                | exception Txnmgr.Aborted _ -> aborted := true))));
  Alcotest.(check bool) "victim aborted" true !aborted;
  Alcotest.(check bool) "victim's update rolled back" true (get m 9 = 0);
  Alcotest.(check bool) "survivor completed" true !survivor;
  ignore locks

let test_commit_releases_locks () =
  Sched.run_value (fun () ->
      let _, locks, mgr, _ = setup () in
      let txn = Txnmgr.begin_txn mgr in
      Txnmgr.lock mgr txn (L.Table 5) L.X L.Commit;
      Alcotest.(check int) "held" 1 (L.held_count locks ~txn:txn.Txnmgr.txn_id);
      Txnmgr.commit mgr txn;
      Alcotest.(check int) "released" 0 (L.held_count locks ~txn:txn.Txnmgr.txn_id))

let test_end_record_written () =
  let wal, _, mgr, m = setup () in
  let txn = Txnmgr.begin_txn mgr in
  set mgr m txn 1 1;
  Txnmgr.commit mgr txn;
  let kinds = ref [] in
  Logmgr.iter_from wal Lsn.nil (fun r -> kinds := r.Logrec.kind :: !kinds);
  Alcotest.(check bool) "commit then end" true
    (match !kinds with
    | Logrec.End_txn :: Logrec.Commit :: _ -> true
    | _ -> false)

let test_prepare_body_roundtrip () =
  let locks = [ (L.Rid { Ids.rid_page = 3; rid_slot = 9 }, L.X); (L.Table 4, L.IX) ] in
  let b = Lockcodec.encode_list locks in
  Alcotest.(check bool) "lock list roundtrip" true (Lockcodec.decode_list b = locks)

let test_checkpoint_body_roundtrip () =
  let ck ct_id ct_state ct_firsts ct_lasts ct_undo_nxts =
    { Checkpoint.ct_id; ct_state; ct_firsts; ct_lasts; ct_undo_nxts }
  in
  let body =
    {
      Checkpoint.ck_scan = [| 300; 250 |];
      ck_txns =
        [
          ck 3 Txnmgr.Active [| 10; 15 |] [| 100; 90 |] [| 90; 15 |];
          ck 5 Txnmgr.Prepared [| 20; 0 |] [| 200; 0 |] [| 180; 0 |];
        ];
      ck_dpt = [ (7, 50); (9, 120) ];
      ck_chains = [ (7, [ 50; 61; 77 ]); (9, [ 120 ]) ];
      ck_next_txn = 6;
    }
  in
  let b = Checkpoint.encode_body ~begin_lsn:300 body in
  let body' = Checkpoint.decode_body ~begin_lsn:300 b in
  Alcotest.(check bool) "checkpoint body roundtrip" true (body = body')

let test_fiber_binding () =
  let _, _, mgr, _ = setup () in
  Sched.run_value (fun () ->
      let txn = Txnmgr.begin_txn mgr in
      Alcotest.(check bool) "bound to fiber" true
        (match Txnmgr.current mgr with Some t -> t == txn | None -> false);
      Txnmgr.commit mgr txn;
      Alcotest.(check bool) "unbound after commit" true (Txnmgr.current mgr = None))

let () =
  Alcotest.run "txn"
    [
      ( "logging",
        [
          Alcotest.test_case "prev-lsn chain" `Quick test_prev_lsn_chain;
          Alcotest.test_case "commit forces log" `Quick test_commit_forces_log;
          Alcotest.test_case "end record" `Quick test_end_record_written;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "total" `Quick test_total_rollback;
          Alcotest.test_case "partial (savepoint)" `Quick test_partial_rollback;
          Alcotest.test_case "total after partial" `Quick test_rollback_after_partial;
          Alcotest.test_case "bounded CLR logging" `Quick test_clr_count_bounded;
        ] );
      ( "nta",
        [
          Alcotest.test_case "completed NTA survives rollback" `Quick test_nta_skipped_on_rollback;
          Alcotest.test_case "incomplete NTA undone" `Quick test_incomplete_nta_undone;
        ] );
      ( "locks",
        [
          Alcotest.test_case "deadlock rolls back and raises" `Quick
            test_deadlock_rolls_back_and_raises;
          Alcotest.test_case "commit releases locks" `Quick test_commit_releases_locks;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "prepare lock list" `Quick test_prepare_body_roundtrip;
          Alcotest.test_case "checkpoint body" `Quick test_checkpoint_body_roundtrip;
        ] );
      ("fibers", [ Alcotest.test_case "txn-fiber binding" `Quick test_fiber_binding ]);
    ]
