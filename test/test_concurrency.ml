(* Concurrency: repeatable read / phantom protection through next-key
   locking, the unique-index uncommitted-delete guarantee, serializability
   of concurrent transactions (conservation invariant), deadlock liveness,
   rolling-back transactions never deadlocking (Q4), and readers running
   concurrently with SMOs. *)

open Aries_util
module Lockmgr = Aries_lock.Lockmgr
module Key = Aries_page.Key
module Btree = Aries_btree.Btree
module Protocol = Aries_btree.Protocol
module Txnmgr = Aries_txn.Txnmgr
module Sched = Aries_sched.Sched
module Db = Aries_db.Db
module Table = Aries_db.Table

let rid i = { Ids.rid_page = 900 + (i / 100); rid_slot = i mod 100 }

let v i = Printf.sprintf "key%05d" i

let fresh ?(page_size = 384) ?(unique = true) () =
  let db = Db.create ~page_size () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Btree.create db.Db.benv txn ~name:"t" ~unique))
  in
  (db, tree)

let seed db tree lo hi =
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = lo to hi do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done))

(* ------------------------------------------------------------------ *)
(* Phantom protection: a not-found fetch locks the next key; an insert of
   the fetched value by another transaction must wait until the reader
   commits (§2.2). *)

let test_phantom_blocked () =
  let db, tree = fresh ~page_size:384 () in
  seed db tree 0 9;
  let order = ref [] in
  let r =
    Db.run db (fun () ->
        ignore
          (Sched.spawn ~name:"reader" (fun () ->
               let t1 = Txnmgr.begin_txn db.Db.mgr in
               (* not-found: locks the next key (key00005's successor... the
                  value 4x sits between 4 and 5) *)
               Alcotest.(check bool) "not found" true (Btree.fetch tree t1 "key00004x" = None);
               order := "read" :: !order;
               for _ = 1 to 8 do
                 Sched.yield ()
               done;
               (* re-fetch must still be not-found (repeatable read) *)
               Alcotest.(check bool) "repeatable" true (Btree.fetch tree t1 "key00004x" = None);
               order := "reread" :: !order;
               Txnmgr.commit db.Db.mgr t1));
        ignore
          (Sched.spawn ~name:"writer" (fun () ->
               Sched.yield ();
               Db.with_txn db (fun t2 ->
                   Btree.insert tree t2 ~value:"key00004x" ~rid:(rid 444));
               order := "insert" :: !order)))
  in
  Alcotest.(check bool) "completed" true (r.Sched.outcome = Sched.Completed);
  Alcotest.(check (list string)) "insert waited for the reader's commit"
    [ "read"; "reread"; "insert" ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Unique index: an uncommitted delete of a value must block another
   transaction's insert of the same value (§2.4, problem 10). *)

let test_unique_uncommitted_delete_blocks_insert () =
  let db, tree = fresh () in
  seed db tree 0 9;
  let outcome = ref `None in
  ignore
    (Db.run db (fun () ->
         ignore
           (Sched.spawn ~name:"deleter" (fun () ->
                let t1 = Txnmgr.begin_txn db.Db.mgr in
                Btree.delete tree t1 ~value:(v 5) ~rid:(rid 5);
                for _ = 1 to 8 do
                  Sched.yield ()
                done;
                (* the deleter rolls back: the value exists again *)
                Txnmgr.rollback db.Db.mgr t1));
         ignore
           (Sched.spawn ~name:"inserter" (fun () ->
                Sched.yield ();
                let t2 = Txnmgr.begin_txn db.Db.mgr in
                (match Btree.insert tree t2 ~value:(v 5) ~rid:(rid 555) with
                | () -> outcome := `Inserted
                | exception Btree.Unique_violation _ -> outcome := `Violation);
                Txnmgr.commit db.Db.mgr t2))));
  (* T2 had to wait for T1; T1 rolled back, so the value is present and the
     insert reports a unique violation — never a double insert *)
  Alcotest.(check bool) "violation after rollback" true (!outcome = `Violation);
  Btree.check_invariants tree;
  Alcotest.(check int) "exactly one key 5" 1
    (List.length (List.filter (fun (value, _) -> value = v 5) (Btree.to_list tree)))

let test_unique_committed_delete_allows_insert () =
  let db, tree = fresh () in
  seed db tree 0 9;
  let outcome = ref `None in
  ignore
    (Db.run db (fun () ->
         ignore
           (Sched.spawn ~name:"deleter" (fun () ->
                let t1 = Txnmgr.begin_txn db.Db.mgr in
                Btree.delete tree t1 ~value:(v 5) ~rid:(rid 5);
                for _ = 1 to 8 do
                  Sched.yield ()
                done;
                Txnmgr.commit db.Db.mgr t1));
         ignore
           (Sched.spawn ~name:"inserter" (fun () ->
                Sched.yield ();
                let t2 = Txnmgr.begin_txn db.Db.mgr in
                (match Btree.insert tree t2 ~value:(v 5) ~rid:(rid 555) with
                | () -> outcome := `Inserted
                | exception Btree.Unique_violation _ -> outcome := `Violation);
                Txnmgr.commit db.Db.mgr t2))));
  Alcotest.(check bool) "insert succeeds after committed delete" true (!outcome = `Inserted);
  Btree.check_invariants tree

(* ------------------------------------------------------------------ *)
(* Serializability: concurrent transfers preserve the conservation
   invariant under any seeded schedule. Accounts live in a table; data-only
   locking covers both the records and the index keys. *)

let test_transfers_conserve () =
  List.iter
    (fun seed_n ->
      let db = Db.create ~page_size:512 () in
      let specs = [ { Table.sp_name = "pk"; sp_unique = true; sp_key = (fun r -> r.(0)) } ] in
      let tbl =
        Db.run_exn db (fun () -> Db.with_txn db (fun txn -> Table.create db txn ~id:1 specs))
      in
      let n_accounts = 8 in
      let initial = 100 in
      Db.run_exn db (fun () ->
          Db.with_txn db (fun txn ->
              for i = 0 to n_accounts - 1 do
                ignore
                  (Table.insert tbl txn [| Printf.sprintf "acct%d" i; string_of_int initial |])
              done));
      let rng = Rng.create seed_n in
      let aborts = ref 0 in
      let transfer txn a b amount =
        let name i = Printf.sprintf "acct%d" i in
        match (Table.fetch tbl txn ~index:"pk" (name a), Table.fetch tbl txn ~index:"pk" (name b))
        with
        | Some (rid_a, row_a), Some (rid_b, row_b) ->
            let bal_a = int_of_string row_a.(1) and bal_b = int_of_string row_b.(1) in
            Table.update tbl txn rid_a [| name a; string_of_int (bal_a - amount) |];
            Table.update tbl txn rid_b [| name b; string_of_int (bal_b + amount) |]
        | _ -> Alcotest.fail "account missing"
      in
      let r =
        Db.run db ~policy:(Sched.Random seed_n) ~yield_probability:0.2 (fun () ->
            for _f = 1 to 4 do
              ignore
                (Sched.spawn (fun () ->
                     for _ = 1 to 10 do
                       let a = Rng.int rng n_accounts in
                       let b = (a + 1 + Rng.int rng (n_accounts - 1)) mod n_accounts in
                       let amount = Rng.int rng 20 in
                       match Db.with_txn db (fun txn -> transfer txn a b amount) with
                       | () -> ()
                       | exception Txnmgr.Aborted _ -> incr aborts
                     done))
            done)
      in
      Alcotest.(check bool) "completed (no stall)" true (r.Sched.outcome = Sched.Completed);
      Alcotest.(check (list string)) "no fiber exceptions" []
        (List.map (fun (_, _, e) -> Printexc.to_string e) r.Sched.exns);
      (* conservation *)
      let rows =
        Db.run_exn db (fun () ->
            Db.with_txn db (fun txn -> Table.scan tbl txn ~index:"pk" "" ()))
      in
      let total = List.fold_left (fun acc (_, row) -> acc + int_of_string row.(1)) 0 rows in
      Alcotest.(check int)
        (Printf.sprintf "conservation (seed %d, %d deadlock aborts)" seed_n !aborts)
        (n_accounts * initial) total)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Q4: rolling-back transactions never deadlock. A rolling-back txn makes
   no lock requests (asserted inside Txnmgr.lock) and is marked no-victim;
   an adversarial mix of deadlocks + rollbacks + SMOs must terminate. *)

let test_q4_rollback_never_deadlocks () =
  let db, tree = fresh ~page_size:384 () in
  seed db tree 0 99;
  let rng = Rng.create 99 in
  let deadlocks = ref 0 and completed = ref 0 and rolled_back = ref 0 in
  let r =
    Db.run db ~policy:(Sched.Random 99) ~yield_probability:0.2 (fun () ->
        for _f = 1 to 6 do
          ignore
            (Sched.spawn (fun () ->
                 for _ = 1 to 12 do
                   let t = Txnmgr.begin_txn db.Db.mgr in
                   match
                     for _ = 1 to 1 + Rng.int rng 4 do
                       let i = Rng.int rng 400 in
                       let value = v i in
                       (* take the record lock as the table layer would: this
                          creates real lock conflicts *)
                       Txnmgr.lock db.Db.mgr t (Lockmgr.Rid (rid i)) Lockmgr.X Lockmgr.Commit;
                       (try Btree.insert tree t ~value ~rid:(rid i)
                        with Btree.Unique_violation _ -> (
                          try Btree.delete tree t ~value ~rid:(rid i)
                          with Btree.Key_not_found _ -> ()))
                     done
                   with
                   | () ->
                       if Rng.int rng 3 = 0 then begin
                         Txnmgr.rollback db.Db.mgr t;
                         incr rolled_back
                       end
                       else begin
                         Txnmgr.commit db.Db.mgr t;
                         incr completed
                       end
                   | exception Txnmgr.Aborted _ -> incr deadlocks
                 done))
        done)
  in
  (* liveness: every fiber ran to completion; no stalls, no assertion about
     rolling-back txns fired inside the lock manager *)
  Alcotest.(check bool) "no stall" true (r.Sched.outcome = Sched.Completed);
  Alcotest.(check (list string)) "no fiber exceptions" []
    (List.map (fun (_, _, e) -> Printexc.to_string e) r.Sched.exns);
  Alcotest.(check int) "all transactions accounted" 72 (!completed + !rolled_back + !deadlocks);
  Btree.check_invariants tree

(* ------------------------------------------------------------------ *)
(* Readers concurrent with SMOs: scans while a writer splits and deletes
   pages; every scan result must be sorted and complete w.r.t. committed
   state boundaries. *)

let test_scans_during_smos () =
  let db, tree = fresh ~page_size:384 ~unique:false () in
  seed db tree 0 49;
  let writer_done = ref false in
  let scan_count = ref 0 in
  let r =
    Db.run db ~policy:(Sched.Random 7) ~yield_probability:0.3 (fun () ->
        ignore
          (Sched.spawn ~name:"writer" (fun () ->
               (* grow then shrink: plenty of splits and page deletes *)
               Db.with_txn db (fun txn ->
                   for i = 50 to 250 do
                     Btree.insert tree txn ~value:(v i) ~rid:(rid i)
                   done);
               Db.with_txn db (fun txn ->
                   for i = 50 to 250 do
                     Btree.delete tree txn ~value:(v i) ~rid:(rid i)
                   done);
               writer_done := true));
        for _r = 1 to 3 do
          ignore
            (Sched.spawn (fun () ->
                 while not !writer_done do
                   Db.with_txn db (fun txn ->
                       let c = Btree.open_scan tree txn ~comparison:`Ge "" in
                       let rec go prev n =
                         match Btree.fetch_next tree txn c () with
                         | Some k ->
                             (match prev with
                             | Some p ->
                                 if String.compare p k.Key.value > 0 then
                                   Alcotest.failf "scan out of order: %s then %s" p k.Key.value
                             | None -> ());
                             go (Some k.Key.value) (n + 1)
                         | None -> n
                       in
                       let n = go None 0 in
                       Alcotest.(check bool) "at least the base keys" true (n >= 50));
                   incr scan_count;
                   Sched.yield ()
                 done))
        done)
  in
  Alcotest.(check bool) "no stall" true (r.Sched.outcome = Sched.Completed);
  Alcotest.(check (list string)) "no fiber exceptions" []
    (List.map (fun (_, _, e) -> Printexc.to_string e) r.Sched.exns);
  Alcotest.(check bool) "scans actually ran during writes" true (!scan_count > 0);
  Btree.check_invariants tree

(* ------------------------------------------------------------------ *)
(* Randomized multi-fiber stress on disjoint key ranges with commits and
   rollbacks; the final tree must equal the oracle. *)

let stress_prop seed_n =
  let db, tree = fresh ~page_size:320 ~unique:false () in
  let oracle : (string, Ids.rid) Hashtbl.t = Hashtbl.create 128 in
  let fibers = 4 in
  let r =
    Db.run db ~policy:(Sched.Random seed_n) ~yield_probability:0.25 (fun () ->
        for f = 0 to fibers - 1 do
          let rng = Rng.create ((seed_n * 17) + f) in
          ignore
            (Sched.spawn (fun () ->
                 for _ = 1 to 20 do
                   let t = Txnmgr.begin_txn db.Db.mgr in
                   let local = ref [] in
                   match
                     for _ = 1 to 1 + Rng.int rng 4 do
                       (* keys private to this fiber: the oracle stays exact
                          (next-key LOCKS may still cross ranges, so
                          deadlock aborts are possible and count as
                          rollbacks) *)
                       let i = (f * 1000) + Rng.int rng 80 in
                       let value = v i in
                       let mine = List.mem_assoc value !local in
                       let exists = Hashtbl.mem oracle value || mine in
                       if not exists then begin
                         Btree.insert tree t ~value ~rid:(rid i);
                         local := (value, `Ins (rid i)) :: !local
                       end
                       else if Hashtbl.mem oracle value && not mine then begin
                         Btree.delete tree t ~value ~rid:(Hashtbl.find oracle value);
                         local := (value, `Del) :: !local
                       end
                     done
                   with
                   | exception Txnmgr.Aborted _ -> () (* deadlock victim: rolled back *)
                   | () ->
                       if Rng.bool rng then begin
                         Txnmgr.commit db.Db.mgr t;
                         List.iter
                           (fun (value, op) ->
                             match op with
                             | `Ins r -> Hashtbl.replace oracle value r
                             | `Del -> Hashtbl.remove oracle value)
                           (List.rev !local)
                       end
                       else Txnmgr.rollback db.Db.mgr t
                 done))
        done)
  in
  r.Sched.outcome = Sched.Completed
  && r.Sched.exns = []
  &&
  (Btree.check_invariants tree;
   let actual = List.map fst (Btree.to_list tree) in
   let expected = Hashtbl.fold (fun k _ acc -> k :: acc) oracle [] |> List.sort compare in
   actual = expected)

let qcheck_stress =
  QCheck.Test.make ~name:"random schedules: tree equals oracle after commits+rollbacks" ~count:15
    QCheck.small_int stress_prop

(* ------------------------------------------------------------------ *)
(* Baseline protocols behave as documented: under KVL two transactions may
   insert duplicates of the same value concurrently (IX-IX on the value is
   compatible); under System R-style locking the second insert waits for
   the first to commit (X commit on the value). *)

let dup_insert_overlap locking =
  let config = { Btree.default_config with Btree.locking } in
  let db = Db.create ~page_size:512 ~config () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Btree.create ~config db.Db.benv txn ~name:"t" ~unique:false))
  in
  seed db tree 0 9;
  let t1_committed = ref false and t2_done_before_t1_commit = ref false in
  ignore
    (Db.run db (fun () ->
         ignore
           (Sched.spawn ~name:"T1" (fun () ->
                let t1 = Txnmgr.begin_txn db.Db.mgr in
                Btree.insert tree t1 ~value:(v 5) ~rid:(rid 501);
                for _ = 1 to 8 do
                  Sched.yield ()
                done;
                Txnmgr.commit db.Db.mgr t1;
                t1_committed := true));
         ignore
           (Sched.spawn ~name:"T2" (fun () ->
                Sched.yield ();
                Db.with_txn db (fun t2 -> Btree.insert tree t2 ~value:(v 5) ~rid:(rid 502));
                t2_done_before_t1_commit := not !t1_committed))));
  Btree.check_invariants tree;
  !t2_done_before_t1_commit

let test_kvl_duplicate_inserts_concurrent () =
  Alcotest.(check bool) "KVL: IX-IX lets duplicate inserters overlap" true
    (dup_insert_overlap Protocol.Kvl);
  Alcotest.(check bool) "System R: X commit serializes duplicate inserters" false
    (dup_insert_overlap Protocol.System_r);
  Alcotest.(check bool) "ARIES/IM: key locks never collide on duplicates" true
    (dup_insert_overlap Protocol.Data_only)

(* ------------------------------------------------------------------ *)
(* Conflict-serializability: record every data access of every committed
   transaction in wall order; the precedence graph (Ti -> Tj when Ti's
   access conflicts with a later access by Tj) must be acyclic. Strict 2PL
   with next-key locking must pass this for any seeded schedule. *)

type access = { ac_txn : int; ac_item : string; ac_write : bool }

let conflict_serializable (log : access list) (committed : int list) =
  let log = List.filter (fun a -> List.mem a.ac_txn committed) log in
  (* build edges *)
  let edges = Hashtbl.create 64 in
  let rec scan = function
    | [] -> ()
    | a :: rest ->
        List.iter
          (fun b ->
            if
              a.ac_txn <> b.ac_txn
              && String.equal a.ac_item b.ac_item
              && (a.ac_write || b.ac_write)
            then Hashtbl.replace edges (a.ac_txn, b.ac_txn) ())
          rest;
        scan rest
  in
  scan log;
  (* cycle check over the committed txn ids *)
  let succs x =
    Hashtbl.fold (fun (a, b) () acc -> if a = x then b :: acc else acc) edges []
  in
  let color = Hashtbl.create 16 in
  let rec dfs x =
    match Hashtbl.find_opt color x with
    | Some `Done -> true
    | Some `Active -> false (* cycle *)
    | None ->
        Hashtbl.replace color x `Active;
        let ok = List.for_all dfs (succs x) in
        Hashtbl.replace color x `Done;
        ok
  in
  List.for_all dfs committed

let serializability_prop seed_n =
  let db = Db.create ~page_size:512 () in
  let specs = [ { Table.sp_name = "pk"; sp_unique = true; sp_key = (fun r -> r.(0)) } ] in
  let tbl =
    Db.run_exn db (fun () -> Db.with_txn db (fun txn -> Table.create db txn ~id:1 specs))
  in
  let items = 10 in
  let item i = Printf.sprintf "item%02d" i in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to items - 1 do
            ignore (Table.insert tbl txn [| item i; "0" |])
          done));
  let accesses = ref [] and committed = ref [] in
  let record a = accesses := a :: !accesses in
  ignore
    (Db.run db ~policy:(Sched.Random seed_n) ~yield_probability:0.25 (fun () ->
         for f = 0 to 3 do
           let rng = Rng.create ((seed_n * 13) + f) in
           ignore
             (Sched.spawn (fun () ->
                  for _ = 1 to 8 do
                    let t = Txnmgr.begin_txn db.Db.mgr in
                    match
                      for _ = 1 to 1 + Rng.int rng 3 do
                        let i = Rng.int rng items in
                        match Table.fetch tbl t ~index:"pk" (item i) with
                        | Some (rid, row) ->
                            record { ac_txn = t.Txnmgr.txn_id; ac_item = item i; ac_write = false };
                            if Rng.bool rng then begin
                              let bal = int_of_string row.(1) in
                              Table.update tbl t rid [| item i; string_of_int (bal + 1) |];
                              record
                                { ac_txn = t.Txnmgr.txn_id; ac_item = item i; ac_write = true }
                            end
                        | None -> Alcotest.fail "item missing"
                      done
                    with
                    | () ->
                        Txnmgr.commit db.Db.mgr t;
                        committed := t.Txnmgr.txn_id :: !committed
                    | exception Txnmgr.Aborted _ -> ()
                  done))
         done));
  Table.check_consistency tbl;
  conflict_serializable (List.rev !accesses) !committed

let qcheck_serializability =
  QCheck.Test.make ~name:"committed transactions are conflict-serializable" ~count:20
    QCheck.small_int serializability_prop

(* ------------------------------------------------------------------ *)
(* Cursor stability (degree 2, §1.2): current-key locks live only while
   the cursor is positioned; RR's guarantees are deliberately weakened to
   non-repeatable (but never dirty) reads. *)

let cs_rr_schedule isolation =
  let db, tree = fresh () in
  seed db tree 0 9;
  let first = ref None and second = ref None in
  ignore
    (Db.run db (fun () ->
         ignore
           (Sched.spawn ~name:"reader" (fun () ->
                let t1 = Txnmgr.begin_txn db.Db.mgr in
                first := Btree.fetch tree t1 ~isolation (v 5);
                for _ = 1 to 6 do
                  Sched.yield ()
                done;
                second := Btree.fetch tree t1 ~isolation (v 5);
                Txnmgr.commit db.Db.mgr t1));
         ignore
           (Sched.spawn ~name:"deleter" (fun () ->
                Sched.yield ();
                Db.with_txn db (fun t2 ->
                    (* as the table layer would: the record lock comes first
                       and is the index key lock under data-only locking *)
                    Txnmgr.lock db.Db.mgr t2 (Lockmgr.Rid (rid 5)) Lockmgr.X Lockmgr.Commit;
                    Btree.delete tree t2 ~value:(v 5) ~rid:(rid 5))))));
  (!first <> None, !second <> None)

let test_cs_non_repeatable_read () =
  (* the SAME schedule differs only in isolation level *)
  let f, s = cs_rr_schedule `Rr in
  Alcotest.(check (pair bool bool)) "RR: both reads see the key (deleter blocked)" (true, true)
    (f, s);
  let f, s = cs_rr_schedule `Cs in
  Alcotest.(check (pair bool bool)) "CS: the re-read is non-repeatable" (true, false) (f, s)

let test_cs_no_dirty_read () =
  let db, tree = fresh () in
  seed db tree 0 9;
  let seen = ref None in
  ignore
    (Db.run db (fun () ->
         ignore
           (Sched.spawn ~name:"deleter" (fun () ->
                let t1 = Txnmgr.begin_txn db.Db.mgr in
                Btree.delete tree t1 ~value:(v 5) ~rid:(rid 5);
                for _ = 1 to 8 do
                  Sched.yield ()
                done;
                (* rollback: the delete never happened *)
                Txnmgr.rollback db.Db.mgr t1));
         ignore
           (Sched.spawn ~name:"cs-reader" (fun () ->
                Sched.yield ();
                Db.with_txn db (fun t2 -> seen := Btree.fetch tree t2 ~isolation:`Cs (v 5))))));
  (* the CS reader had to wait for the uncommitted delete to resolve, and
     then saw the restored (committed) key — never the dirty absence *)
  Alcotest.(check bool) "CS sees only committed state" true
    (match !seen with Some k -> String.equal k.Key.value (v 5) | None -> false)

let test_cs_scan_holds_few_locks () =
  let db, tree = fresh () in
  seed db tree 0 99;
  let peak_rr = ref 0 and peak_cs = ref 0 in
  let run_scan isolation peak =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn ->
            let c = Btree.open_scan tree txn ~isolation "" in
            let rec go () =
              match Btree.fetch_next tree txn c () with
              | Some _ ->
                  let held =
                    Aries_lock.Lockmgr.held_count db.Db.locks ~txn:txn.Txnmgr.txn_id
                  in
                  if held > !peak then peak := held;
                  go ()
              | None -> ()
            in
            go ()))
  in
  run_scan `Rr peak_rr;
  run_scan `Cs peak_cs;
  Alcotest.(check bool) "RR scan accumulates commit-duration locks" true (!peak_rr >= 100);
  Alcotest.(check bool) "CS scan holds O(1) locks" true (!peak_cs <= 2)

(* ------------------------------------------------------------------ *)
(* The §5 extension: concurrent SMOs via the tree lock. *)

let smos_cfg = { Btree.default_config with Btree.concurrent_smos = true }

let fresh_smos ?(page_size = 384) ?(unique = true) () =
  let db = Db.create ~page_size ~config:smos_cfg () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn ->
            Btree.create ~config:smos_cfg db.Db.benv txn ~name:"t" ~unique))
  in
  (db, tree)

(* two leaf-level splits of different leaves must be in flight at the same
   time under IX; under the default latch they serialize *)
let smo_overlap ~concurrent =
  (* roomy pages so the leaf splits stay leaf-level (parents have space and
     the IX path is taken in concurrent mode) *)
  let db, tree =
    if concurrent then fresh_smos ~page_size:1024 () else fresh ~page_size:1024 ()
  in
  seed db tree 0 199;
  (* two far-apart leaves, each filled to the brink by committed work *)
  let fill base =
    let free_of pid =
      Aries_buffer.Bufpool.with_fix db.Db.pool pid (fun p -> Aries_page.Page.free_space p)
    in
    let j = ref 0 in
    while free_of (Btree.locate_leaf tree base) >= String.length base + 13 do
      Db.run_exn db (fun () ->
          Db.with_txn db (fun txn ->
              Btree.insert tree txn
                ~value:(Printf.sprintf "%sf%02d" base !j)
                ~rid:(rid (300 + !j))));
      incr j
    done
  in
  fill "key00020";
  fill "key00150";
  let in_pause = ref 0 and max_in_pause = ref 0 in
  Btree.set_smo_pause db.Db.benv
    (Some
       (fun () ->
         incr in_pause;
         if !in_pause > !max_in_pause then max_in_pause := !in_pause;
         for _ = 1 to 16 do
           Sched.yield ()
         done;
         decr in_pause));
  let r =
    Db.run db (fun () ->
        ignore
          (Sched.spawn (fun () ->
               Db.with_txn db (fun txn ->
                   Btree.insert tree txn ~value:"key00020f99" ~rid:(rid 801))));
        ignore
          (Sched.spawn (fun () ->
               Db.with_txn db (fun txn ->
                   Btree.insert tree txn ~value:"key00150f99" ~rid:(rid 802)))))
  in
  Btree.set_smo_pause db.Db.benv None;
  Alcotest.(check bool) "completed" true (r.Sched.outcome = Sched.Completed);
  Alcotest.(check (list string)) "no exceptions" []
    (List.map (fun (_, _, e) -> Printexc.to_string e) r.Sched.exns);
  Btree.check_invariants tree;
  !max_in_pause

let test_concurrent_smos_overlap () =
  Alcotest.(check int) "serialized: SMOs never overlap" 1 (smo_overlap ~concurrent:false);
  Alcotest.(check int) "concurrent: two SMOs in flight at once" 2 (smo_overlap ~concurrent:true)

let test_concurrent_smos_stress () =
  (* heavy split/page-delete traffic under the tree lock; everything must
     terminate, the oracle must match, invariants must hold *)
  List.iter
    (fun seed_n ->
      let db, tree = fresh_smos ~page_size:320 ~unique:false () in
      let oracle : (string, unit) Hashtbl.t = Hashtbl.create 128 in
      let r =
        Db.run db ~policy:(Sched.Random seed_n) ~yield_probability:0.3 (fun () ->
            for f = 0 to 3 do
              let rng = Rng.create ((seed_n * 31) + f) in
              ignore
                (Sched.spawn (fun () ->
                     for _ = 1 to 15 do
                       let t = Txnmgr.begin_txn db.Db.mgr in
                       let local = ref [] in
                       match
                         for _ = 1 to 1 + Rng.int rng 5 do
                           let i = (f * 1000) + Rng.int rng 120 in
                           let value = v i in
                           let mine = List.mem_assoc value !local in
                           if (not mine) && not (Hashtbl.mem oracle value) then begin
                             Btree.insert tree t ~value ~rid:(rid i);
                             local := (value, `Ins) :: !local
                           end
                           else if (not mine) && Hashtbl.mem oracle value then begin
                             Btree.delete tree t ~value ~rid:(rid i);
                             local := (value, `Del) :: !local
                           end
                         done
                       with
                       | exception Txnmgr.Aborted _ -> ()
                       | () ->
                           if Rng.int rng 4 = 0 then Txnmgr.rollback db.Db.mgr t
                           else begin
                             Txnmgr.commit db.Db.mgr t;
                             List.iter
                               (fun (value, op) ->
                                 match op with
                                 | `Ins -> Hashtbl.replace oracle value ()
                                 | `Del -> Hashtbl.remove oracle value)
                               (List.rev !local)
                           end
                     done))
            done)
      in
      Alcotest.(check bool)
        (Printf.sprintf "completed (seed %d)" seed_n)
        true
        (r.Sched.outcome = Sched.Completed);
      Alcotest.(check (list string)) "no fiber exceptions" []
        (List.map (fun (_, _, e) -> Printexc.to_string e) r.Sched.exns);
      Btree.check_invariants tree;
      let actual = List.map fst (Btree.to_list tree) in
      let expected = Hashtbl.fold (fun k () acc -> k :: acc) oracle [] |> List.sort compare in
      Alcotest.(check bool)
        (Printf.sprintf "oracle matches (seed %d)" seed_n)
        true (actual = expected))
    [ 3; 14; 15 ]

let test_concurrent_smos_crash_recovery () =
  (* crash in the middle of concurrent-SMO traffic; restart must recover
     exactly the committed state *)
  let db, tree = fresh_smos ~page_size:320 () in
  seed db tree 0 59;
  let committed : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to 59 do
    Hashtbl.replace committed (v i) ()
  done;
  ignore
    (Db.run db ~policy:(Sched.Random 21) ~yield_probability:0.3 ~max_steps:1500 (fun () ->
         for f = 0 to 2 do
           let rng = Rng.create (77 + f) in
           ignore
             (Sched.spawn (fun () ->
                  let n = ref 0 in
                  while true do
                    incr n;
                    let t = Txnmgr.begin_txn db.Db.mgr in
                    let i = 100 + (f * 1000) + Rng.int rng 200 in
                    (match Btree.insert tree t ~value:(v i) ~rid:(rid i) with
                    | () ->
                        Txnmgr.commit db.Db.mgr t;
                        Hashtbl.replace committed (v i) ()
                    | exception Btree.Unique_violation _ -> Txnmgr.rollback db.Db.mgr t
                    | exception Txnmgr.Aborted _ -> ());
                    Sched.yield ()
                  done))
         done));
  let db' = Db.crash db in
  ignore (Db.run_exn db' (fun () -> Db.restart db'));
  let tree' = Btree.open_existing ~config:smos_cfg db'.Db.benv (Btree.index_id tree) in
  Btree.check_invariants tree';
  let actual = List.map fst (Btree.to_list tree') in
  let expected = Hashtbl.fold (fun k () acc -> k :: acc) committed [] |> List.sort compare in
  Alcotest.(check bool) "exactly the committed state" true (actual = expected)

let () =
  Alcotest.run "concurrency"
    [
      ( "isolation",
        [
          Alcotest.test_case "phantom protection (RR)" `Quick test_phantom_blocked;
          Alcotest.test_case "unique: uncommitted delete blocks insert" `Quick
            test_unique_uncommitted_delete_blocks_insert;
          Alcotest.test_case "unique: committed delete allows insert" `Quick
            test_unique_committed_delete_allows_insert;
          Alcotest.test_case "transfers conserve (serializability)" `Quick test_transfers_conserve;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "Q4: rollbacks never deadlock" `Quick test_q4_rollback_never_deadlocks;
          Alcotest.test_case "scans during SMOs" `Quick test_scans_during_smos;
        ] );
      ( "stress",
        [
          QCheck_alcotest.to_alcotest qcheck_stress;
          QCheck_alcotest.to_alcotest qcheck_serializability;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "KVL vs System R duplicate inserts" `Quick
            test_kvl_duplicate_inserts_concurrent;
        ] );
      ( "cursor-stability",
        [
          Alcotest.test_case "non-repeatable read allowed" `Quick test_cs_non_repeatable_read;
          Alcotest.test_case "no dirty read" `Quick test_cs_no_dirty_read;
          Alcotest.test_case "scan holds O(1) locks" `Quick test_cs_scan_holds_few_locks;
        ] );
      ( "concurrent-smos",
        [
          Alcotest.test_case "two SMOs overlap under IX" `Quick test_concurrent_smos_overlap;
          Alcotest.test_case "stress with oracle" `Quick test_concurrent_smos_stress;
          Alcotest.test_case "crash recovery" `Quick test_concurrent_smos_crash_recovery;
        ] );
    ]
