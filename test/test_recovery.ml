(* Crash / restart recovery: durability of committed work, rollback of
   losers, repeating history, idempotency under repeated crashes, fuzzy
   checkpoints, in-doubt transactions, media recovery. *)

open Aries_util
module Logmgr = Aries_wal.Logmgr
module Btree = Aries_btree.Btree
module Txnmgr = Aries_txn.Txnmgr
module Restart = Aries_recovery.Restart
module Checkpoint = Aries_recovery.Checkpoint
module Media = Aries_recovery.Media
module Bufpool = Aries_buffer.Bufpool
module Disk = Aries_page.Disk
module Page = Aries_page.Page
module Db = Aries_db.Db

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

let crash_restart db =
  let db' = Db.crash db in
  let report = Db.run_exn db' (fun () -> Db.restart db') in
  (db', report)

let test_committed_survive () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 199 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  (* no page flushes: everything must come back through redo *)
  let db', _report = crash_restart db in
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "all committed keys recovered" 200 (List.length (Btree.to_list tree'))

let test_uncommitted_rolled_back () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 49 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  (* in-flight transaction: insert more but crash before commit, with the
     log tail flushed so its records survive the crash *)
  ignore
    (Db.run db (fun () ->
         let txn = Txnmgr.begin_txn db.Db.mgr in
         for i = 50 to 149 do
           Btree.insert tree txn ~value:(v i) ~rid:(rid i)
         done;
         Logmgr.flush db.Db.wal
         (* crash before commit: fiber just ends, txn stays active *)));
  let db', report = crash_restart db in
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "only committed keys" 50 (List.length (Btree.to_list tree'));
  Alcotest.(check int) "one loser" 1 (List.length report.Restart.rp_losers)

let test_steal_forces_undo () =
  (* dirty uncommitted pages written to disk (steal) must be rolled back *)
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 29 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  ignore
    (Db.run db (fun () ->
         let txn = Txnmgr.begin_txn db.Db.mgr in
         for i = 30 to 99 do
           Btree.insert tree txn ~value:(v i) ~rid:(rid i)
         done;
         (* steal: push every dirty page (and first the log, by WAL) out *)
         Bufpool.flush_all db.Db.pool));
  let db', _ = crash_restart db in
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "stolen uncommitted undone" 30 (List.length (Btree.to_list tree'))

let test_no_force_redo () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 99 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  let report_db, report = crash_restart db in
  Alcotest.(check bool) "redo applied work" true (report.Restart.rp_redos_applied > 0);
  let tree' = reopen report_db ix in
  Alcotest.(check int) "redo rebuilt" 100 (List.length (Btree.to_list tree'))

let test_restart_idempotent () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 99 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  ignore
    (Db.run db (fun () ->
         let txn = Txnmgr.begin_txn db.Db.mgr in
         for i = 100 to 159 do
           Btree.insert tree txn ~value:(v i) ~rid:(rid i)
         done;
         Logmgr.flush db.Db.wal));
  let db1, _ = crash_restart db in
  (* crash immediately again, twice *)
  let db2, _ = crash_restart db1 in
  let db3, _ = crash_restart db2 in
  let tree' = reopen db3 ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "stable contents" 100 (List.length (Btree.to_list tree'))

let test_checkpoint_bounds_redo () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 99 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  (* flush pages and checkpoint: the earlier work must not be redone *)
  Bufpool.flush_all db.Db.pool;
  Db.checkpoint db;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 100 to 119 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  let db', report = crash_restart db in
  let tree' = reopen db' ix in
  Alcotest.(check int) "contents" 120 (List.length (Btree.to_list tree'));
  Alcotest.(check bool) "redo scan bounded by checkpoint" true
    (report.Restart.rp_records_redo_scanned < 80)

let test_smo_crash_mid_propagation () =
  (* crash with an SMO incomplete on disk: the leaf-level split happened and
     was flushed, the parent posting never made it. Restart must undo the
     SMO page-oriented and roll back the loser. *)
  let db, tree = fresh ~page_size:384 () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 39 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  Btree.set_smo_pause db.Db.benv
    (Some
       (fun () ->
         (* flush everything mid-SMO, then die *)
         Logmgr.flush db.Db.wal;
         Bufpool.flush_all db.Db.pool;
         raise Exit));
  let r =
    Db.run db (fun () ->
        let txn = Txnmgr.begin_txn db.Db.mgr in
        (try
           for i = 40 to 200 do
             Btree.insert tree txn ~value:(v i) ~rid:(rid i)
           done
         with Exit -> ());
        ())
  in
  Alcotest.(check bool) "workload fiber finished" true
    (match r.Aries_sched.Sched.outcome with Aries_sched.Sched.Completed -> true | _ -> false);
  let db', _report = crash_restart db in
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "only committed keys survive" 40 (List.length (Btree.to_list tree'))

let test_indoubt_keeps_locks () =
  let db, tree = fresh () in
  ignore
    (Db.run db (fun () ->
         let txn = Txnmgr.begin_txn db.Db.mgr in
         (* the record manager's commit-duration X record lock is the key
            lock under data-only locking; take it as the Table layer would *)
         Txnmgr.lock db.Db.mgr txn (Aries_lock.Lockmgr.Rid (rid 1)) Aries_lock.Lockmgr.X
           Aries_lock.Lockmgr.Commit;
         Btree.insert tree txn ~value:"held" ~rid:(rid 1);
         Txnmgr.prepare db.Db.mgr txn));
  let db', report = crash_restart db in
  Alcotest.(check int) "one in-doubt txn" 1 (List.length report.Restart.rp_indoubt);
  Alcotest.(check bool) "locks reacquired" true (report.Restart.rp_locks_reacquired > 0);
  let id = List.hd report.Restart.rp_indoubt in
  Alcotest.(check bool) "lock held by in-doubt txn" true
    (Aries_lock.Lockmgr.held_count db'.Db.locks ~txn:id > 0)

let test_crash_during_restart () =
  (* interrupt restart recovery itself (a crash during recovery) and run it
     again: repeating history makes the second attempt land in the same
     state as an uninterrupted one *)
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 149 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  ignore
    (Db.run db (fun () ->
         let t = Txnmgr.begin_txn db.Db.mgr in
         for i = 150 to 239 do
           Btree.insert tree t ~value:(v i) ~rid:(rid i)
         done;
         Logmgr.flush db.Db.wal));
  let db1 = Db.crash db in
  (* the undo pass writes CLRs; a yield probability plus a step budget cuts
     the restart somewhere in the middle *)
  let r =
    Db.run db1 ~yield_probability:0.5 ~max_steps:30 (fun () -> ignore (Db.restart db1))
  in
  (match r.Aries_sched.Sched.outcome with
  | Aries_sched.Sched.Interrupted _ -> () (* genuinely cut mid-recovery *)
  | Aries_sched.Sched.Completed -> () (* recovery won the race; still fine *)
  | Aries_sched.Sched.Stalled _ -> Alcotest.fail "restart stalled");
  let db2, _ = crash_restart db1 in
  let tree' = reopen db2 ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "committed state after interrupted restart" 150
    (List.length (Btree.to_list tree'))

(* A loser whose anchor CLR (rm 0, non-empty body) carries a body that
   does not decode: restart reads it as an anchor that fences nothing, so
   the loser's updates roll back physically, under classic and instant
   restart alike. *)
let test_truncated_anchor_tolerated () =
  List.iter
    (fun instant ->
      let db, tree = fresh () in
      let ix = Btree.index_id tree in
      Db.run_exn db (fun () ->
          Db.with_txn db (fun txn ->
              for i = 0 to 19 do
                Btree.insert tree txn ~value:(v i) ~rid:(rid i)
              done));
      ignore
        (Db.run db (fun () ->
             let mgr = db.Db.mgr in
             let txn = Txnmgr.begin_txn mgr in
             for i = 20 to 39 do
               Btree.insert tree txn ~value:(v i) ~rid:(rid i)
             done;
             let s = Txnmgr.txn_stream mgr txn.Txnmgr.txn_id in
             (* a jump vector cut off inside its first length field *)
             ignore
               (Txnmgr.log_clr mgr txn ~stream:s ~enc:Bytebuf.raw_bytes ~body:(Bytes.of_string "\x07\x00")
                  ~undo_nxt:txn.Txnmgr.undo_nxts.(s) ());
             Logmgr.flush db.Db.wal));
      let db' = Db.crash db in
      let report = Db.run_exn db' (fun () -> Db.restart ~instant db') in
      let label = if instant then "instant" else "classic" in
      Alcotest.(check int) (label ^ ": one loser") 1 (List.length report.Restart.rp_losers);
      let tree' = reopen db' ix in
      Btree.check_invariants tree';
      Alcotest.(check int) (label ^ ": the loser rolled back") 20 (List.length (Btree.to_list tree'));
      Alcotest.(check (list string)) (label ^ ": no leaks") [] (Db.leak_report db'))
    [ false; true ]

let test_partial_rollback_across_crash () =
  (* a savepoint rollback writes CLRs whose UndoNxtLSN jumps; a crash after
     it must not undo the compensated interval twice *)
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  ignore
    (Db.run db (fun () ->
         let t = Txnmgr.begin_txn db.Db.mgr in
         for i = 0 to 9 do
           Btree.insert tree t ~value:(v i) ~rid:(rid i)
         done;
         let sp = Txnmgr.savepoint t in
         for i = 10 to 19 do
           Btree.insert tree t ~value:(v i) ~rid:(rid i)
         done;
         Txnmgr.rollback_to db.Db.mgr t sp;
         for i = 20 to 24 do
           Btree.insert tree t ~value:(v i) ~rid:(rid i)
         done;
         Logmgr.flush db.Db.wal
         (* crash with the txn in flight: restart must undo 20-24 and 0-9,
            and skip the already-compensated 10-19 *)));
  let db', report = crash_restart db in
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "everything undone exactly once" 0 (List.length (Btree.to_list tree'));
  Alcotest.(check int) "one loser" 1 (List.length report.Restart.rp_losers)

let test_prepared_commit_after_restart () =
  (* full 2PC cycle: prepare, crash, restart (locks reacquired), then the
     coordinator's decision commits the in-doubt transaction *)
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  ignore
    (Db.run db (fun () ->
         let t = Txnmgr.begin_txn db.Db.mgr in
         Txnmgr.lock db.Db.mgr t (Aries_lock.Lockmgr.Rid (rid 1)) Aries_lock.Lockmgr.X
           Aries_lock.Lockmgr.Commit;
         Btree.insert tree t ~value:(v 1) ~rid:(rid 1);
         Txnmgr.prepare db.Db.mgr t));
  let db', report = crash_restart db in
  let id = List.hd report.Restart.rp_indoubt in
  let txn =
    match Txnmgr.find db'.Db.mgr id with Some t -> t | None -> Alcotest.fail "in-doubt txn lost"
  in
  Db.run_exn db' (fun () -> Txnmgr.commit_prepared db'.Db.mgr txn);
  Alcotest.(check int) "locks released after decision" 0
    (Aries_lock.Lockmgr.held_count db'.Db.locks ~txn:id);
  let tree' = reopen db' ix in
  Alcotest.(check int) "the prepared insert is durable" 1 (List.length (Btree.to_list tree'));
  (* and it survives yet another crash, now as a winner *)
  let db'', _ = crash_restart db' in
  let tree'' = reopen db'' ix in
  Alcotest.(check int) "still there" 1 (List.length (Btree.to_list tree''))

let test_prepared_abort_after_restart () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  ignore
    (Db.run db (fun () ->
         let t = Txnmgr.begin_txn db.Db.mgr in
         Btree.insert tree t ~value:(v 1) ~rid:(rid 1);
         Txnmgr.prepare db.Db.mgr t));
  let db', report = crash_restart db in
  let id = List.hd report.Restart.rp_indoubt in
  let txn = Option.get (Txnmgr.find db'.Db.mgr id) in
  Db.run_exn db' (fun () -> Txnmgr.rollback db'.Db.mgr txn);
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "the aborted prepare left nothing" 0 (List.length (Btree.to_list tree'))

(* ---------- randomized crash-point property ---------- *)

let crash_prop seed =
  let rng = Rng.create seed in
  let db, tree = fresh ~page_size:320 () in
  let ix = Btree.index_id tree in
  Bufpool.set_steal_hook db.Db.pool ~seed ~probability:0.1;
  let committed : (string, Ids.rid) Hashtbl.t = Hashtbl.create 64 in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 59 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i);
            Hashtbl.replace committed (v i) (rid i)
          done));
  (* concurrent transactions; the scheduler stops after a random number of
     steps = the crash point. Committed txns update the oracle at commit;
     everything else must vanish. *)
  let steps = 50 + Rng.int rng 2500 in
  let mk_txn_fiber _fid () =
    let rec loop n =
      if n > 0 then begin
        let txn = Txnmgr.begin_txn db.Db.mgr in
        let local = ref [] in
        let ok =
          try
            for _ = 1 to 1 + Rng.int rng 6 do
              let i = 1000 + Rng.int rng 300 in
              let value = v i in
              let mine = List.exists (fun (x, _) -> String.equal x value) !local in
              if (not mine) && not (Hashtbl.mem committed value) then begin
                Btree.insert tree txn ~value ~rid:(rid i);
                local := (value, `Ins) :: !local
              end
              else if (not mine) && Hashtbl.mem committed value then begin
                Btree.delete tree txn ~value ~rid:(Hashtbl.find committed value);
                local := (value, `Del) :: !local
              end
            done;
            true
          with Txnmgr.Aborted _ -> false
        in
        if ok then begin
          Txnmgr.commit db.Db.mgr txn;
          List.iter
            (fun (value, op) ->
              match op with
              | `Ins -> Hashtbl.replace committed value (rid 0)
              | `Del -> Hashtbl.remove committed value)
            (List.rev !local)
        end;
        Aries_sched.Sched.yield ();
        loop (n - 1)
      end
    in
    loop 40
  in
  (* oracle rids must match inserted rids: compute rid from the value *)
  ignore
    (Db.run db ~policy:(Aries_sched.Sched.Random seed) ~max_steps:steps ~yield_probability:0.3
       (fun () ->
         for fid = 1 to 3 do
           ignore (Aries_sched.Sched.spawn (mk_txn_fiber fid))
         done));
  let db', _report = crash_restart db in
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  let actual = List.map fst (Btree.to_list tree') in
  let expected = Hashtbl.fold (fun k _ acc -> k :: acc) committed [] |> List.sort compare in
  if actual <> expected then begin
    Printf.printf "MISMATCH seed=%d: actual %d keys, expected %d\n%!" seed (List.length actual)
      (List.length expected);
    false
  end
  else true

let qcheck_crash =
  QCheck.Test.make ~name:"crash at a random point: exactly the committed state is recovered"
    ~count:25 QCheck.small_int crash_prop

(* ---------- fuzzy checkpoints under load ---------- *)

let test_ckpt_crash_before_master () =
  (* Crash-ordering: Checkpoint.take forces the Begin/End pair stable and
     only then updates the master record, with a crash-point hook in the
     window. A crash there must leave the old master valid: restart anchors
     on the previous complete checkpoint and loses nothing. *)
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 59 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  Db.checkpoint db;
  let master1 = Logmgr.master db.Db.wal in
  Alcotest.(check bool) "first checkpoint mastered" false (Aries_wal.Lsn.is_nil master1);
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 60 to 99 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  Crashpoint.reset ();
  Crashpoint.arm_label "ckpt.master";
  (match Db.checkpoint db with
  | () -> Alcotest.fail "crash point between force and master update never fired"
  | exception Crashpoint.Crash _ -> ());
  Crashpoint.disarm ();
  Crashpoint.reset ();
  Alcotest.(check int) "master still names the old checkpoint" master1
    (Logmgr.master db.Db.wal);
  let db', _report = crash_restart db in
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "nothing lost across the torn checkpoint" 100
    (List.length (Btree.to_list tree'));
  (* and the next checkpoint completes and advances the master *)
  Db.checkpoint db';
  Alcotest.(check bool) "master advanced past the old checkpoint" true
    (Aries_wal.Lsn.( < ) master1 (Logmgr.master db'.Db.wal))

let test_ckpt_mid_smo () =
  (* Fuzzy checkpoints never quiesce: take one in the middle of every SMO
     (tree pages latched, the split half-propagated) and the outcome must
     be byte-for-byte what it would have been without the checkpoints. *)
  let db, tree = fresh ~page_size:384 () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 39 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  let ckpts = ref 0 in
  Btree.set_smo_pause db.Db.benv
    (Some
       (fun () ->
         incr ckpts;
         Db.checkpoint db));
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 40 to 139 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  Btree.set_smo_pause db.Db.benv None;
  Alcotest.(check bool) "checkpoints actually fired mid-SMO" true (!ckpts > 0);
  let db', _report = crash_restart db in
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "mid-SMO checkpoints change nothing" 140
    (List.length (Btree.to_list tree'))

let test_ckpt_with_loser_in_flight () =
  (* A checkpoint that records an active transaction (including mid-SMO)
     must not stop restart from rolling it back when it never commits. *)
  let db, tree = fresh ~page_size:384 () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 39 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  let ckpts = ref 0 in
  ignore
    (Db.run db (fun () ->
         let t = Txnmgr.begin_txn db.Db.mgr in
         Btree.set_smo_pause db.Db.benv
           (Some
              (fun () ->
                incr ckpts;
                Db.checkpoint db));
         for i = 40 to 160 do
           Btree.insert tree t ~value:(v i) ~rid:(rid i)
         done;
         Btree.set_smo_pause db.Db.benv None;
         Logmgr.flush db.Db.wal
         (* crash with the txn in flight: the checkpoints recorded it as
            Active, possibly in the middle of one of its SMOs *)));
  Alcotest.(check bool) "checkpoints fired with the loser in flight" true (!ckpts > 0);
  let db', report = crash_restart db in
  Alcotest.(check int) "one loser" 1 (List.length report.Restart.rp_losers);
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "loser fully undone despite checkpoints" 40
    (List.length (Btree.to_list tree'))

let test_analysis_bounded_by_ckpt () =
  (* rp_records_analyzed after a crash is bounded by the number of records
     written since the last complete checkpoint — the whole point of
     checkpointing is that analysis does not reread history. *)
  let db, tree = fresh () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 79 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  Db.checkpoint db;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 80 to 99 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  let master = Logmgr.master db.Db.wal in
  let since_ckpt = ref 0 in
  Logmgr.iter_from db.Db.wal master (fun _ -> incr since_ckpt);
  let total = ref 0 in
  Logmgr.iter_from db.Db.wal (Logmgr.start_lsn db.Db.wal) (fun _ -> incr total);
  let _db', report = crash_restart db in
  Alcotest.(check bool) "analysis <= records since last complete checkpoint" true
    (report.Restart.rp_records_analyzed <= !since_ckpt);
  Alcotest.(check bool) "analysis strictly under full-log scan" true
    (report.Restart.rp_records_analyzed < !total)

let test_committing_in_ckpt_is_winner () =
  (* Regression: a group-commit committer parked between appending its
     Commit record and the batched force is recorded by a fuzzy checkpoint
     in state Committing. Restart analysis anchored on that checkpoint
     never sees the Commit record (it precedes Begin_ckpt), so the body
     state alone must classify the transaction as committed — it is sound
     because End_ckpt > Commit means the Commit record is stable whenever
     this checkpoint is the restart anchor. *)
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 19 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  ignore
    (Db.run db (fun () ->
         (* emulate the parked committer: Commit record appended, state
            Committing, no force and no End_txn yet *)
         let t = Txnmgr.begin_txn db.Db.mgr in
         for i = 20 to 39 do
           Btree.insert tree t ~value:(v i) ~rid:(rid i)
         done;
         let r =
           Aries_wal.Logrec.make ~txn:t.Txnmgr.txn_id ~prev_lsn:t.Txnmgr.lasts.(0)
             Aries_wal.Logrec.Commit
         in
         t.Txnmgr.lasts.(0) <- Aries_wal.Logset.append db.Db.logs ~stream:0 r;
         t.Txnmgr.state <- Txnmgr.Committing;
         (* the fuzzy checkpoint fires while the committer is parked; its
            force-before-master makes the Commit record stable too *)
         Db.checkpoint db));
  let db', report = crash_restart db in
  Alcotest.(check int) "parked committer is not a loser" 0
    (List.length report.Restart.rp_losers);
  let tree' = reopen db' ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "its work is durable" 40 (List.length (Btree.to_list tree'))

(* ---------- media recovery ---------- *)

let test_media_recovery () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 149 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  let dump = Media.take_dump db.Db.mgr db.Db.pool in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 150 to 249 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  Bufpool.flush_all db.Db.pool;
  let victim = Btree.root_pid tree in
  let before = Disk.read db.Db.disk victim in
  (* silent corruption flavor: the image is still there, just rotten *)
  Disk.corrupt_flip ~seed:7 db.Db.disk victim;
  Bufpool.drop db.Db.pool victim;
  let applied = Db.run_exn db (fun () -> Media.recover_page db.Db.mgr db.Db.pool dump victim) in
  Alcotest.(check bool) "recover_page ran" true (applied >= 0);
  let after = Disk.read db.Db.disk victim in
  (match (before, after) with
  | Some b, Some a -> Alcotest.(check bool) "page bytes identical" true (Page.equal b a)
  | _ -> Alcotest.fail "page missing after media recovery");
  let tree' = reopen db ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "contents intact" 250 (List.length (Btree.to_list tree'))

let test_media_recovery_whole_tree () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 99 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  let dump = Media.take_dump db.Db.mgr db.Db.pool in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 100 to 199 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  Bufpool.flush_all db.Db.pool;
  let pids = Disk.pids db.Db.disk in
  List.iter
    (fun pid ->
      Disk.corrupt_drop db.Db.disk pid;
      Bufpool.drop db.Db.pool pid)
    pids;
  Db.run_exn db (fun () ->
      List.iter (fun pid -> ignore (Media.recover_page db.Db.mgr db.Db.pool dump pid)) pids);
  let tree' = reopen db ix in
  Btree.check_invariants tree';
  Alcotest.(check int) "all keys back" 200 (List.length (Btree.to_list tree'))

(* ---------- checkpoint body codec ---------- *)

(* Varint fields at their size boundaries, one delta-coded entry per
   dirty page: a round trip is exact, every proper prefix is [Corrupt], a
   DPT or chain that does not ascend is refused by the encoder and a zero
   delta by the decoder. Stream 0's scan point is the Begin_ckpt's LSN,
   which the body leaves out. A transaction entry ends at its undo-next
   vector: it carries no lock list. *)
let test_checkpoint_body_codec () =
  let body =
    {
      Checkpoint.ck_scan = [| 8; 16384; max_int |];
      ck_txns =
        [
          {
            Checkpoint.ct_id = 1 lsl 31;
            ct_state = Txnmgr.Committing;
            ct_firsts = [| 8; 0; 127 |];
            ct_lasts = [| 128; 0; 16383 |];
            ct_undo_nxts = [| 0; 0; max_int |];
          };
          {
            Checkpoint.ct_id = 0;
            ct_state = Txnmgr.Active;
            ct_firsts = [||];
            (* a 130-entry vector: its count takes a two-byte varint *)
            ct_lasts = Array.init 130 (fun i -> i * 127);
            ct_undo_nxts = [||];
          };
        ];
      ck_dpt = [ (1, 8); (2, 127); (3, 200); (max_int, 16384) ];
      (* page 3 is chainless: count 0 on the log *)
      ck_chains = [ (1, [ 8; 135; 136; 16520; 1 lsl 31; max_int ]); (2, [ 127 ]); (max_int, [ 16390 ]) ];
      ck_next_txn = 16384;
    }
  in
  let begin_lsn = 8 in
  let enc = Checkpoint.encode_body ~begin_lsn body in
  Alcotest.(check bool) "round trip" true (Checkpoint.decode_body ~begin_lsn enc = body);
  for n = 1 to Bytes.length enc - 1 do
    Alcotest.(check bool) (Printf.sprintf "%d-byte prefix is Corrupt" n) true
      (match Checkpoint.decode_body ~begin_lsn (Bytes.sub enc 0 n) with
      | _ -> false
      | exception Bytebuf.Corrupt _ -> true)
  done;
  let refused what b =
    Alcotest.(check bool) what true
      (match Checkpoint.encode_body ~begin_lsn b with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  List.iter
    (fun chain ->
      refused "a chain that does not ascend from its recLSN is refused"
        { body with Checkpoint.ck_dpt = [ (4, 8) ]; ck_chains = [ (4, chain) ] })
    [ [ 8; 8 ]; [ 200; 100 ]; [ 0 ]; [ -8 ] ];
  refused "an empty chain is refused" { body with Checkpoint.ck_dpt = [ (4, 8) ]; ck_chains = [ (4, []) ] };
  refused "a chain outside the DPT is refused" { body with Checkpoint.ck_chains = [ (4, [ 8 ]) ] };
  refused "a DPT that does not ascend is refused" { body with Checkpoint.ck_dpt = [ (2, 8); (2, 9) ]; ck_chains = [] };
  refused "a stream-0 scan point other than the Begin_ckpt is refused"
    { body with Checkpoint.ck_scan = [| 9; 16384; max_int |] };
  (* next_txn 1, no scan, no txns; one page 3 (recLSN 11: zigzag 5 is 3
     past the Begin_ckpt) whose one-LSN chain has a zero delta; then two
     chainless pages with a zero page delta; then a chain tag of 1 *)
  List.iter
    (fun (what, b) ->
      Alcotest.(check bool) what true
        (match Checkpoint.decode_body ~begin_lsn (Bytes.of_string b) with
        | _ -> false
        | exception Bytebuf.Corrupt _ -> true))
    [
      ("a zero chain delta is Corrupt", "\x01\x00\x00\x01\x03\x05\x02\x00\x00");
      ("a zero page delta is Corrupt", "\x01\x00\x00\x02\x03\x05\x00\x00\x05\x00");
      ("chain tag 1 is Corrupt", "\x01\x00\x00\x01\x03\x05\x01");
    ];
  (* next_txn 8, no scan; one Rolling_back txn 7 with three empty
     vectors and nothing after them; no dirty pages *)
  Alcotest.(check bool) "a txn entry ends at its undo-next vector" true
    (Checkpoint.decode_body ~begin_lsn (Bytes.of_string "\x08\x00\x01\x07\x02\x00\x00\x00\x00")
    = {
        Checkpoint.ck_scan = [||];
        ck_txns =
          [
            {
              Checkpoint.ct_id = 7;
              ct_state = Txnmgr.Rolling_back;
              ct_firsts = [||];
              ct_lasts = [||];
              ct_undo_nxts = [||];
            };
          ];
        ck_dpt = [];
        ck_chains = [];
        ck_next_txn = 8;
      })

(* ---------- byte-identity fingerprint ---------- *)

(* Classic restart must leave exactly the same stable state — log and disk,
   byte for byte — whatever engine drives it. A seeded workload over two
   log streams: committed inserts and deletes, a pool flush and a
   checkpoint, then three losers whose inserts (with their splits) and
   deletes interleave op by op — the third starts late, so undo finishes
   it while the others still owe records — a second checkpoint among
   them, the log forced and a few of their pages stolen. The pool is
   large enough to evict nothing before or after the crash, so every page
   write is the explicit flush here. The constants pin the post-restart
   images; any change to redo, undo, CLR contents, the End records' order
   or the closing checkpoint shows up as a different digest. They are MD5
   digests, not CRC32s: both images end every log segment and every page
   in the CRC32 of its own bytes, and a CRC32 over such an image cancels
   out any same-length change to those bytes. *)
let fingerprint_log = "93a19f8242327b5c4ca0958884f74a0f"
let fingerprint_disk = "a9b8c1fb94458275e0d051d1f4023396"

let test_fingerprint () =
  let db = Db.create ~page_size:384 ~pool_capacity:4096 ~streams:2 () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Btree.create db.Db.benv txn ~name:"fp" ~unique:true))
  in
  let rng = Rng.create 4242 in
  (* lo, lo + step, ... below hi, in seeded random order *)
  let shuffled lo hi step =
    let a = Array.init ((hi - lo + step - 1) / step) (fun j -> lo + (j * step)) in
    Rng.shuffle rng a;
    Array.to_list a
  in
  Db.run_exn db (fun () ->
      (* committed: every even key of [0, 800), in three batches *)
      let evens = shuffled 0 800 2 in
      List.iter
        (fun batch ->
          Db.with_txn db (fun txn ->
              List.iter (fun i -> Btree.insert tree txn ~value:(v i) ~rid:(rid i)) batch))
        [ List.filteri (fun j _ -> j mod 3 = 0) evens;
          List.filteri (fun j _ -> j mod 3 = 1) evens;
          List.filteri (fun j _ -> j mod 3 = 2) evens ];
      Db.with_txn db (fun txn ->
          List.iter
            (fun i -> Btree.delete tree txn ~value:(v i) ~rid:(rid i))
            (List.filteri (fun j _ -> j < 60) (shuffled 0 300 2))));
  Bufpool.flush_all db.Db.pool;
  Db.checkpoint db;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          List.iter
            (fun i -> Btree.insert tree txn ~value:(v i) ~rid:(rid i))
            (List.filteri (fun j _ -> j < 40) (shuffled 1 300 2))));
  (* three losers in disjoint key ranges fenced by untouched committed
     keys (no lock conflict, so one fiber can interleave them) *)
  Db.run_exn db (fun () ->
      let ops lo hi =
        List.map (fun i -> (true, i)) (shuffled (lo + 1) hi 2)
        @ List.map (fun i -> (false, i)) (List.filteri (fun j _ -> j < 20) (shuffled lo hi 4))
      in
      (* (txn, first step, ops) *)
      let losers =
        List.map
          (fun (start, lo, hi) -> (Txnmgr.begin_txn db.Db.mgr, start, Array.of_list (ops lo hi)))
          [ (0, 310, 450); (0, 470, 610); (50, 630, 670) ]
      in
      let apply t (ins, i) =
        if ins then Btree.insert tree t ~value:(v i) ~rid:(rid i)
        else Btree.delete tree t ~value:(v i) ~rid:(rid i)
      in
      for k = 0 to 100 do
        List.iter
          (fun (t, start, ops) ->
            if k >= start && k - start < Array.length ops then apply t ops.(k - start))
          losers;
        if k = 40 then Db.checkpoint db
      done;
      Aries_wal.Logset.flush_all db.Db.logs;
      List.iter
        (fun value -> Bufpool.flush_page db.Db.pool (Btree.locate_leaf tree value))
        [ v 330; v 500; v 600 ]);
  Alcotest.(check bool) "crash-time pages fit the restarted pool" true (Btree.page_count tree < 100);
  let db', report = crash_restart db in
  Alcotest.(check int) "three losers" 3 (List.length report.Restart.rp_losers);
  Bufpool.flush_all db'.Db.pool;
  Aries_wal.Logset.flush_all db'.Db.logs;
  let digest img = Digest.to_hex (Digest.bytes img) in
  Alcotest.(check string) "log image" fingerprint_log
    (digest (Aries_wal.Logset.serialize db'.Db.logs));
  Alcotest.(check string) "disk image" fingerprint_disk (digest (Disk.serialize db'.Db.disk));
  let tree' = reopen db' (Btree.index_id tree) in
  Btree.check_invariants tree'

(* Counter fidelity: the fingerprint workload above, run in a fresh sink,
   must bump exactly the same counters by exactly the same amounts. The
   constant is the MD5 of the rendered [Stats.to_alist]; a counter that is
   lost, renamed or double-counted by a producer changes it. The trace
   checker is pinned on, since [trace.events] counts its events. *)
let counter_digest = "96104bc90b0243140dcb2c31aabcb503"

let test_counter_fidelity () =
  let s = Stats.create () in
  let mode = Aries_trace.Trace.mode () in
  Aries_trace.Trace.set_mode Aries_trace.Trace.Check;
  Fun.protect
    ~finally:(fun () -> Aries_trace.Trace.set_mode mode)
    (fun () -> Stats.with_sink s test_fingerprint);
  let rendered =
    String.concat "\n" (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) (Stats.to_alist s))
  in
  Alcotest.(check string) "counter digest" counter_digest (Digest.to_hex (Digest.string rendered))

let () =
  Alcotest.run "recovery"
    [
      ( "restart",
        [
          Alcotest.test_case "committed survive crash" `Quick test_committed_survive;
          Alcotest.test_case "uncommitted rolled back" `Quick test_uncommitted_rolled_back;
          Alcotest.test_case "steal forces undo" `Quick test_steal_forces_undo;
          Alcotest.test_case "no-force forces redo" `Quick test_no_force_redo;
          Alcotest.test_case "restart is idempotent" `Quick test_restart_idempotent;
          Alcotest.test_case "checkpoint bounds redo" `Quick test_checkpoint_bounds_redo;
          Alcotest.test_case "crash mid-SMO" `Quick test_smo_crash_mid_propagation;
          Alcotest.test_case "in-doubt keeps locks" `Quick test_indoubt_keeps_locks;
          Alcotest.test_case "crash during restart" `Quick test_crash_during_restart;
          Alcotest.test_case "partial rollback across crash" `Quick
            test_partial_rollback_across_crash;
          Alcotest.test_case "truncated anchor body tolerated" `Quick
            test_truncated_anchor_tolerated;
          Alcotest.test_case "2PC: commit after restart" `Quick test_prepared_commit_after_restart;
          Alcotest.test_case "2PC: abort after restart" `Quick test_prepared_abort_after_restart;
          Alcotest.test_case "classic restart fingerprint" `Quick test_fingerprint;
          Alcotest.test_case "checkpoint body codec" `Quick test_checkpoint_body_codec;
          Alcotest.test_case "restart counter fidelity" `Quick test_counter_fidelity;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest qcheck_crash ]);
      ( "checkpoint",
        [
          Alcotest.test_case "crash between End_ckpt force and master" `Quick
            test_ckpt_crash_before_master;
          Alcotest.test_case "checkpoint mid-SMO changes nothing" `Quick test_ckpt_mid_smo;
          Alcotest.test_case "checkpoint with loser in flight" `Quick
            test_ckpt_with_loser_in_flight;
          Alcotest.test_case "analysis bounded by last checkpoint" `Quick
            test_analysis_bounded_by_ckpt;
          Alcotest.test_case "Committing in checkpoint body is a winner" `Quick
            test_committing_in_ckpt_is_winner;
        ] );
      ( "media",
        [
          Alcotest.test_case "single page" `Quick test_media_recovery;
          Alcotest.test_case "whole tree" `Quick test_media_recovery_whole_tree;
        ] );
    ]
