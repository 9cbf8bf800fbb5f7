(* The paper's figures as executable schedules (experiments E1-E11; see
   DESIGN.md §3), each written once. A figure runs its schedule, reads
   what it observes from the log, the tree and the process trace ring
   ({!Aries_trace.Trace}), and returns named checks: test/test_scenarios.ml
   asserts every one, and bench/main.exe eN prints each as CONFIRMED or
   VIOLATED and fails when one is violated. *)

open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logmgr = Aries_wal.Logmgr
module Key = Aries_page.Key
module Page = Aries_page.Page
module Bufpool = Aries_buffer.Bufpool
module Lockmgr = Aries_lock.Lockmgr
module Ixlog = Aries_btree.Ixlog
module Btree = Aries_btree.Btree
module Protocol = Aries_btree.Protocol
module Txnmgr = Aries_txn.Txnmgr
module Sched = Aries_sched.Sched
module Db = Aries_db.Db
module Trace = Aries_trace.Trace

type check = { name : string; ok : bool }

let check name ok = { name; ok }

(* ------------------------------------------------------------------ *)
(* Fixtures, shared with the bench's Q series *)

let rid i = { Ids.rid_page = 900 + (i / 100); rid_slot = i mod 100 }

let v i = Printf.sprintf "key%05d" i

let fresh ?(page_size = 384) ?(unique = true) ?config () =
  let db = Db.create ~page_size ?config () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Btree.create ?config db.Db.benv txn ~name:"t" ~unique))
  in
  (db, tree)

let seed_keys db tree lo hi =
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = lo to hi do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done))

(* log records strictly after [from] *)
let records_after db from =
  List.filter
    (fun r -> Lsn.( < ) from r.Logrec.lsn)
    (Logmgr.records_between db.Db.wal Lsn.nil Lsn.nil)

(* The observation window: [f]'s result and the trace payloads it emitted,
   oldest first. The ring is reset at the start; a tracer that is [Off]
   records for the window (a checking one keeps checking) and gets its
   mode back afterwards. A window longer than the ring fails instead of
   reading a truncated stream. *)
let observe f =
  let saved = Trace.mode () in
  if saved = Trace.Off then Trace.set_mode Trace.Record;
  Trace.reset ();
  let x = Fun.protect ~finally:(fun () -> Trace.set_mode saved) f in
  let n = Trace.event_count () in
  if n > Trace.capacity () then
    failwith
      (Printf.sprintf "figure window of %d trace events outgrew the ring (capacity %d)" n
         (Trace.capacity ()));
  (x, List.map (fun (e : Trace.event) -> e.Trace.ev_payload) (Trace.events ()))

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1: logical undo after an intervening split. *)

let e1 () =
  let db, tree = fresh () in
  seed_keys db tree 0 9;
  let k8 = "key99999" (* sorts last: a split moves it right *) in
  let p1, p2, clrs =
    Db.run_exn db (fun () ->
        let t1 = Txnmgr.begin_txn db.Db.mgr in
        Btree.insert tree t1 ~value:k8 ~rid:(rid 999);
        let p1 = Btree.locate_leaf tree k8 in
        (* T2 fills the same leaf until it splits, and commits *)
        Db.with_txn db (fun t2 ->
            let i = ref 10 in
            while Btree.locate_leaf tree k8 = p1 do
              Btree.insert tree t2 ~value:(v !i) ~rid:(rid !i);
              incr i
            done);
        let p2 = Btree.locate_leaf tree k8 in
        (* T1 rolls back: Figure 1's logical undo *)
        let mark = Logmgr.last_lsn db.Db.wal in
        Txnmgr.rollback db.Db.mgr t1;
        ( p1,
          p2,
          List.filter
            (fun r -> r.Logrec.kind = Logrec.Clr && r.Logrec.rm_id = Ixlog.rm_id)
            (records_after db mark) ))
  in
  let clr_page = match clrs with [ clr ] -> Some clr.Logrec.page | _ -> None in
  Btree.check_invariants tree;
  [
    check "the split moved K8" (p1 <> p2);
    check "exactly one index CLR" (clr_page <> None);
    check "CLR targets the NEW page (P2), not P1" (clr_page = Some p2);
    check "CLR page differs from original" (clr_page <> None && clr_page <> Some p1);
    check "K8 gone after rollback"
      (not (List.exists (fun (value, _) -> String.equal value k8) (Btree.to_list tree)));
  ]

(* ------------------------------------------------------------------ *)
(* E2 — Figure 2: the locking summary table, measured from the granted
   locks of one operation. *)

let e2 () =
  let grants db f =
    let (), evs = observe (fun () -> Db.run_exn db (fun () -> Db.with_txn db f)) in
    List.filter_map
      (function
        | Trace.Lock_grant { name; mode; duration; _ } -> Some (name, mode, duration) | _ -> None)
      evs
  in
  let modes = List.map (fun (_, m, d) -> (m, d)) in
  let fetch tree txn = ignore (Btree.fetch tree txn (v 5)) in
  let insert tree txn = Btree.insert tree txn ~value:"key00005a" ~rid:(rid 500) in
  let delete tree txn = Btree.delete tree txn ~value:(v 10) ~rid:(rid 10) in
  (* data-only locking *)
  let db, tree = fresh () in
  seed_keys db tree 0 19;
  let fetched = grants db (fetch tree) in
  let inserted = grants db (insert tree) in
  let deleted = grants db (delete tree) in
  (* index-specific locking adds the current-key locks of Figure 2 *)
  let cfg = { Btree.default_config with Btree.locking = Protocol.Index_specific } in
  let db2, tree2 = fresh ~config:cfg () in
  seed_keys db2 tree2 0 19;
  let is_inserted = grants db2 (insert tree2) in
  let is_deleted = grants db2 (delete tree2) in
  [
    check "fetch locks the found key's record, S commit"
      (match fetched with
      | [ (Lockmgr.Rid _, Lockmgr.S, Lockmgr.Commit) ] -> true
      | _ -> false);
    check "insert next-key lock = next record, X instant"
      (inserted = [ (Lockmgr.Rid (rid 6), Lockmgr.X, Lockmgr.Instant) ]);
    check "delete next-key lock = next record, X commit"
      (deleted = [ (Lockmgr.Rid (rid 11), Lockmgr.X, Lockmgr.Commit) ]);
    check "index-specific insert: X instant + X commit"
      (modes is_inserted = [ (Lockmgr.X, Lockmgr.Instant); (Lockmgr.X, Lockmgr.Commit) ]);
    check "index-specific delete: X commit + X instant"
      (modes is_deleted = [ (Lockmgr.X, Lockmgr.Commit); (Lockmgr.X, Lockmgr.Instant) ]);
  ]

(* ------------------------------------------------------------------ *)
(* E3 — Figure 3: an insert racing an in-progress SMO must wait for the
   SMO (SM_Bit -> tree latch) instead of updating the wrong page.

   The schedule: T1 splits and pauses mid-SMO; T2 inserts into the
   splitting region; once T2 has started (and [reader], if given, has run
   to its end in its own fiber) the resumer records whether T2 is still
   stuck and releases the SMO. Returns the run, whether T2 was blocked,
   whether T2 completed, whether the reader completed, and the window. *)

let smo_pause_schedule ?reader db tree =
  let cv = Sched.Condvar.create "smo-pause" in
  let paused = ref false in
  Btree.set_smo_pause db.Db.benv
    (Some
       (fun () ->
         if not !paused then begin
           paused := true;
           Sched.Condvar.wait cv
         end));
  let wait_paused () =
    while not !paused do
      Sched.yield ()
    done
  in
  let t2_started = ref false and t2_inserted = ref false in
  let reader_done = ref (reader = None) in
  let blocked = ref false in
  let r, evs =
    observe (fun () ->
        Db.run db (fun () ->
            (* T1: trigger a split and pause mid-SMO *)
            ignore
              (Sched.spawn ~name:"T1-splitter" (fun () ->
                   Db.with_txn db (fun txn ->
                       let i = ref 100 in
                       while not !paused do
                         Btree.insert tree txn ~value:(v !i) ~rid:(rid !i);
                         incr i
                       done)));
            (* T2: insert into the splitting region while the SMO is paused;
               key99998 routes to the rightmost leaf, the one splitting *)
            ignore
              (Sched.spawn ~name:"T2-insert" (fun () ->
                   wait_paused ();
                   t2_started := true;
                   Db.with_txn db (fun txn -> Btree.insert tree txn ~value:"key99998" ~rid:(rid 77));
                   t2_inserted := true));
            Option.iter
              (fun f ->
                ignore
                  (Sched.spawn ~name:"R-snapshot" (fun () ->
                       wait_paused ();
                       f ();
                       reader_done := true)))
              reader;
            (* let T2 get stuck, then release the SMO *)
            ignore
              (Sched.spawn ~name:"resumer" (fun () ->
                   while not (!t2_started && !reader_done) do
                     Sched.yield ()
                   done;
                   for _ = 1 to 10 do
                     Sched.yield ()
                   done;
                   blocked := not !t2_inserted;
                   Sched.Condvar.signal cv))))
  in
  Btree.set_smo_pause db.Db.benv None;
  (r, !blocked, !t2_inserted, !reader_done, evs)

let run_checks (r : Sched.result) =
  [
    check "no stall" (r.Sched.outcome = Sched.Completed);
    check "no fiber exceptions" (r.Sched.exns = []);
  ]

let e3 () =
  let db, tree = fresh () in
  seed_keys db tree 0 19;
  let r, blocked, t2_inserted, _, _ = smo_pause_schedule db tree in
  Btree.check_invariants tree;
  run_checks r
  @ [
      check "T2 could not complete while the SMO was in flight" blocked;
      check "T2 completed after the SMO" t2_inserted;
      check "T2's key present exactly once"
        (List.length (List.filter (fun (value, _) -> value = "key99998") (Btree.to_list tree)) = 1);
    ]

(* ------------------------------------------------------------------ *)
(* E4 — Figure 4: traversal holds at most two page latches (coupling). *)

let e4 () =
  let db, tree = fresh () in
  seed_keys db tree 0 199;
  let (), evs =
    observe (fun () ->
        Db.run_exn db (fun () ->
            Db.with_txn db (fun txn -> ignore (Btree.fetch tree txn (v 150)))))
  in
  let held = ref 0 and max_held = ref 0 and acquires = ref 0 in
  List.iter
    (function
      | Trace.Latch_acquire { kind = Trace.Page_latch; _ } ->
          incr held;
          incr acquires;
          max_held := max !max_held !held
      | Trace.Latch_release { kind = Trace.Page_latch; _ } -> decr held
      | _ -> ())
    evs;
  [
    check "tree is tall enough" (Btree.height tree >= 1);
    check "at most two page latches simultaneously" (!max_held <= 2);
    check "all latches released" (!held = 0);
    check "descends through anchor, root, leaf" (!acquires >= 3);
  ]

(* ------------------------------------------------------------------ *)
(* E5 — Figure 5: fetch's conditional lock denied by a conflicting
   holder; fetch releases latches, waits unconditionally, revalidates. *)

let e5 () =
  let db, tree = fresh () in
  seed_keys db tree 0 9;
  let fetched = ref None in
  let r, evs =
    observe (fun () ->
        Db.run db (fun () ->
            ignore
              (Sched.spawn ~name:"T1-deleter" (fun () ->
                   let t1 = Txnmgr.begin_txn db.Db.mgr in
                   (* uncommitted delete of key 5 leaves an X lock on the
                      next key (key 6) for others to trip on (§2.6) *)
                   Btree.delete tree t1 ~value:(v 5) ~rid:(rid 5);
                   for _ = 1 to 12 do
                     Sched.yield ()
                   done;
                   Txnmgr.rollback db.Db.mgr t1));
            ignore
              (Sched.spawn ~name:"T2-fetch" (fun () ->
                   Sched.yield ();
                   Db.with_txn db (fun t2 -> fetched := Btree.fetch tree t2 (v 5))))))
  in
  (* the S commit request is first denied, then made unconditionally *)
  let rec dance = function
    | Trace.Lock_deny { mode = Lockmgr.S; _ } :: rest ->
        List.exists
          (function
            | Trace.Lock_request
                { mode = Lockmgr.S; duration = Lockmgr.Commit; cond = false; _ } ->
                true
            | _ -> false)
          rest
    | _ :: rest -> dance rest
    | [] -> false
  in
  [
    check "completed" (r.Sched.outcome = Sched.Completed);
    check "conditional fail then unconditional wait" (dance evs);
    (* T1 rolled back, so key 5 exists again: RR requires T2 to see it *)
    check "fetch found the key after T1's rollback"
      (match !fetched with Some k -> String.equal k.Key.value (v 5) | None -> false);
  ]

(* ------------------------------------------------------------------ *)
(* E6 — Figure 6: an insert whose next key lives on the next leaf
   latches both leaves while requesting the instant X lock. *)

let e6 () =
  let db, tree = fresh () in
  seed_keys db tree 0 199;
  let leaves = Btree.leaf_pids tree in
  let several = List.length leaves >= 2 in
  let first_leaf = List.hd leaves in
  let second_leaf = List.nth leaves 1 in
  let keys = Btree.to_list tree in
  let last_of_first =
    List.filter (fun (value, _) -> Btree.locate_leaf tree value = first_leaf) keys
    |> List.rev |> List.hd |> fst
  in
  let _, next_rid = List.find (fun (value, _) -> Btree.locate_leaf tree value = second_leaf) keys in
  let target = last_of_first ^ "zz" (* sorts after every key in leaf 1 *) in
  let (), evs =
    observe (fun () ->
        Db.run_exn db (fun () ->
            Db.with_txn db (fun txn -> Btree.insert tree txn ~value:target ~rid:(rid 88))))
  in
  [
    check "several leaves" several;
    check "next leaf latched during next-key search"
      (List.exists
         (function
           | Trace.Latch_acquire { kind = Trace.Page_latch; name; _ } ->
               String.equal name ("page-" ^ string_of_int second_leaf)
           | _ -> false)
         evs);
    check "instant X on next leaf's first key"
      (List.exists
         (function
           | Trace.Lock_request { name; mode = Lockmgr.X; duration = Lockmgr.Instant; _ } ->
               name = Lockmgr.Rid next_rid
           | _ -> false)
         evs);
  ]

(* ------------------------------------------------------------------ *)
(* E7 — Figure 7: Delete_Bit marking and the boundary-key POSC rule. *)

let body_of_record (r : Logrec.t) = Ixlog.decode ~op:r.Logrec.op r.Logrec.body

let e7 () =
  let db, tree = fresh () in
  seed_keys db tree 0 199;
  let second_leaf = List.nth (Btree.leaf_pids tree) 1 in
  let on_leaf =
    List.filter (fun (value, _) -> Btree.locate_leaf tree value = second_leaf) (Btree.to_list tree)
  in
  (* the Delete_Bit of each logged key delete, and whether the S tree
     latch was taken *)
  let delete value r =
    let mark = Logmgr.last_lsn db.Db.wal in
    let (), evs =
      observe (fun () ->
          Db.run_exn db (fun () -> Db.with_txn db (fun txn -> Btree.delete tree txn ~value ~rid:r)))
    in
    let marks =
      List.filter_map
        (fun r ->
          if r.Logrec.kind = Logrec.Update && r.Logrec.rm_id = Ixlog.rm_id then
            match body_of_record r with
            | Ixlog.Delete_key { mark_delete_bit; _ } -> Some mark_delete_bit
            | _ -> None
          else None)
        (records_after db mark)
    in
    let tree_latched =
      List.exists
        (function
          | Trace.Latch_acquire { kind = Trace.Tree_latch; mode = Trace.S; _ } -> true | _ -> false)
        evs
    in
    (marks, tree_latched)
  in
  let enough = List.length on_leaf >= 4 in
  let mid_value, mid_rid = List.nth on_leaf (List.length on_leaf / 2) in
  let bound_value, bound_rid = List.hd on_leaf in
  (* non-boundary delete: Delete_Bit set, no tree latch *)
  let mid_marks, mid_latched = delete mid_value mid_rid in
  (* boundary (smallest on page): POSC = S tree latch held, bit NOT set *)
  let bound_marks, bound_latched = delete bound_value bound_rid in
  [
    check "leaf has >= 4 keys" enough;
    check "non-boundary delete marks the Delete_Bit" (mid_marks = [ true ]);
    check "no tree latch for a non-boundary delete" (not mid_latched);
    check "boundary delete under POSC leaves the bit clear" (bound_marks = [ false ]);
    check "boundary delete takes the S tree latch" bound_latched;
  ]

(* ------------------------------------------------------------------ *)
(* E8/E9 — Figures 8 and 9: the page-split log sequence. *)

let e9 () =
  let db, tree = fresh () in
  seed_keys db tree 0 9;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          let i = ref 10 in
          while List.length (Btree.leaf_pids tree) = 1 do
            Btree.insert tree txn ~value:(v !i) ~rid:(rid !i);
            incr i
          done));
  let ix_ops =
    List.filter_map
      (fun r ->
        if r.Logrec.rm_id = Ixlog.rm_id && r.Logrec.kind = Logrec.Update then
          Some (r, Ixlog.op_name r.Logrec.op)
        else if r.Logrec.kind = Logrec.Clr && r.Logrec.rm_id = 0 then Some (r, "dummy_clr")
        else None)
      (Logmgr.records_between db.Db.wal Lsn.nil Lsn.nil)
  in
  (* from the split's first record: everything up to the dummy CLR (the
     propagation), the dummy CLR itself and what follows it *)
  let rec split = function
    | ((first, "format_leaf") :: (_, "leaf_truncate") :: _ as rest) ->
        let rec upto acc = function
          | (dummy, "dummy_clr") :: after -> Some (first, List.rev acc, dummy, List.map snd after)
          | (_, n) :: tail -> upto (n :: acc) tail
          | [] -> None
        in
        upto [] rest
    | _ :: rest -> split rest
    | [] -> None
  in
  match split ix_ops with
  | None -> [ check "a split closed by a dummy CLR is in the log" false ]
  | Some (first, propagation, dummy, after) ->
      [
        check "a split closed by a dummy CLR is in the log" true;
        check "propagation posts to the parent level"
          (List.exists (fun n -> n = "format_nonleaf" || n = "nl_insert_child") propagation);
        check "the causing insert comes after the dummy CLR" (List.mem "insert_key" after);
        check "dummy CLR jumps over the whole SMO"
          (Lsn.( < ) dummy.Logrec.undo_nxt_lsn first.Logrec.lsn);
      ]

(* ------------------------------------------------------------------ *)
(* E10 — Figure 10: page-delete log sequence: key delete FIRST, then the
   SMO as an NTA whose dummy CLR points at the key-delete record. *)

let e10 () =
  let db, tree = fresh () in
  seed_keys db tree 0 199;
  let victim_leaf = List.nth (Btree.leaf_pids tree) 1 in
  let on_leaf =
    List.filter (fun (value, _) -> Btree.locate_leaf tree value = victim_leaf) (Btree.to_list tree)
  in
  let mark = Logmgr.last_lsn db.Db.wal in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          List.iter (fun (value, r) -> Btree.delete tree txn ~value ~rid:r) on_leaf));
  Btree.check_invariants tree;
  let recs = records_after db mark in
  let ix_update r = r.Logrec.kind = Logrec.Update && r.Logrec.rm_id = Ixlog.rm_id in
  (* the delete that emptied the page *)
  let key_delete =
    List.filter
      (fun r ->
        ix_update r && r.Logrec.page = victim_leaf
        && match body_of_record r with Ixlog.Delete_key _ -> true | _ -> false)
      recs
    |> List.rev |> List.hd
  in
  let after_delete = List.filter (fun r -> Lsn.( < ) key_delete.Logrec.lsn r.Logrec.lsn) recs in
  [
    check "SMO (unlink) follows the key delete"
      (List.exists
         (fun r ->
           ix_update r && match body_of_record r with Ixlog.Leaf_unlink _ -> true | _ -> false)
         after_delete);
    check "dummy CLR points exactly at the key-delete record"
      (match
         List.find_opt (fun r -> r.Logrec.kind = Logrec.Clr && r.Logrec.rm_id = 0) after_delete
       with
      | Some d -> d.Logrec.undo_nxt_lsn = key_delete.Logrec.lsn
      | None -> false);
    check "victim leaf left the chain" (not (List.mem victim_leaf (Btree.leaf_pids tree)));
  ]

(* ------------------------------------------------------------------ *)
(* E11 — Figure 11: the Delete_Bit forces a space-consuming insert to
   establish a POSC. With the bit, the consumer blocks while an SMO is
   incomplete; the earlier delete's restart undo stays page-oriented.
   With the ablation, the consumer slips into the region of structural
   inconsistency and the restart undo is forced to be logical.

   [extra] runs in the main fiber after T1 and T3 are spawned and gets the
   deleted key and the consumer's key. Returns the Db, the tree, whether
   the consumer was observed blocked, whether it committed, and the run's
   window. *)

let e11_scenario ?(locking = Protocol.Data_only) ?(extra = fun _ _ _ _ -> ()) ~delete_bit () =
  let cfg = { Btree.default_config with Btree.delete_bit_enabled = delete_bit; locking } in
  let db, tree = fresh ~config:cfg () in
  seed_keys db tree 0 199;
  let free_of pid = Bufpool.with_fix db.Db.pool pid (fun p -> Page.free_space p) in
  (* fill the leaf holding [base] until one more key of that size does not
     fit: T1's delete then frees exactly the room T2's insert consumes *)
  let base = "key00042" in
  let entry_len = String.length base + 3 in
  let cost = entry_len + 10 in
  let j = ref 0 in
  while free_of (Btree.locate_leaf tree base) >= cost do
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn ->
            Btree.insert tree txn ~value:(Printf.sprintf "%sf%02d" base !j) ~rid:(rid (300 + !j))));
    incr j
  done;
  let target_leaf = Btree.locate_leaf tree base in
  let on_leaf =
    List.filter
      (fun (value, _) -> Btree.locate_leaf tree value = target_leaf && String.length value = entry_len)
      (Btree.to_list tree)
  in
  let del_value, del_rid = List.nth on_leaf (List.length on_leaf / 2) in
  (* same length, unused, sorts into the same region *)
  let consumer_value = String.sub del_value 0 (entry_len - 1) ^ "z" in
  (* T3's SMO pauses forever: the run ends with T3 (and, if the bit works,
     T2) suspended — exactly the state a crash catches. *)
  let cv = Sched.Condvar.create "e11" in
  let paused = ref false in
  let t2_done = ref false in
  let observed_block = ref false in
  Btree.set_smo_pause db.Db.benv
    (Some
       (fun () ->
         if not !paused then begin
           paused := true;
           Logmgr.flush db.Db.wal;
           Sched.Condvar.wait cv (* never signalled: crash point *)
         end));
  let _, evs =
    observe (fun () ->
        Db.run db (fun () ->
            (* T3: start an SMO elsewhere in the tree and pause inside it *)
            ignore
              (Sched.spawn ~name:"T3-smo" (fun () ->
                   Db.with_txn db (fun txn ->
                       let i = ref 5000 in
                       while not !paused do
                         Btree.insert tree txn ~value:(v !i) ~rid:(rid !i);
                         incr i
                       done)));
            (* T1: delete during the ROSI; stays uncommitted at the crash *)
            ignore
              (Sched.spawn ~name:"T1-delete" (fun () ->
                   while not !paused do
                     Sched.yield ()
                   done;
                   let t1 = Txnmgr.begin_txn db.Db.mgr in
                   Btree.delete tree t1 ~value:del_value ~rid:del_rid;
                   Logmgr.flush db.Db.wal;
                   (* T2 fills the freed space; T1 never commits *)
                   ignore
                     (Sched.spawn ~name:"T2-consume" (fun () ->
                          let t2 = Txnmgr.begin_txn db.Db.mgr in
                          Btree.insert tree t2 ~value:consumer_value ~rid:(rid 77);
                          Txnmgr.commit db.Db.mgr t2;
                          t2_done := true));
                   ignore
                     (Sched.spawn ~name:"observer" (fun () ->
                          for _ = 1 to 20 do
                            Sched.yield ()
                          done;
                          observed_block := not !t2_done))));
            extra db tree del_value consumer_value))
  in
  Btree.set_smo_pause db.Db.benv None;
  (db, tree, !observed_block, !t2_done, evs)

(* crash out of the scenario, restart, and count the restart's undos *)
let crash_restart db tree =
  let db' = Db.crash db in
  let s = Stats.create () in
  let _report = Stats.with_sink s (fun () -> Db.run_exn db' (fun () -> Db.restart db')) in
  Btree.check_invariants (Btree.open_existing db'.Db.benv (Btree.index_id tree));
  Stats.get s Stats.logical_undos

let e11 () =
  let db, tree, blocked, t2_done, _ = e11_scenario ~delete_bit:true () in
  let logical = crash_restart db tree in
  [
    check "consumer blocked while the SMO was incomplete" blocked;
    check "consumer never committed inside the ROSI" (not t2_done);
    check "T1's restart undo stayed page-oriented" (logical = 0);
  ]

(* Our SMO compensation bodies are position-independent, so recovery
   still terminates consistently where a byte-image implementation would
   corrupt (see EXPERIMENTS.md). *)
let e11_ablation () =
  let db, tree, blocked, t2_done, _ = e11_scenario ~delete_bit:false () in
  let logical = crash_restart db tree in
  [
    check "ablation: consumer did NOT block" (not blocked);
    check "ablation: consumer committed inside the ROSI" t2_done;
    check "restart undo was forced logical (the Fig-11 hazard)" (logical > 0);
  ]

(* ------------------------------------------------------------------ *)
(* The adversarial schedules replayed under protocol #5 (Mvcc): the
   writers keep the full Figure-3 / Figure-11 discipline among
   themselves, but a concurrent snapshot reader sails through both
   windows — no key locks, no lock waits, no parking on the SMO (rule
   R9). *)

let mvcc_cfg = { Btree.default_config with Btree.locking = Protocol.Mvcc }

(* Lock_request / Lock_wait events of any txn in [readers] *)
let reader_lock_events readers evs =
  List.filter
    (function
      | Trace.Lock_request { txn; _ } | Trace.Lock_wait { txn; _ } -> Hashtbl.mem readers txn
      | _ -> false)
    evs

let snapshot_txn db readers =
  let txn = Txnmgr.begin_txn db.Db.mgr in
  Hashtbl.replace readers txn.Txnmgr.txn_id ();
  txn

let reader_checks readers evs =
  [
    check "the run was traced" (evs <> []);
    check "zero reader key-lock requests and waits (R9)" (reader_lock_events readers evs = []);
  ]

let e3_mvcc () =
  let db, tree = fresh ~config:mvcc_cfg () in
  seed_keys db tree 0 19;
  let readers = Hashtbl.create 4 in
  let found = ref false and saw = ref [] in
  (* R fetches and scans straight through the half-done split, while the
     locking writer T2 is stuck *)
  let reader () =
    let txn = snapshot_txn db readers in
    found := Btree.fetch tree txn (v 5) <> None;
    let c = Btree.open_scan tree txn "" in
    let rec go acc =
      match Btree.fetch_next tree txn c () with Some k -> go (k.Key.value :: acc) | None -> List.rev acc
    in
    saw := go [];
    Txnmgr.commit db.Db.mgr txn
  in
  let r, blocked, t2_inserted, reader_done, evs = smo_pause_schedule ~reader db tree in
  Btree.check_invariants tree;
  run_checks r
  @ [
      check "locking writer was blocked by the SMO" blocked;
      check "snapshot reader finished while the SMO was in flight" reader_done;
      check "snapshot fetch found a committed key mid-SMO" !found;
      check "locking writer completed after the SMO" t2_inserted;
      check "the scan saw exactly the committed keys" (!saw = List.init 20 v);
    ]
  @ reader_checks readers evs

(* The run deliberately ends mid-SMO (T3 is parked inside the split), so
   the physical tree is not consistent here; [e11] covers crashing out of
   this state and recovering. *)
let e11_mvcc () =
  let readers = Hashtbl.create 4 in
  let saw_deleted = ref false and saw_consumer = ref true in
  let reader_done = ref false in
  let extra db tree del_value consumer_value =
    ignore
      (Sched.spawn ~name:"R-snapshot" (fun () ->
           (* wait until T1's (uncommitted) delete has physically removed
              the key *)
           while List.exists (fun (value, _) -> String.equal value del_value) (Btree.to_list tree) do
             Sched.yield ()
           done;
           let txn = snapshot_txn db readers in
           saw_deleted := Btree.fetch tree txn del_value <> None;
           saw_consumer := Btree.fetch tree txn consumer_value <> None;
           Txnmgr.commit db.Db.mgr txn;
           reader_done := true))
  in
  let _, _, blocked, t2_done, evs =
    e11_scenario ~locking:Protocol.Mvcc ~extra ~delete_bit:true ()
  in
  [
    check "consumer blocked while the SMO was incomplete" blocked;
    check "consumer never committed inside the ROSI" (not t2_done);
    check "snapshot reader finished while both writers were stuck" !reader_done;
    check "the uncommitted delete is invisible: key still readable" !saw_deleted;
    check "the blocked consumer's key is invisible" (not !saw_consumer);
  ]
  @ reader_checks readers evs

(* ------------------------------------------------------------------ *)

(* The bench entries: id, title, and every check of the figure. *)
let all =
  [
    ("e1", "E1 (Figure 1): logical undo after an intervening page split", e1);
    ("e2", "E2 (Figure 2): the locking summary table, measured", e2);
    ("e3", "E3 (Figure 3): insert vs in-progress SMO", e3);
    ("e4", "E4 (Figure 4): traversal latch coupling", e4);
    ("e5", "E5 (Figure 5): fetch's conditional-lock / unlatch / wait dance", e5);
    ("e6", "E6 (Figure 6): insert whose next key is on the next leaf", e6);
    ("e7", "E7 (Figure 7): Delete_Bit and the boundary-key POSC rule", e7);
    ("e9", "E9 (Figures 8-9): page-split log record sequence", e9);
    ("e10", "E10 (Figure 10): page-delete log record sequence", e10);
    ( "e11",
      "E11 (Figure 11): the Delete_Bit protects the region of structural inconsistency",
      fun () -> e11 () @ e11_ablation () );
  ]
