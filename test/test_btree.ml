(* ARIES/IM B+-tree: functional behaviour, SMOs, invariants, model-based
   property tests. Small pages force frequent splits and page deletes. *)

open Aries_util
module Key = Aries_page.Key
module Btree = Aries_btree.Btree
module Protocol = Aries_btree.Protocol
module Txnmgr = Aries_txn.Txnmgr
module Db = Aries_db.Db

let rid i = { Ids.rid_page = 1000 + (i / 100); rid_slot = i mod 100 }

let fresh ?(page_size = 384) ?(unique = true) ?config () =
  let db = Db.create ~page_size ?config () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Btree.create db.Db.benv txn ~name:"t" ~unique))
  in
  (db, tree)

let insert_n db tree ?(start = 0) n =
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = start to start + n - 1 do
            Btree.insert tree txn ~value:(Printf.sprintf "key%05d" i) ~rid:(rid i)
          done))

let test_empty_fetch () =
  let db, tree = fresh () in
  let r = Db.run_exn db (fun () -> Db.with_txn db (fun txn -> Btree.fetch tree txn "nope")) in
  Alcotest.(check bool) "empty tree fetch" true (r = None);
  Btree.check_invariants tree

let test_insert_fetch () =
  let db, tree = fresh () in
  insert_n db tree 50;
  Btree.check_invariants tree;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 49 do
            let v = Printf.sprintf "key%05d" i in
            match Btree.fetch tree txn v with
            | Some k ->
                Alcotest.(check string) "value" v k.Key.value;
                Alcotest.(check int) "rid slot" (i mod 100) k.Key.rid.Ids.rid_slot
            | None -> Alcotest.failf "missing %s" v
          done;
          Alcotest.(check bool) "absent" true (Btree.fetch tree txn "zzz" = None)))

let test_split_growth () =
  let db, tree = fresh () in
  insert_n db tree 400;
  Btree.check_invariants tree;
  Alcotest.(check bool) "tree grew" true (Btree.height tree >= 1);
  Alcotest.(check int) "all keys" 400 (List.length (Btree.to_list tree));
  let sorted = List.map fst (Btree.to_list tree) in
  Alcotest.(check (list string)) "sorted" (List.sort compare sorted) sorted

let test_descending_inserts () =
  let db, tree = fresh () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 299 downto 0 do
            Btree.insert tree txn ~value:(Printf.sprintf "key%05d" i) ~rid:(rid i)
          done));
  Btree.check_invariants tree;
  Alcotest.(check int) "all keys" 300 (List.length (Btree.to_list tree))

let test_delete_and_page_delete () =
  let db, tree = fresh () in
  insert_n db tree 300;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 249 do
            Btree.delete tree txn ~value:(Printf.sprintf "key%05d" i) ~rid:(rid i)
          done));
  Btree.check_invariants tree;
  Alcotest.(check int) "remaining" 50 (List.length (Btree.to_list tree));
  (* delete the rest: the tree must collapse to an empty root *)
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 250 to 299 do
            Btree.delete tree txn ~value:(Printf.sprintf "key%05d" i) ~rid:(rid i)
          done));
  Btree.check_invariants tree;
  Alcotest.(check int) "empty" 0 (List.length (Btree.to_list tree))

let test_unique_violation () =
  let db, tree = fresh () in
  insert_n db tree 5;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          match Btree.insert tree txn ~value:"key00003" ~rid:(rid 999) with
          | () -> Alcotest.fail "expected Unique_violation"
          | exception Btree.Unique_violation _ -> ()))

let test_nonunique_duplicates () =
  let db, tree = fresh ~unique:false () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 199 do
            Btree.insert tree txn ~value:(Printf.sprintf "dup%02d" (i mod 10)) ~rid:(rid i)
          done));
  Btree.check_invariants tree;
  Alcotest.(check int) "all dups stored" 200 (List.length (Btree.to_list tree));
  (* scan one value: 20 rids *)
  let n =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn ->
            let c = Btree.open_scan tree txn ~comparison:`Ge "dup05" in
            let rec go acc =
              match Btree.fetch_next tree txn c ~stop:("dup05", `Le) () with
              | Some _ -> go (acc + 1)
              | None -> acc
            in
            go 0))
  in
  Alcotest.(check int) "20 rids under dup05" 20 n

let test_scan_range () =
  let db, tree = fresh () in
  insert_n db tree 100;
  let keys =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn ->
            let c = Btree.open_scan tree txn ~comparison:`Ge "key00010" in
            let rec go acc =
              match Btree.fetch_next tree txn c ~stop:("key00019", `Le) () with
              | Some k -> go (k.Key.value :: acc)
              | None -> List.rev acc
            in
            go []))
  in
  Alcotest.(check int) "10 keys in range" 10 (List.length keys)

let test_fetch_ge_gt () =
  let db, tree = fresh () in
  insert_n db tree 20;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          (match Btree.fetch tree txn ~comparison:`Ge "key00005" with
          | Some k -> Alcotest.(check string) "ge exact" "key00005" k.Key.value
          | None -> Alcotest.fail "ge");
          (match Btree.fetch tree txn ~comparison:`Gt "key00005" with
          | Some k -> Alcotest.(check string) "gt next" "key00006" k.Key.value
          | None -> Alcotest.fail "gt");
          match Btree.fetch tree txn ~comparison:`Ge "key00005a" with
          | Some k -> Alcotest.(check string) "ge between" "key00006" k.Key.value
          | None -> Alcotest.fail "ge between"))

let test_rollback_inserts () =
  let db, tree = fresh () in
  insert_n db tree 50;
  Db.run_exn db (fun () ->
      let txn = Txnmgr.begin_txn db.Db.mgr in
      for i = 50 to 120 do
        Btree.insert tree txn ~value:(Printf.sprintf "key%05d" i) ~rid:(rid i)
      done;
      Txnmgr.rollback db.Db.mgr txn);
  Btree.check_invariants tree;
  Alcotest.(check int) "rollback removed inserts" 50 (List.length (Btree.to_list tree))

let test_rollback_deletes () =
  let db, tree = fresh () in
  insert_n db tree 200;
  Db.run_exn db (fun () ->
      let txn = Txnmgr.begin_txn db.Db.mgr in
      for i = 30 to 180 do
        Btree.delete tree txn ~value:(Printf.sprintf "key%05d" i) ~rid:(rid i)
      done;
      Txnmgr.rollback db.Db.mgr txn);
  Btree.check_invariants tree;
  Alcotest.(check int) "rollback restored deletes" 200 (List.length (Btree.to_list tree))

let test_rollback_mixed_after_splits () =
  (* inserts that caused splits must roll back without undoing the splits;
     other keys must survive *)
  let db, tree = fresh ~page_size:320 () in
  insert_n db tree 60;
  Db.run_exn db (fun () ->
      let txn = Txnmgr.begin_txn db.Db.mgr in
      for i = 60 to 200 do
        Btree.insert tree txn ~value:(Printf.sprintf "key%05d" i) ~rid:(rid i)
      done;
      for i = 0 to 29 do
        Btree.delete tree txn ~value:(Printf.sprintf "key%05d" i) ~rid:(rid i)
      done;
      Txnmgr.rollback db.Db.mgr txn);
  Btree.check_invariants tree;
  let vals = List.map fst (Btree.to_list tree) in
  Alcotest.(check int) "back to 60" 60 (List.length vals);
  Alcotest.(check string) "first restored" "key00000" (List.hd vals)

let test_savepoint_partial_rollback () =
  let db, tree = fresh () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 19 do
            Btree.insert tree txn ~value:(Printf.sprintf "key%05d" i) ~rid:(rid i)
          done;
          let sp = Txnmgr.savepoint txn in
          for i = 20 to 39 do
            Btree.insert tree txn ~value:(Printf.sprintf "key%05d" i) ~rid:(rid i)
          done;
          Txnmgr.rollback_to db.Db.mgr txn sp));
  Btree.check_invariants tree;
  Alcotest.(check int) "partial rollback" 20 (List.length (Btree.to_list tree))

(* ---------- Fetch Next repositioning (§2.3) ---------- *)

let test_cursor_survives_own_delete () =
  (* "The current key may not be in the index anymore due to a key deletion
     earlier by the same transaction": the cursor repositions via search *)
  let db, tree = fresh () in
  insert_n db tree 20;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          let c = Btree.open_scan tree txn ~comparison:`Ge "key00005" in
          (match Btree.fetch_next tree txn c () with
          | Some k -> Alcotest.(check string) "positioned" "key00005" k.Key.value
          | None -> Alcotest.fail "empty scan");
          (* delete the key under the cursor, same transaction *)
          Btree.delete tree txn ~value:"key00006" ~rid:(rid 6);
          (match Btree.fetch_next tree txn c () with
          | Some k -> Alcotest.(check string) "skips own deletion" "key00007" k.Key.value
          | None -> Alcotest.fail "lost position");
          (* delete the CURRENT key too: reposition by search *)
          Btree.delete tree txn ~value:"key00007" ~rid:(rid 7);
          match Btree.fetch_next tree txn c () with
          | Some k -> Alcotest.(check string) "repositions" "key00008" k.Key.value
          | None -> Alcotest.fail "lost position after current-key delete"))

let test_cursor_survives_splits () =
  (* the remembered leaf LSN changes under the cursor (same-txn inserts
     cause splits); fetch_next must reposition, not skip or repeat *)
  let db, tree = fresh ~page_size:320 () in
  insert_n db tree 30;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          let c = Btree.open_scan tree txn ~comparison:`Ge "" in
          let seen = ref [] in
          let rec go n =
            match Btree.fetch_next tree txn c () with
            | Some k ->
                seen := k.Key.value :: !seen;
                (* grow the tree mid-scan *)
                if n = 5 then
                  for i = 100 to 160 do
                    Btree.insert tree txn ~value:(Printf.sprintf "key%05d" i) ~rid:(rid i)
                  done;
                go (n + 1)
            | None -> ()
          in
          go 0;
          let seen = List.rev !seen in
          Alcotest.(check bool) "saw the original upper keys exactly once" true
            (List.length (List.filter (fun v -> v >= "key00006" && v <= "key00029") seen) = 24);
          let sorted = List.sort_uniq compare seen in
          Alcotest.(check int) "no duplicates in scan" (List.length seen) (List.length sorted)))

let test_scan_empty_range () =
  let db, tree = fresh () in
  insert_n db tree 10;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          let c = Btree.open_scan tree txn ~comparison:`Gt "key00009" in
          Alcotest.(check bool) "empty tail" true (Btree.fetch_next tree txn c () = None);
          (* a second call after exhaustion stays None *)
          Alcotest.(check bool) "stays exhausted" true (Btree.fetch_next tree txn c () = None)))

(* ---------- model-based property test ---------- *)

module SM = Map.Make (String)

let model_prop seed =
  let rng = Rng.create seed in
  let db, tree = fresh ~page_size:320 () in
  let model = ref SM.empty in
  Db.run_exn db (fun () ->
      for _ = 1 to 400 do
        Db.with_txn db (fun txn ->
            for _ = 1 to 5 do
              let i = Rng.int rng 120 in
              let v = Printf.sprintf "k%04d" i in
              if Rng.bool rng then begin
                if not (SM.mem v !model) then begin
                  Btree.insert tree txn ~value:v ~rid:(rid i);
                  model := SM.add v (rid i) !model
                end
              end
              else if SM.mem v !model then begin
                Btree.delete tree txn ~value:v ~rid:(SM.find v !model);
                model := SM.remove v !model
              end
            done)
      done);
  Btree.check_invariants tree;
  let actual = List.map fst (Btree.to_list tree) in
  let expected = List.map fst (SM.bindings !model) in
  actual = expected

let qcheck_model =
  QCheck.Test.make ~name:"btree matches sorted-map model under random committed ops" ~count:12
    QCheck.small_int model_prop

(* rollback version: every txn rolls back, tree must equal the pre state *)
let model_rollback_prop seed =
  let rng = Rng.create seed in
  let db, tree = fresh ~page_size:320 ~unique:false () in
  insert_n db tree 80;
  let before = Btree.to_list tree in
  Db.run_exn db (fun () ->
      for _ = 1 to 30 do
        let txn = Txnmgr.begin_txn db.Db.mgr in
        for _ = 1 to 15 do
          let i = Rng.int rng 2000 + 500 in
          let v = Printf.sprintf "key%05d" i in
          try Btree.insert tree txn ~value:v ~rid:(rid i)
          with Btree.Unique_violation _ -> ()
        done;
        Txnmgr.rollback db.Db.mgr txn
      done);
  Btree.check_invariants tree;
  Btree.to_list tree = before

let qcheck_rollback =
  QCheck.Test.make ~name:"rolled-back transactions leave no trace" ~count:8 QCheck.small_int
    model_rollback_prop

(* ---------- reads checked against a model, with shrinking ---------- *)

(* A generated op list runs in one fiber, one transaction at a time; every
   read is compared with a map model as it is made. Keys are padded so a
   320-byte page holds about six: short lists already split and delete
   pages. A probe is key [i], or just above it when [between]. *)

type probe = { p_key : int; p_between : bool }

type op =
  | Ins of int
  | Del of int
  | Fetch of [ `Eq | `Ge | `Gt ] * probe * [ `Rr | `Cs ]
  | Scan of [ `Ge | `Gt ] * probe * [ `Le | `Lt ] * probe * [ `Rr | `Cs ]
  | Commit
  | Rollback

let model_key i = Printf.sprintf "k%02d%s" i (String.make 27 '.')

let probe_value p = model_key p.p_key ^ if p.p_between then "~" else ""

let show_probe p = string_of_int p.p_key ^ if p.p_between then "+" else ""

let show_iso = function `Rr -> "rr" | `Cs -> "cs"

let show_op = function
  | Ins i -> Printf.sprintf "ins %d" i
  | Del i -> Printf.sprintf "del %d" i
  | Fetch (c, p, iso) ->
      Printf.sprintf "fetch %s %s %s"
        (match c with `Eq -> "eq" | `Ge -> "ge" | `Gt -> "gt")
        (show_probe p) (show_iso iso)
  | Scan (c, p, s, q, iso) ->
      Printf.sprintf "scan %s %s %s %s %s"
        (match c with `Ge -> "ge" | `Gt -> "gt")
        (show_probe p)
        (match s with `Le -> "le" | `Lt -> "lt")
        (show_probe q) (show_iso iso)
  | Commit -> "commit"
  | Rollback -> "rollback"

let gen_op =
  let open QCheck.Gen in
  let key = int_bound 39 in
  let probe = map2 (fun p_key p_between -> { p_key; p_between }) (int_bound 41) bool in
  let iso = oneofl [ `Rr; `Cs ] in
  frequency
    [
      (5, map (fun i -> Ins i) key);
      (3, map (fun i -> Del i) key);
      (3, map3 (fun c p iso -> Fetch (c, p, iso)) (oneofl [ `Eq; `Ge; `Gt ]) probe iso);
      ( 2,
        map3
          (fun (c, p) (s, q) iso -> Scan (c, p, s, q, iso))
          (pair (oneofl [ `Ge; `Gt ]) probe)
          (pair (oneofl [ `Le; `Lt ]) probe)
          iso );
      (1, return Commit);
      (1, return Rollback);
    ]

let arb_ops =
  QCheck.list_of_size
    QCheck.Gen.(int_range 1 150)
    (QCheck.make ~print:show_op gen_op)

let read_model_prop locking ops =
  let config = { Btree.default_config with Btree.locking } in
  let db, tree = fresh ~page_size:320 ~config () in
  let committed = ref SM.empty and current = ref SM.empty in
  let txn = ref None in
  let cur () =
    match !txn with
    | Some t -> t
    | None ->
        let t = Txnmgr.begin_txn db.Db.mgr in
        txn := Some t;
        t
  in
  let pair k = (k.Key.value, k.Key.rid) in
  let expect op actual expected =
    let show keys = String.concat "," (List.map fst keys) in
    if actual <> expected then
      QCheck.Test.fail_reportf "%s: got [%s], model says [%s]" (show_op op) (show actual)
        (show expected)
  in
  let applied op ok ~expected =
    let show ok = if ok then "applied" else "refused" in
    if ok <> expected then
      QCheck.Test.fail_reportf "%s: %s, model says %s" (show_op op) (show ok) (show expected)
  in
  Db.run_exn db (fun () ->
      List.iter
        (fun op ->
          match op with
          | Ins i ->
              let v = model_key i in
              let ok =
                match Btree.insert tree (cur ()) ~value:v ~rid:(rid i) with
                | () -> true
                | exception Btree.Unique_violation _ -> false
              in
              applied op ok ~expected:(not (SM.mem v !current));
              current := SM.add v (rid i) !current
          | Del i ->
              let v = model_key i in
              let ok =
                match Btree.delete tree (cur ()) ~value:v ~rid:(rid i) with
                | () -> true
                | exception Btree.Key_not_found _ -> false
              in
              applied op ok ~expected:(SM.mem v !current);
              current := SM.remove v !current
          | Fetch (c, p, isolation) ->
              let pv = probe_value p in
              let after ok = SM.find_first_opt (fun v -> ok (String.compare v pv)) !current in
              let expected =
                match c with
                | `Eq -> Option.map (fun r -> (pv, r)) (SM.find_opt pv !current)
                | `Ge -> after (fun d -> d >= 0)
                | `Gt -> after (fun d -> d > 0)
              in
              expect op
                (Option.to_list
                   (Option.map pair (Btree.fetch tree (cur ()) ~comparison:c ~isolation pv)))
                (Option.to_list expected)
          | Scan (c, p, s, q, isolation) ->
              let t = cur () in
              let pv = probe_value p and qv = probe_value q in
              let cursor = Btree.open_scan tree t ~comparison:c ~isolation pv in
              let rec drain acc =
                match Btree.fetch_next tree t cursor ~stop:(qv, s) () with
                | Some k -> drain (pair k :: acc)
                | None -> List.rev acc
              in
              let in_range (v, _) =
                (match c with `Ge -> v >= pv | `Gt -> v > pv)
                && match s with `Le -> v <= qv | `Lt -> v < qv
              in
              expect op (drain []) (List.filter in_range (SM.bindings !current))
          | Commit ->
              Option.iter (Txnmgr.commit db.Db.mgr) !txn;
              txn := None;
              committed := !current
          | Rollback ->
              Option.iter (Txnmgr.rollback db.Db.mgr) !txn;
              txn := None;
              current := !committed)
        ops;
      Option.iter (Txnmgr.commit db.Db.mgr) !txn);
  Btree.check_invariants tree;
  Btree.to_list tree = SM.bindings !current

let qcheck_reads locking =
  QCheck.Test.make
    ~name:("reads match a map model, " ^ Protocol.locking_to_string locking)
    ~count:50 arb_ops (read_model_prop locking)

(* ---------- check_invariants rejects damaged trees ---------- *)

module Bufpool = Aries_buffer.Bufpool
module Page = Aries_page.Page

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let with_page db pid f =
  let page = Bufpool.fix db.Db.pool pid in
  Fun.protect ~finally:(fun () -> Bufpool.unfix db.Db.pool page) (fun () -> f page)

(* Each case damages one page of a small, valid two-level tree in the
   buffer pool (no log record, no latch) and expects the walk to fail
   with the matching description. *)
let test_invariants_reject () =
  let case name expect damage =
    let db, tree = fresh () in
    insert_n db tree 40;
    Btree.check_invariants tree;
    let leaves = Array.of_list (Btree.leaf_pids tree) in
    if Btree.height tree <> 1 || Array.length leaves < 3 then
      Alcotest.failf "%s: setup expects a two-level tree with 3+ leaves" name;
    damage db (Btree.root_pid tree) leaves;
    match Btree.check_invariants tree with
    | () -> Alcotest.failf "%s: damage not detected" name
    | exception Failure m ->
        if not (contains m expect) then Alcotest.failf "%s: failed with %S, wanted %S" name m expect
  in
  let leaf db pid f = with_page db pid (fun p -> f (Page.as_leaf p)) in
  case "leaf keys out of order" "keys out of order" (fun db _ leaves ->
      leaf db leaves.(1) (fun l ->
          let k0 = Vec.get l.Page.lf_keys 0 in
          Vec.set l.Page.lf_keys 0 (Vec.get l.Page.lf_keys 1);
          Vec.set l.Page.lf_keys 1 k0));
  case "key at or above its high key" "violates high key" (fun db _ leaves ->
      leaf db leaves.(0) (fun l ->
          Vec.set l.Page.lf_keys (Vec.length l.Page.lf_keys - 1) (Key.make "key99999" (rid 0))));
  case "asymmetric prev pointer" "prev pointer mismatch" (fun db _ leaves ->
      leaf db leaves.(2) (fun l -> l.Page.lf_prev <- leaves.(0)));
  case "reachable empty leaf with SM_Bit = 0" "reachable empty leaf" (fun db _ leaves ->
      leaf db leaves.(1) (fun l ->
          Vec.clear l.Page.lf_keys;
          l.Page.lf_sm_bit <- false));
  case "nonleaf arity mismatch" "arity" (fun db root _ ->
      with_page db root (fun p -> ignore (Vec.remove (Page.as_nonleaf p).Page.nl_high_keys 0)))

let () =
  Alcotest.run "btree"
    [
      ( "basic",
        [
          Alcotest.test_case "empty fetch" `Quick test_empty_fetch;
          Alcotest.test_case "insert+fetch" `Quick test_insert_fetch;
          Alcotest.test_case "splits" `Quick test_split_growth;
          Alcotest.test_case "descending inserts" `Quick test_descending_inserts;
          Alcotest.test_case "deletes + page deletes" `Quick test_delete_and_page_delete;
          Alcotest.test_case "unique violation" `Quick test_unique_violation;
          Alcotest.test_case "nonunique duplicates" `Quick test_nonunique_duplicates;
          Alcotest.test_case "range scan" `Quick test_scan_range;
          Alcotest.test_case "fetch ge/gt" `Quick test_fetch_ge_gt;
        ] );
      ( "cursors",
        [
          Alcotest.test_case "repositioning after own deletes" `Quick
            test_cursor_survives_own_delete;
          Alcotest.test_case "repositioning across splits" `Quick test_cursor_survives_splits;
          Alcotest.test_case "empty range" `Quick test_scan_empty_range;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "inserts" `Quick test_rollback_inserts;
          Alcotest.test_case "deletes" `Quick test_rollback_deletes;
          Alcotest.test_case "mixed after splits" `Quick test_rollback_mixed_after_splits;
          Alcotest.test_case "savepoint" `Quick test_savepoint_partial_rollback;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest qcheck_model; QCheck_alcotest.to_alcotest qcheck_rollback ]
        @ List.map
            (fun locking -> QCheck_alcotest.to_alcotest (qcheck_reads locking))
            [
              Protocol.Data_only; Protocol.Index_specific; Protocol.Kvl; Protocol.System_r;
              Protocol.Mvcc;
            ] );
      ( "damage",
        [ Alcotest.test_case "check_invariants rejects damage" `Quick test_invariants_reject ] );
    ]
