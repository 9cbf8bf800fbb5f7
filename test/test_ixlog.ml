(* Index log bodies: codec roundtrips for every opcode, and the central
   page-oriented-undo property: applying a body and then its [undo_body]
   compensation restores the page exactly (what makes partial-SMO rollback
   sound, §3). Also the pure locking-protocol tables of Figure 2. *)

open Aries_util
module Key = Aries_page.Key
module Page = Aries_page.Page
module Ixlog = Aries_btree.Ixlog
module Apply = Aries_btree.Apply
module Protocol = Aries_btree.Protocol
module Lockmgr = Aries_lock.Lockmgr

let k v p s = Key.make v { Ids.rid_page = p; rid_slot = s }

let bodies : Ixlog.body list =
  [
    Ixlog.Insert_key { ix = 7; key = k "abc" 1 2; reset_sm = true; reset_delete = false };
    Ixlog.Delete_key { ix = 7; key = k "abc" 1 2; reset_sm = false; set_sm = true; mark_delete_bit = true };
    Ixlog.Format_leaf { keys = [ k "a" 1 0; k "b" 1 1 ]; prev = 3; next = 4; sm_bit = true };
    Ixlog.Leaf_truncate { removed = [ k "x" 2 0 ]; old_next = 9; new_next = 10 };
    Ixlog.Leaf_restore { add_keys = [ k "x" 2 0 ]; set_prev = Some 1; set_next = None };
    Ixlog.Leaf_relink { old_prev = 1; new_prev = 2; old_next = 3; new_next = 4 };
    Ixlog.Leaf_unlink { old_prev = 5; old_next = 6 };
    Ixlog.Format_nonleaf { level = 2; children = [ 4; 5; 6 ]; high_keys = [ k "m" 1 0; k "s" 1 1 ]; sm_bit = false };
    Ixlog.Nl_insert_child { child_idx = 1; sep_idx = 0; sep = k "q" 1 9; child = 42 };
    Ixlog.Nl_remove_child { child_idx = 1; child = 42; sep_idx = 0; sep = Some (k "q" 1 9); level = 2 };
    Ixlog.Nl_truncate { keep_children = 2; removed_children = [ 6 ]; removed_high_keys = [ k "s" 1 1 ] };
    Ixlog.Nl_restore { add_children = [ 6 ]; add_high_keys = [ k "s" 1 1 ] };
    Ixlog.Anchor_set { old_root = 2; new_root = 9; old_height = 1; new_height = 2 };
    Ixlog.Format_anchor { name = "ix"; unique = true; root = 2; height = 0 };
    Ixlog.Reset_bits { sm = true; delete = true };
  ]

let test_codec_roundtrip () =
  List.iter
    (fun body ->
      let op = Ixlog.op_of_body body in
      let body' = Ixlog.decode ~op (Ixlog.encode body) in
      Alcotest.(check bool) (Ixlog.op_name op) true (body = body'))
    bodies

let test_op_names_distinct () =
  let ops = List.map Ixlog.op_of_body bodies in
  Alcotest.(check int) "all opcodes distinct" (List.length ops)
    (List.length (List.sort_uniq compare ops))

(* ---------- apply/undo inverse property ---------- *)

let mk_leaf () =
  let page = Page.create ~psize:4096 ~pid:50 (Page.empty_leaf ()) in
  let l = Page.as_leaf page in
  List.iter (Vec.push l.Page.lf_keys) [ k "b" 1 1; k "d" 1 2; k "f" 1 3; k "h" 1 4 ];
  l.Page.lf_prev <- 49;
  l.Page.lf_next <- 51;
  page

let mk_nonleaf () =
  let page = Page.create ~psize:4096 ~pid:60 (Page.empty_nonleaf ~level:1) in
  let n = Page.as_nonleaf page in
  List.iter (Vec.push n.Page.nl_children) [ 70; 71; 72 ];
  List.iter (Vec.push n.Page.nl_high_keys) [ k "g" 1 0; k "p" 1 1 ];
  page

(* content equality modulo the SM bit (the compensation may legitimately
   clear a bit the forward action set, and vice versa; structure is what
   page-oriented undo must restore) *)
let same_structure a b =
  let norm p =
    let copy = Page.decode ~psize:p.Page.psize (Page.encode p) in
    (match copy.Page.content with
    | Page.Leaf l -> l.Page.lf_sm_bit <- false
    | Page.Nonleaf n -> n.Page.nl_sm_bit <- false
    | Page.Data _ | Page.Anchor _ -> ());
    copy.Page.page_lsn <- 0;
    Page.encode copy
  in
  Bytes.equal (norm a) (norm b)

let check_inverse mk body =
  let page = mk () in
  let before = Page.decode ~psize:page.Page.psize (Page.encode page) in
  Apply.apply page body;
  match Apply.undo_body body with
  | None -> Alcotest.failf "%s: expected an undo body" (Ixlog.op_name (Ixlog.op_of_body body))
  | Some comp ->
      Apply.apply page comp;
      Alcotest.(check bool)
        (Printf.sprintf "%s inverse" (Ixlog.op_name (Ixlog.op_of_body body)))
        true (same_structure page before)

let test_smo_undo_inverse () =
  check_inverse mk_leaf (Ixlog.Leaf_truncate { removed = [ k "f" 1 3; k "h" 1 4 ]; old_next = 51; new_next = 99 });
  check_inverse mk_leaf (Ixlog.Leaf_relink { old_prev = 49; new_prev = 80; old_next = 51; new_next = 81 });
  check_inverse mk_nonleaf (Ixlog.Nl_insert_child { child_idx = 1; sep_idx = 0; sep = k "e" 1 9; child = 90 });
  check_inverse mk_nonleaf
    (Ixlog.Nl_remove_child { child_idx = 1; child = 71; sep_idx = 0; sep = Some (k "g" 1 0); level = 1 });
  check_inverse mk_nonleaf
    (Ixlog.Nl_truncate { keep_children = 2; removed_children = [ 72 ]; removed_high_keys = [ k "p" 1 1 ] });
  let anchor = Page.create ~psize:4096 ~pid:1 (Page.empty_anchor ~name:"a" ~unique:false) in
  check_inverse (fun () -> anchor) (Ixlog.Anchor_set { old_root = 0; new_root = 5; old_height = 0; new_height = 1 })

let test_empty_leaf_unlink_inverse () =
  let page = Page.create ~psize:4096 ~pid:50 (Page.empty_leaf ()) in
  (Page.as_leaf page).Page.lf_prev <- 49;
  (Page.as_leaf page).Page.lf_next <- 51;
  check_inverse (fun () -> page) (Ixlog.Leaf_unlink { old_prev = 49; old_next = 51 })

let test_apply_shape_mismatch_detected () =
  let page = mk_leaf () in
  Alcotest.(check bool) "double insert rejected" true
    (match
       Apply.apply page (Ixlog.Insert_key { ix = 1; key = k "b" 1 1; reset_sm = false; reset_delete = false })
     with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "absent delete rejected" true
    (match
       Apply.apply page
         (Ixlog.Delete_key { ix = 1; key = k "zz" 9 9; reset_sm = false; set_sm = false; mark_delete_bit = false })
     with
    | () -> false
    | exception Invalid_argument _ -> true)

(* random structured bodies: codec roundtrip *)
let body_gen =
  QCheck.Gen.(
    let key_gen = map2 (fun v i -> k v (abs i mod 1000) (abs i mod 100)) string_small small_int in
    let keys_gen = list_size (int_bound 5) key_gen in
    oneof
      [
        map2
          (fun key b -> Ixlog.Insert_key { ix = 3; key; reset_sm = b; reset_delete = not b })
          key_gen bool;
        map2
          (fun key b ->
            Ixlog.Delete_key { ix = 3; key; reset_sm = b; set_sm = not b; mark_delete_bit = b })
          key_gen bool;
        map3
          (fun keys p n -> Ixlog.Format_leaf { keys; prev = abs p; next = abs n; sm_bit = true })
          keys_gen small_int small_int;
        map3
          (fun removed o n -> Ixlog.Leaf_truncate { removed; old_next = abs o; new_next = abs n })
          keys_gen small_int small_int;
        map
          (fun keys -> Ixlog.Leaf_restore { add_keys = keys; set_prev = None; set_next = Some 7 })
          keys_gen;
      ])

let qcheck_codec =
  QCheck.Test.make ~name:"random index bodies roundtrip" ~count:300
    (QCheck.make body_gen) (fun body ->
      let op = Ixlog.op_of_body body in
      Ixlog.decode ~op (Ixlog.encode body) = body)

(* ---------- the Figure-2 protocol tables as pure functions ---------- *)

let req_sig (r : Protocol.lock_req) = (r.Protocol.lk_mode, r.Protocol.lk_duration)

let sigs =
  Alcotest.(
    list
      (testable
         (fun ppf (m, d) ->
           Fmt.pf ppf "%s %s" (Lockspec.mode_to_string m) (Lockspec.duration_to_string d))
         ( = )))

let test_figure2_tables () =
  let open Lockmgr in
  let key = k "v" 1 1 in
  let next = Protocol.At (k "w" 1 2) in
  (* data-only *)
  Alcotest.check sigs "DO insert" [ (X, Instant) ]
    (List.map req_sig (Protocol.insert_locks Protocol.Data_only 1 ~unique:true ~key ~next ~value_exists:false));
  Alcotest.check sigs "DO delete" [ (X, Commit) ]
    (List.map req_sig (Protocol.delete_locks Protocol.Data_only 1 ~unique:true ~key ~next ~value_remains:false));
  Alcotest.check sigs "DO fetch" [ (S, Commit) ]
    (List.map req_sig (Protocol.fetch_locks Protocol.Data_only 1 ~current:(Protocol.At key)));
  (* index-specific: adds the current-key column of Figure 2 *)
  Alcotest.check sigs "IS insert" [ (X, Instant); (X, Commit) ]
    (List.map req_sig
       (Protocol.insert_locks Protocol.Index_specific 1 ~unique:true ~key ~next ~value_exists:false));
  Alcotest.check sigs "IS delete" [ (X, Commit); (X, Instant) ]
    (List.map req_sig
       (Protocol.delete_locks Protocol.Index_specific 1 ~unique:true ~key ~next ~value_remains:false));
  (* KVL nonunique duplicate insert degenerates to IX on the value *)
  Alcotest.check sigs "KVL dup insert" [ (IX, Commit) ]
    (List.map req_sig
       (Protocol.insert_locks Protocol.Kvl 1 ~unique:false ~key ~next ~value_exists:true));
  (* System R: commit duration everywhere *)
  Alcotest.check sigs "SysR insert" [ (X, Commit); (X, Commit) ]
    (List.map req_sig
       (Protocol.insert_locks Protocol.System_r 1 ~unique:true ~key ~next ~value_exists:false))

let test_lock_names_by_protocol () =
  let key = k "val" 3 7 in
  Alcotest.(check bool) "data-only name = RID" true
    (Protocol.key_name Protocol.Data_only 5 key = Lockmgr.Rid { Ids.rid_page = 3; rid_slot = 7 });
  Alcotest.(check bool) "index-specific name carries value AND rid" true
    (match Protocol.key_name Protocol.Index_specific 5 key with
    | Lockmgr.Key_value (5, s) -> String.equal s "val\x003.7"
    | _ -> false);
  Alcotest.(check bool) "KVL name = value only" true
    (Protocol.key_name Protocol.Kvl 5 key = Lockmgr.Key_value (5, "val"));
  Alcotest.(check bool) "EOF name" true
    (Protocol.target_name Protocol.Kvl 5 Protocol.Eof = Lockmgr.Eof 5)

let () =
  Alcotest.run "ixlog"
    [
      ( "codec",
        [
          Alcotest.test_case "all opcodes roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "opcodes distinct" `Quick test_op_names_distinct;
          QCheck_alcotest.to_alcotest qcheck_codec;
        ] );
      ( "apply",
        [
          Alcotest.test_case "SMO undo bodies are inverses" `Quick test_smo_undo_inverse;
          Alcotest.test_case "unlink inverse" `Quick test_empty_leaf_unlink_inverse;
          Alcotest.test_case "shape mismatches detected" `Quick test_apply_shape_mismatch_detected;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "Figure 2 lock tables" `Quick test_figure2_tables;
          Alcotest.test_case "lock names by protocol" `Quick test_lock_names_by_protocol;
        ] );
    ]
