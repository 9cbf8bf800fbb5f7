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

(* ---------- body codecs at the varint boundaries ---------- *)

module Reclog = Aries_db.Reclog
module Lockcodec = Aries_txn.Lockcodec
module Twopc = Aries_shard.Twopc

let boundaries = [| 0; 127; 128; 16383; 16384; max_int |]

(* Values of 0, 127 and 128 bytes put the length varint at its own
   boundary; the empty one is the empty key value or mid. *)
let strings = [| ""; String.make 127 'v'; String.make 128 'w' |]

(* A body codec's contract: the encoding is exactly [size] bytes, decodes
   back to the value, every proper prefix and one trailing byte more are
   [Corrupt]. *)
let check_codec what ~size ~encode ~decode v =
  let b = encode v in
  Alcotest.(check int) (what ^ ": size is the encoded length") (Bytes.length b) (size v);
  Alcotest.(check bool) (what ^ ": round trip") true (decode b = v);
  let corrupt b =
    match decode b with
    | _ -> false
    | exception Bytebuf.Corrupt _ -> true
  in
  for n = 0 to Bytes.length b - 1 do
    if not (corrupt (Bytes.sub b 0 n)) then
      Alcotest.failf "%s: the %d-byte prefix of %d decodes" what n (Bytes.length b)
  done;
  Alcotest.(check bool) (what ^ ": a trailing byte is Corrupt") true (corrupt (Bytes.cat b (Bytes.make 1 '\x00')))

let seeded_bodies gen =
  let st = Random.State.make [| 0xB0D1E5 |] in
  let int () = boundaries.(Random.State.int st (Array.length boundaries)) in
  let str () = strings.(Random.State.int st (Array.length strings)) in
  let bool () = Random.State.bool st in
  List.init 300 (fun _ -> gen ~int ~str ~bool)

let gen_ixlog ~int ~str ~bool =
  let key () = k (str ()) (int ()) (int ()) in
  let keys () = List.init (Random.State.int (Random.State.make [| int () |]) 3) (fun _ -> key ()) in
  let pid_opt () = if bool () then Some (int ()) else None in
  match 1 + (int () mod 15) with
  | 1 -> Ixlog.Insert_key { ix = int (); key = key (); reset_sm = bool (); reset_delete = bool () }
  | 2 ->
      Ixlog.Delete_key
        { ix = int (); key = key (); reset_sm = bool (); set_sm = bool (); mark_delete_bit = bool () }
  | 3 -> Ixlog.Format_leaf { keys = keys (); prev = int (); next = int (); sm_bit = bool () }
  | 4 -> Ixlog.Leaf_truncate { removed = keys (); old_next = int (); new_next = int () }
  | 5 -> Ixlog.Leaf_restore { add_keys = keys (); set_prev = pid_opt (); set_next = pid_opt () }
  | 6 -> Ixlog.Leaf_relink { old_prev = int (); new_prev = int (); old_next = int (); new_next = int () }
  | 7 -> Ixlog.Leaf_unlink { old_prev = int (); old_next = int () }
  | 8 ->
      Ixlog.Format_nonleaf
        { level = int (); children = [ int (); int () ]; high_keys = keys (); sm_bit = bool () }
  | 9 -> Ixlog.Nl_insert_child { child_idx = int (); sep_idx = int (); sep = key (); child = int () }
  | 10 ->
      Ixlog.Nl_remove_child
        {
          child_idx = int ();
          child = int ();
          sep_idx = int ();
          sep = (if bool () then Some (key ()) else None);
          level = int ();
        }
  | 11 -> Ixlog.Anchor_set { old_root = int (); new_root = int (); old_height = int (); new_height = int () }
  | 12 -> Ixlog.Format_anchor { name = str (); unique = bool (); root = int (); height = int () }
  | 13 -> Ixlog.Reset_bits { sm = bool (); delete = bool () }
  | 14 ->
      Ixlog.Nl_truncate
        { keep_children = int (); removed_children = [ int () ]; removed_high_keys = keys () }
  | _ -> Ixlog.Nl_restore { add_children = [ int (); int (); int () ]; add_high_keys = keys () }

let test_ixlog_boundaries () =
  let bodies = bodies @ seeded_bodies gen_ixlog in
  List.iter
    (fun body ->
      let op = Ixlog.op_of_body body in
      check_codec (Ixlog.op_name op) ~size:Ixlog.enc.Bytebuf.size ~encode:Ixlog.encode
        ~decode:(Ixlog.decode ~op) body)
    bodies;
  Alcotest.(check (list int)) "every opcode drawn" (List.init 15 (fun i -> i + 1))
    (List.sort_uniq compare (List.map Ixlog.op_of_body bodies));
  List.iter
    (fun (what, body) ->
      Alcotest.(check bool) (what ^ " is refused before anything is written") true
        (match Ixlog.enc.Bytebuf.size body with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("a negative index id", Ixlog.Insert_key { ix = -1; key = k "a" 1 1; reset_sm = false; reset_delete = false });
      ("a negative rid slot", Ixlog.Insert_key { ix = 1; key = k "a" 1 (-1); reset_sm = false; reset_delete = false });
      ("a negative page", Ixlog.Leaf_unlink { old_prev = -5; old_next = 1 });
    ];
  List.iter
    (fun (what, op, b) ->
      Alcotest.(check bool) (what ^ " is Corrupt") true
        (match Ixlog.decode ~op (Bytes.of_string b) with
        | _ -> false
        | exception Bytebuf.Corrupt _ -> true))
    [
      ("an unknown flag bit", 13, "\x04");
      ("an over-long varint", 7, "\x81\x00\x01");
      ("an unknown op", 16, "");
    ]

let gen_reclog ~int ~str ~bool =
  let rid () = { Ids.rid_page = int (); rid_slot = int () } in
  let data () = Bytes.of_string (str ()) in
  match int () mod 4 with
  | 0 -> Reclog.Rec_insert { rid = rid (); data = data () }
  | 1 -> Reclog.Rec_delete { rid = rid (); data = (if bool () then Bytes.empty else data ()) }
  | 2 -> Reclog.Rec_update { rid = rid (); pre = int (); suf = int (); old_mid = data (); new_mid = data () }
  | _ -> Reclog.Format_data { owner = int () }

let test_reclog_boundaries () =
  let rid = { Ids.rid_page = 3; rid_slot = 4 } in
  let bodies =
    [
      Reclog.Rec_update { rid; pre = 0; suf = 0; old_mid = Bytes.empty; new_mid = Bytes.empty };
      Reclog.Rec_delete { rid; data = Bytes.empty };
    ]
    @ seeded_bodies gen_reclog
  in
  List.iter
    (fun body ->
      let op = Reclog.op_of_body body in
      check_codec (Reclog.op_name op) ~size:Reclog.enc.Bytebuf.size ~encode:Reclog.encode
        ~decode:(Reclog.decode ~op) body)
    bodies;
  Alcotest.(check (list int)) "every opcode drawn" [ 1; 2; 3; 4 ]
    (List.sort_uniq compare (List.map Reclog.op_of_body bodies));
  Alcotest.(check bool) "a negative pre is refused" true
    (match
       Reclog.enc.Bytebuf.size
         (Reclog.Rec_update { rid; pre = -1; suf = 0; old_mid = Bytes.empty; new_mid = Bytes.empty })
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The trimmed update: the shared ends are kept, the mids swapped, and a
   slot too short for the kept ends is refused. *)
let test_reclog_trim () =
  let rid = { Ids.rid_page = 3; rid_slot = 4 } in
  List.iter
    (fun (old_s, new_s, pre, suf) ->
      let old_data = Bytes.of_string old_s and new_data = Bytes.of_string new_s in
      match Reclog.update rid ~old_data ~new_data with
      | Reclog.Rec_update { pre = p; suf = q; old_mid; new_mid; _ } ->
          Alcotest.(check (pair int int)) (Printf.sprintf "%S -> %S" old_s new_s) (pre, suf) (p, q);
          Alcotest.(check string) "redo rebuilds the new image" new_s
            (Bytes.to_string (Reclog.patch rid old_data ~pre:p ~suf:q ~mid:new_mid));
          Alcotest.(check string) "undo rebuilds the old image" old_s
            (Bytes.to_string (Reclog.patch rid new_data ~pre:p ~suf:q ~mid:old_mid))
      | _ -> Alcotest.fail "not an update")
    [
      ("abcdef", "abcdef", 6, 0);
      ("abcdef", "abXdef", 2, 3);
      ("abcdef", "abcdefgh", 6, 0);
      ("abcdefgh", "abcdef", 6, 0);
      ("xbcdef", "ybcdef", 0, 5);
      ("abcdex", "abcdey", 5, 0);
      ("aaaa", "aa", 2, 0);
      ("", "abc", 0, 0);
      ("abc", "", 0, 0);
    ];
  Alcotest.(check bool) "a slot shorter than pre + suf is refused" true
    (match Reclog.patch rid (Bytes.of_string "abc") ~pre:2 ~suf:2 ~mid:Bytes.empty with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_lockcodec_boundaries () =
  let st = Random.State.make [| 0x10C5 |] in
  let int () = boundaries.(Random.State.int st (Array.length boundaries)) in
  let modes = [| Lockmgr.IS; Lockmgr.IX; Lockmgr.S; Lockmgr.SIX; Lockmgr.X |] in
  let lock () =
    let name : Lockmgr.name =
      match Random.State.int st 6 with
      | 0 -> Lockmgr.Rid { Ids.rid_page = int (); rid_slot = int () }
      | 1 -> Lockmgr.Key_value (int (), strings.(Random.State.int st 3))
      | 2 -> Lockmgr.Eof (int ())
      | 3 -> Lockmgr.Table (int ())
      | 4 -> Lockmgr.Page_lock (int ())
      | _ -> Lockmgr.Tree_lock (int ())
    in
    (name, modes.(Random.State.int st 5))
  in
  List.iter
    (fun n ->
      let locks = List.init n (fun _ -> lock ()) in
      check_codec "lock list" ~size:(fun l -> Bytes.length (Lockcodec.encode_list l))
        ~encode:Lockcodec.encode_list ~decode:Lockcodec.decode_list locks)
    (List.init 60 (fun i -> i mod 7) @ [ 130 ]);
  Alcotest.(check bool) "a bad mode is Corrupt" true
    (match Lockcodec.decode_list (Bytes.of_string "\x01\x1f\x05") with
    | _ -> false
    | exception Bytebuf.Corrupt _ -> true)

let test_twopc_boundaries () =
  Array.iter
    (fun gid ->
      Array.iter
        (fun coord ->
          check_codec "prepare meta"
            ~size:(fun (gid, coord) -> Bytes.length (Twopc.encode_prepare_meta ~gid ~coord))
            ~encode:(fun (gid, coord) -> Twopc.encode_prepare_meta ~gid ~coord)
            ~decode:Twopc.decode_prepare_meta (gid, coord);
          check_codec "decision"
            ~size:(fun (gid, parts) -> Bytes.length (Twopc.encode_decision ~gid ~parts))
            ~encode:(fun (gid, parts) -> Twopc.encode_decision ~gid ~parts)
            ~decode:Twopc.decode_decision
            (gid, [ coord; 0; coord ]))
        boundaries;
      check_codec "end" ~size:(fun gid -> Bytes.length (Twopc.encode_end ~gid))
        ~encode:(fun gid -> Twopc.encode_end ~gid)
        ~decode:Twopc.decode_end gid)
    boundaries;
  Alcotest.(check bool) "a negative gid is refused" true
    (match Twopc.encode_end ~gid:(-1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "ixlog"
    [
      ( "codec",
        [
          Alcotest.test_case "all opcodes roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "opcodes distinct" `Quick test_op_names_distinct;
          QCheck_alcotest.to_alcotest qcheck_codec;
        ] );
      ( "bodies",
        [
          Alcotest.test_case "index bodies at varint boundaries" `Quick test_ixlog_boundaries;
          Alcotest.test_case "record bodies at varint boundaries" `Quick test_reclog_boundaries;
          Alcotest.test_case "trimmed update keeps the shared ends" `Quick test_reclog_trim;
          Alcotest.test_case "lock lists at varint boundaries" `Quick test_lockcodec_boundaries;
          Alcotest.test_case "2PC bodies at varint boundaries" `Quick test_twopc_boundaries;
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
