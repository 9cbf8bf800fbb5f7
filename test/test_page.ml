(* Page model: codec roundtrips for every page kind, space accounting,
   bits, the simulated disk, image copies and corruption. *)

open Aries_util
module Key = Aries_page.Key
module Page = Aries_page.Page
module Disk = Aries_page.Disk

let k v p s = Key.make v { Ids.rid_page = p; rid_slot = s }

let roundtrip page =
  let b = Page.encode page in
  let page' = Page.decode ~psize:page.Page.psize b in
  Alcotest.(check bool) "roundtrip equal" true (Page.equal page page')

let test_leaf_roundtrip () =
  let page = Page.create ~psize:4096 ~pid:5 (Page.empty_leaf ()) in
  let l = Page.as_leaf page in
  l.Page.lf_prev <- 4;
  l.Page.lf_next <- 6;
  l.Page.lf_sm_bit <- true;
  l.Page.lf_delete_bit <- true;
  List.iter (Vec.push l.Page.lf_keys) [ k "alpha" 1 0; k "beta" 1 1; k "gamma" 2 7 ];
  page.Page.page_lsn <- 999;
  roundtrip page

let test_nonleaf_roundtrip () =
  let page = Page.create ~psize:4096 ~pid:9 (Page.empty_nonleaf ~level:2) in
  let n = Page.as_nonleaf page in
  List.iter (Vec.push n.Page.nl_children) [ 10; 11; 12 ];
  List.iter (Vec.push n.Page.nl_high_keys) [ k "m" 1 0; k "t" 1 5 ];
  n.Page.nl_sm_bit <- true;
  roundtrip page

let test_data_roundtrip () =
  let page = Page.create ~psize:4096 ~pid:3 (Page.empty_data ~owner:77) in
  let d = Page.as_data page in
  Vec.push d.Page.dt_slots (Some (Bytes.of_string "record one"));
  Vec.push d.Page.dt_slots None;
  Vec.push d.Page.dt_slots (Some (Bytes.of_string ""));
  roundtrip page;
  Alcotest.(check int) "owner preserved" 77
    (let b = Page.encode page in
     (Page.as_data (Page.decode ~psize:4096 b)).Page.dt_owner)

let test_anchor_roundtrip () =
  let page = Page.create ~psize:4096 ~pid:1 (Page.empty_anchor ~name:"ix.pk" ~unique:true) in
  let a = Page.as_anchor page in
  a.Page.an_root <- 12;
  a.Page.an_height <- 3;
  roundtrip page

let key_prop (v, p, s) =
  let key = k v (abs p) (abs s mod 65536) in
  let w = Bytebuf.W.create () in
  Key.encode w key;
  let r = Bytebuf.R.of_bytes (Bytebuf.W.contents w) in
  Key.equal (Key.decode r) key

let qcheck_key =
  QCheck.Test.make ~name:"key codec roundtrip" ~count:200
    QCheck.(triple string small_int small_int)
    key_prop

(* Random pages of every kind — leaf, nonleaf, data, anchor — with random
   bits, pointers, keys (arbitrary bytes in values), tombstoned slots and
   LSNs, through encode/decode. Deterministically seeded. *)
let gen_page : Page.t QCheck.Gen.t =
 fun st ->
  let int lo hi = QCheck.Gen.int_range lo hi st in
  let value () = QCheck.Gen.(string_size (int_range 0 20)) st in
  let bit () = int 0 1 = 1 in
  let key () = k (value ()) (int 0 1_000_000) (int 0 65_535) in
  let content =
    match int 0 3 with
    | 0 ->
        let c = Page.empty_leaf () in
        let l = match c with Page.Leaf l -> l | _ -> assert false in
        l.Page.lf_prev <- int 0 100_000;
        l.Page.lf_next <- int 0 100_000;
        l.Page.lf_sm_bit <- bit ();
        l.Page.lf_delete_bit <- bit ();
        for _ = 1 to int 0 24 do
          Vec.push l.Page.lf_keys (key ())
        done;
        c
    | 1 ->
        let c = Page.empty_nonleaf ~level:(int 1 6) in
        let n = match c with Page.Nonleaf n -> n | _ -> assert false in
        n.Page.nl_sm_bit <- bit ();
        let nchildren = int 1 16 in
        for _ = 1 to nchildren do
          Vec.push n.Page.nl_children (int 1 100_000)
        done;
        for _ = 1 to nchildren - 1 do
          Vec.push n.Page.nl_high_keys (key ())
        done;
        c
    | 2 ->
        let c = Page.empty_data ~owner:(int 0 10_000) in
        let d = match c with Page.Data d -> d | _ -> assert false in
        for _ = 1 to int 0 16 do
          Vec.push d.Page.dt_slots
            (if int 0 3 = 0 then None else Some (Bytes.of_string (value ())))
        done;
        c
    | _ ->
        let c = Page.empty_anchor ~name:(value ()) ~unique:(bit ()) in
        let a = match c with Page.Anchor a -> a | _ -> assert false in
        a.Page.an_root <- int 0 100_000;
        a.Page.an_height <- int 0 8;
        c
  in
  let page = Page.create ~psize:4096 ~pid:(int 1 1_000_000) content in
  page.Page.page_lsn <- int 0 1_000_000_000;
  page

(* Read one entry of each of the page's vectors, then edit each. Applied
   to a decoded page (entries built on demand) and to the generated one
   (built eagerly by [Vec.push]), the results must be equal. *)
let probe_then_edit page =
  let pick v = page.Page.pid mod (Vec.length v + 1) in
  let probe v = if Vec.length v > 0 then ignore (Vec.get v (pick v mod Vec.length v)) in
  let edit v x = Vec.insert v (pick v) x in
  match page.Page.content with
  | Page.Leaf l ->
      probe l.Page.lf_keys;
      edit l.Page.lf_keys (k "edited" 1 2)
  | Page.Nonleaf n ->
      probe n.Page.nl_high_keys;
      probe n.Page.nl_children;
      edit n.Page.nl_children 4242;
      edit n.Page.nl_high_keys (k "edited" 3 4)
  | Page.Data d ->
      probe d.Page.dt_slots;
      if Vec.length d.Page.dt_slots > 0 then ignore (Vec.remove d.Page.dt_slots 0);
      Vec.push d.Page.dt_slots (Some (Bytes.of_string "edited"))
  | Page.Anchor a -> a.Page.an_height <- a.Page.an_height + 1

(* Three cases per random page: the decoded page equals the original; a
   decoded page encoded untouched gives back its input byte for byte; and
   a decoded page edited after a partial read equals the eagerly built
   page given the same edits. *)
let page_codec_prop page =
  let b = Page.encode page in
  let decode () = Page.decode ~psize:page.Page.psize b in
  let equal = Page.equal page (decode ()) in
  let untouched = Bytes.equal b (Page.encode (decode ())) in
  let edited = decode () in
  probe_then_edit edited;
  probe_then_edit page;
  equal && untouched && Page.equal page edited

let qcheck_page =
  QCheck.Test.make ~name:"page codec roundtrip (random pages, all kinds)" ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" Page.pp) gen_page)
    page_codec_prop

let test_page_codec_property () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0xA51E5 |]) qcheck_page

let test_space_accounting () =
  let page = Page.create ~psize:256 ~pid:2 (Page.empty_leaf ()) in
  let l = Page.as_leaf page in
  let free0 = Page.free_space page in
  Alcotest.(check int) "empty page free" (256 - Page.header_bytes) free0;
  let key = k "0123456789" 1 1 in
  Vec.push l.Page.lf_keys key;
  Alcotest.(check int) "cost deducted" (free0 - Key.on_page_cost key) (Page.free_space page);
  Alcotest.(check int) "key cost = value + overhead" (10 + 10) (Key.on_page_cost key)

let test_kind_mismatch () =
  let page = Page.create ~psize:256 ~pid:2 (Page.empty_leaf ()) in
  Alcotest.(check bool) "as_data on leaf raises" true
    (match Page.as_data page with _ -> false | exception Invalid_argument _ -> true)

let test_sm_bits () =
  let leaf = Page.create ~psize:256 ~pid:2 (Page.empty_leaf ()) in
  let nl = Page.create ~psize:256 ~pid:3 (Page.empty_nonleaf ~level:1) in
  Page.set_sm_bit leaf true;
  Page.set_sm_bit nl true;
  Alcotest.(check bool) "leaf sm" true (Page.sm_bit leaf);
  Alcotest.(check bool) "nonleaf sm" true (Page.sm_bit nl);
  Page.set_delete_bit leaf true;
  Alcotest.(check bool) "delete bit" true (Page.delete_bit leaf);
  Alcotest.(check bool) "delete bit on nonleaf raises" true
    (match Page.delete_bit nl with _ -> false | exception Invalid_argument _ -> true)

(* ---------- disk ---------- *)

let test_disk_alloc_unique () =
  let d = Disk.create () in
  let a = Disk.alloc_pid d and b = Disk.alloc_pid d in
  Alcotest.(check bool) "pids distinct and positive" true (a <> b && a > 0 && b > 0);
  Disk.note_pid d 100;
  Alcotest.(check bool) "note_pid bumps allocator" true (Disk.alloc_pid d > 100)

let test_disk_write_read () =
  let d = Disk.create ~page_size:512 () in
  let pid = Disk.alloc_pid d in
  let page = Page.create ~psize:512 ~pid (Page.empty_leaf ()) in
  (Page.as_leaf page).Page.lf_next <- 42;
  page.Page.page_lsn <- 7;
  Disk.write d page;
  (match Disk.read d pid with
  | Some p ->
      Alcotest.(check bool) "read equals written" true (Page.equal p page);
      (* the returned page is a fresh deserialization, not an alias *)
      Alcotest.(check bool) "not an alias" true (p != page)
  | None -> Alcotest.fail "page lost");
  Alcotest.(check bool) "missing read" true (Disk.read d 9999 = None)

let test_disk_mutation_isolation () =
  (* mutating an in-memory page does not change the disk image *)
  let d = Disk.create () in
  let pid = Disk.alloc_pid d in
  let page = Page.create ~psize:4096 ~pid (Page.empty_leaf ()) in
  Disk.write d page;
  (Page.as_leaf page).Page.lf_next <- 55;
  match Disk.read d pid with
  | Some p -> Alcotest.(check int) "disk image unchanged" Ids.nil_page (Page.as_leaf p).Page.lf_next
  | None -> Alcotest.fail "page lost"

let test_image_copy_independent () =
  let d = Disk.create () in
  let pid = Disk.alloc_pid d in
  let page = Page.create ~psize:4096 ~pid (Page.empty_leaf ()) in
  Disk.write d page;
  let dump = Disk.image_copy d in
  Disk.corrupt_drop d pid;
  Alcotest.(check bool) "original lost" true (Disk.read d pid = None);
  Alcotest.(check bool) "copy intact" true (Disk.read dump pid <> None)

(* A damaged image must fail inside [Disk.read] with a typed decode error,
   even with a valid CRC over the damage, never later when an entry is
   built. [damage] edits the image's body; the CRC trailer is then
   recomputed so only the structural checks can catch it. *)
let expect_decode_error name page damage =
  let b = Page.encode page in
  damage b;
  let n = Bytes.length b in
  Bytes.set_int32_le b (n - 4) (Int32.of_int (Crc.bytes ~len:(n - 4) b));
  let d = Disk.create ~page_size:page.Page.psize () in
  Disk.write_image d page.Page.pid b;
  match Disk.read d page.Page.pid with
  | _ -> Alcotest.failf "%s: damaged image read without error" name
  | exception Storage_error.Error { cause = Storage_error.Decode; pid; _ } ->
      Alcotest.(check (option int)) (name ^ ": typed decode error names the page") (Some page.Page.pid) pid

(* body offsets in a v2 image: [0xA2][tag][pid i64][lsn i64]... *)
let leaf_first_key = 1 + 1 + 8 + 8 + 1 + 1 + 8 + 8 + 4

let data_first_slot = 1 + 1 + 8 + 8 + 8 + 4

let test_damaged_images_fail_on_read () =
  let leaf = Page.create ~psize:4096 ~pid:21 (Page.empty_leaf ()) in
  List.iter (Vec.push (Page.as_leaf leaf).Page.lf_keys) [ k "alpha" 1 0; k "beta" 1 1 ];
  let data = Page.create ~psize:4096 ~pid:22 (Page.empty_data ~owner:5) in
  List.iter (Vec.push (Page.as_data data).Page.dt_slots)
    [ Some (Bytes.of_string "row one"); None; Some (Bytes.of_string "row three") ];
  let second_key = leaf_first_key + 4 + 5 + 12 in
  expect_decode_error "leaf: first key length overruns" leaf (fun b ->
      Bytes.set_int32_le b leaf_first_key 5000l);
  expect_decode_error "leaf: last key length overruns" leaf (fun b ->
      Bytes.set_int32_le b second_key 20l);
  expect_decode_error "leaf: key count overruns" leaf (fun b ->
      Bytes.set_int32_le b (leaf_first_key - 4) 3l);
  expect_decode_error "data: slot length overruns" data (fun b ->
      Bytes.set_int32_le b (data_first_slot + 1) 4000l);
  (* the third slot's presence byte (after "row one" and a tombstone):
     2 would otherwise parse as present with a valid row behind it *)
  expect_decode_error "data: slot presence byte not 0/1" data (fun b ->
      Bytes.set b (data_first_slot + 1 + 4 + 7 + 1) '\002');
  expect_decode_error "data: slot count overruns" data (fun b ->
      Bytes.set_int32_le b (data_first_slot - 4) 0x7fffffffl);
  (* the undamaged images read back, and every entry builds *)
  let d = Disk.create () in
  List.iter
    (fun page ->
      Disk.write d page;
      match Disk.read d page.Page.pid with
      | Some p -> Alcotest.(check bool) "undamaged image reads back" true (Page.equal p page)
      | None -> Alcotest.fail "page lost")
    [ leaf; data ]

let () =
  Alcotest.run "page"
    [
      ( "codec",
        [
          Alcotest.test_case "leaf" `Quick test_leaf_roundtrip;
          Alcotest.test_case "nonleaf" `Quick test_nonleaf_roundtrip;
          Alcotest.test_case "data" `Quick test_data_roundtrip;
          Alcotest.test_case "anchor" `Quick test_anchor_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_key;
          Alcotest.test_case "random pages x1000 (seeded)" `Quick test_page_codec_property;
          Alcotest.test_case "damaged images fail on read" `Quick test_damaged_images_fail_on_read;
        ] );
      ( "model",
        [
          Alcotest.test_case "space accounting" `Quick test_space_accounting;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "sm/delete bits" `Quick test_sm_bits;
        ] );
      ( "disk",
        [
          Alcotest.test_case "alloc unique" `Quick test_disk_alloc_unique;
          Alcotest.test_case "write/read" `Quick test_disk_write_read;
          Alcotest.test_case "mutation isolation" `Quick test_disk_mutation_isolation;
          Alcotest.test_case "image copy independent" `Quick test_image_copy_independent;
        ] );
    ]
