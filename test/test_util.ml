(* Unit tests for the utility substrate: Vec, Rng, Bytebuf, Crc, the fault
   switches (Crashpoint, Faultdisk), Stats. *)

open Aries_util

(* ---------- Vec ---------- *)

let test_vec_push_pop () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Alcotest.(check int) "pop" 99 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v)

let test_vec_insert_remove () =
  let v = Vec.of_list [ 1; 2; 4; 5 ] in
  Vec.insert v 2 3;
  Alcotest.(check (list int)) "insert middle" [ 1; 2; 3; 4; 5 ] (Vec.to_list v);
  Alcotest.(check int) "remove" 3 (Vec.remove v 2);
  Alcotest.(check (list int)) "after remove" [ 1; 2; 4; 5 ] (Vec.to_list v);
  Vec.insert v 0 0;
  Vec.insert v (Vec.length v) 6;
  Alcotest.(check (list int)) "insert at both ends" [ 0; 1; 2; 4; 5; 6 ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec: index 1 out of bounds [0,1)")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      let e : int Vec.t = Vec.create () in
      ignore (Vec.pop e))

let test_vec_binary_search () =
  let v = Vec.of_list [ 10; 20; 30; 40 ] in
  let cmp x k = compare x k in
  Alcotest.(check bool) "found" true (Vec.binary_search ~compare:cmp v 30 = Ok 2);
  Alcotest.(check bool) "absent low" true (Vec.binary_search ~compare:cmp v 5 = Error 0);
  Alcotest.(check bool) "absent mid" true (Vec.binary_search ~compare:cmp v 25 = Error 2);
  Alcotest.(check bool) "absent high" true (Vec.binary_search ~compare:cmp v 99 = Error 4)

let vec_model_prop ops =
  (* Vec behaves like a list under push/insert/remove *)
  let v = Vec.create () in
  let model = ref [] in
  List.iter
    (fun (op, x) ->
      let n = List.length !model in
      match op mod 3 with
      | 0 ->
          Vec.push v x;
          model := !model @ [ x ]
      | 1 ->
          let i = if n = 0 then 0 else abs x mod (n + 1) in
          Vec.insert v i x;
          model :=
            List.filteri (fun j _ -> j < i) !model
            @ [ x ]
            @ List.filteri (fun j _ -> j >= i) !model
      | _ ->
          if n > 0 then begin
            let i = abs x mod n in
            ignore (Vec.remove v i);
            model := List.filteri (fun j _ -> j <> i) !model
          end)
    ops;
  Vec.to_list v = !model

let qcheck_vec =
  QCheck.Test.make ~name:"Vec matches list model" ~count:200
    QCheck.(list (pair small_int small_int))
    vec_model_prop

(* ---------- Vec.of_fn: elements built on demand ---------- *)

(* [of_fn n (fun i -> 10 * i)] that counts how often each index is built *)
let counted n =
  let calls = Array.make n 0 in
  let v =
    Vec.of_fn n (fun i ->
        calls.(i) <- calls.(i) + 1;
        10 * i)
  in
  (v, calls)

let test_of_fn_builds_once () =
  let v, calls = counted 50 in
  Alcotest.(check int) "nothing built by of_fn" 0 (Array.fold_left ( + ) 0 calls);
  List.iter (fun i -> Alcotest.(check int) "get" (10 * i) (Vec.get v i)) [ 7; 7; 3; 49; 0; 3 ];
  Alcotest.(check int) "only read elements built" 4 (Array.fold_left ( + ) 0 calls);
  Alcotest.(check (list int)) "to_list builds the rest" (List.init 50 (fun i -> 10 * i))
    (Vec.to_list v);
  Alcotest.(check bool) "each element built exactly once" true (Array.for_all (( = ) 1) calls);
  ignore (Vec.get v 12);
  Vec.iter ignore v;
  Alcotest.(check bool) "no rebuild after" true (Array.for_all (( = ) 1) calls);
  Alcotest.(check int) "of_fn 0 is empty" 0 (Vec.length (Vec.of_fn 0 (fun _ -> assert false)))

let test_of_fn_binary_search_probes () =
  (* elements 0, 10, ..., 10230; search every multiple of 5 from -5 to
     10235, so every hit and every insertion point is probed *)
  for k = -1 to 2047 do
    let v, calls = counted 1024 in
    let expect = if k >= 0 && k mod 2 = 0 then Ok (k / 2) else Error ((k + 1) / 2) in
    Alcotest.(check bool) "binary search result" true (Vec.binary_search ~compare v (5 * k) = expect);
    Alcotest.(check bool) "at most 11 elements built" true (Array.fold_left ( + ) 0 calls <= 11)
  done

let vec_ops : (string * (int Vec.t -> unit)) list =
  [
    ("set", fun v -> Vec.set v 4 (-1));
    ("push", fun v -> Vec.push v (-1));
    ("pop", fun v -> ignore (Vec.pop v));
    ("insert", fun v -> Vec.insert v 2 (-1));
    ("remove", fun v -> ignore (Vec.remove v 5));
    ("swap_remove", fun v -> ignore (Vec.swap_remove v 1));
    ("clear", Vec.clear);
  ]

let test_of_fn_mutation_after_partial_access () =
  List.iter
    (fun (name, op) ->
      let lazy_v, _ = counted 10 in
      ignore (Vec.get lazy_v 3);
      ignore (Vec.get lazy_v 8);
      let eager = Vec.create () in
      for i = 0 to 9 do
        Vec.push eager (10 * i)
      done;
      op lazy_v;
      op eager;
      Alcotest.(check (list int)) name (Vec.to_list eager) (Vec.to_list lazy_v);
      Vec.push lazy_v 99;
      Vec.push eager 99;
      Alcotest.(check (list int)) (name ^ " then push") (Vec.to_list eager) (Vec.to_list lazy_v))
    vec_ops

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "same elements" true (sorted = Array.init 50 Fun.id)

(* ---------- Bytebuf ---------- *)

let test_bytebuf_roundtrip () =
  let w = Bytebuf.W.create () in
  Bytebuf.W.u8 w 200;
  Bytebuf.W.u16 w 60000;
  Bytebuf.W.u32 w 4000000000;
  Bytebuf.W.i64 w (-123456789);
  Bytebuf.W.bool w true;
  Bytebuf.W.string w "hello\x00world";
  let r = Bytebuf.R.of_bytes (Bytebuf.W.contents w) in
  Alcotest.(check int) "u8" 200 (Bytebuf.R.u8 r);
  Alcotest.(check int) "u16" 60000 (Bytebuf.R.u16 r);
  Alcotest.(check int) "u32" 4000000000 (Bytebuf.R.u32 r);
  Alcotest.(check int) "i64" (-123456789) (Bytebuf.R.i64 r);
  Alcotest.(check bool) "bool" true (Bytebuf.R.bool r);
  Alcotest.(check string) "string" "hello\x00world" (Bytebuf.R.string r);
  Bytebuf.R.expect_end r

let test_bytebuf_truncation () =
  let w = Bytebuf.W.create () in
  Bytebuf.W.i64 w 1;
  let b = Bytebuf.W.contents w in
  let short = Bytes.sub b 0 4 in
  let r = Bytebuf.R.of_bytes short in
  Alcotest.(check bool) "corrupt raised" true
    (match Bytebuf.R.i64 r with _ -> false | exception Bytebuf.Corrupt _ -> true)

let test_bytebuf_trailing () =
  let w = Bytebuf.W.create () in
  Bytebuf.W.u8 w 1;
  Bytebuf.W.u8 w 2;
  let r = Bytebuf.R.of_bytes (Bytebuf.W.contents w) in
  ignore (Bytebuf.R.u8 r);
  Alcotest.(check bool) "trailing detected" true
    (match Bytebuf.R.expect_end r with () -> false | exception Bytebuf.Corrupt _ -> true)

let bytebuf_string_prop s =
  let w = Bytebuf.W.create () in
  Bytebuf.W.string w s;
  let r = Bytebuf.R.of_bytes (Bytebuf.W.contents w) in
  String.equal (Bytebuf.R.string r) s

let qcheck_bytebuf =
  QCheck.Test.make ~name:"Bytebuf string roundtrip (arbitrary bytes)" ~count:200 QCheck.string
    bytebuf_string_prop

(* ---------- Bytebuf arena writer (PR 9) ---------- *)

let test_writer_reset_reuse () =
  let w = Bytebuf.W.create ~size:32 () in
  Bytebuf.W.string w "first payload";
  let c1 = Bytebuf.W.contents w in
  let cap = Bytebuf.W.capacity w in
  Bytebuf.W.reset w;
  Alcotest.(check int) "reset clears length" 0 (Bytebuf.W.length w);
  Alcotest.(check int) "reset keeps arena" cap (Bytebuf.W.capacity w);
  Bytebuf.W.string w "first payload";
  Alcotest.(check bytes) "re-encode identical after reset" c1 (Bytebuf.W.contents w);
  Alcotest.(check int) "no regrowth for same payload" cap (Bytebuf.W.capacity w)

let test_writer_truncate () =
  let w = Bytebuf.W.create () in
  Bytebuf.W.raw_string w "0123456789";
  Bytebuf.W.truncate w 4;
  Alcotest.(check string) "truncate cuts in place" "0123" (Bytes.to_string (Bytebuf.W.contents w));
  Alcotest.check_raises "truncate out of range"
    (Invalid_argument "Bytebuf.W.truncate: out of range") (fun () -> Bytebuf.W.truncate w 5)

(* The arena writer must produce exactly the bytes the old [Buffer.t]-based
   writer did: compare against a hand-rolled Buffer reference encoder. *)
let test_writer_buffer_compat () =
  let w = Bytebuf.W.create ~size:16 () in
  Bytebuf.W.u8 w 0xA2;
  Bytebuf.W.u16 w 0xBEEF;
  Bytebuf.W.u32 w 0xDEADBEEF;
  Bytebuf.W.i64 w (-42);
  Bytebuf.W.bool w true;
  Bytebuf.W.string w "payload";
  Bytebuf.W.raw_string w "raw";
  let b = Buffer.create 16 in
  Buffer.add_char b (Char.chr 0xA2);
  Buffer.add_uint16_le b 0xBEEF;
  Buffer.add_int32_le b (Int32.of_int 0xDEADBEEF);
  Buffer.add_int64_le b (Int64.of_int (-42));
  Buffer.add_char b '\x01';
  Buffer.add_int32_le b (Int32.of_int (String.length "payload"));
  Buffer.add_string b "payload";
  Buffer.add_string b "raw";
  Alcotest.(check string) "arena writer = Buffer reference" (Buffer.contents b)
    (Bytes.to_string (Bytebuf.W.contents w))

let test_writer_append_with_crc () =
  let src = Bytebuf.W.create () in
  Bytebuf.W.raw_string src "hello, frame";
  let dst = Bytebuf.W.create () in
  Bytebuf.W.u32 dst (Bytebuf.W.length src);
  let crc = Bytebuf.W.append_with_crc dst src in
  Alcotest.(check int) "crc over appended region" (Crc.string "hello, frame") crc;
  Alcotest.(check int) "crc via W.crc agrees" (Bytebuf.W.crc ~off:4 dst) crc;
  let r = Bytebuf.R.of_string (Bytebuf.W.unsafe_view dst) in
  let n = Bytebuf.R.u32 r in
  Alcotest.(check int) "length prefix" 12 n

let test_reader_of_substring () =
  let s = "xxABCDyy" in
  let r = Bytebuf.R.of_substring s ~off:2 ~len:4 in
  Alcotest.(check int) "remaining" 4 (Bytebuf.R.remaining r);
  Alcotest.(check int) "u8 at slice start" (Char.code 'A') (Bytebuf.R.u8 r);
  ignore (Bytebuf.R.u8 r);
  ignore (Bytebuf.R.u8 r);
  ignore (Bytebuf.R.u8 r);
  Bytebuf.R.expect_end r;
  Alcotest.(check bool) "reads past lim raise Corrupt" true
    (match Bytebuf.R.u8 r with _ -> false | exception Bytebuf.Corrupt _ -> true);
  Alcotest.check_raises "slice out of range"
    (Invalid_argument "Bytebuf.R.of_substring: slice out of range") (fun () ->
      ignore (Bytebuf.R.of_substring s ~off:6 ~len:4))

(* ---------- Crc (PR 9: slice-by-16) ---------- *)

(* Known-answer tests: IEEE 802.3 CRC32 check values. *)
let test_crc_kat () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc.string "");
  Alcotest.(check int) "single byte" 0xD202EF8D (Crc.string "\x00");
  Alcotest.(check int) "a" 0xE8B7BE43 (Crc.string "a");
  Alcotest.(check int) "quick brown fox" 0x414FA339
    (Crc.string "The quick brown fox jumps over the lazy dog")

(* Differential: the slice-by-16 [update] must agree with the byte-at-a-time
   reference on random payloads and random (offset, length) slices —
   including the unaligned head/tail the 8-byte inner loop must hand off
   correctly. *)
let crc_differential_prop (s, a, b) =
  let n = String.length s in
  let off = if n = 0 then 0 else a mod (n + 1) in
  let len = if n - off = 0 then 0 else b mod (n - off + 1) in
  Crc.update 0xFFFF (String.sub s off len) 0 len
  = Crc.update_bytewise 0xFFFF s off len

let qcheck_crc_differential =
  QCheck.Test.make ~name:"Crc slice-by-16 = bytewise reference (random slices)" ~count:1000
    QCheck.(triple string small_nat small_nat)
    crc_differential_prop

(* Incremental composition: feeding a buffer in two chunks equals feeding
   it whole — the dirty-slice update path depends on this. *)
let crc_incremental_prop (a, b) =
  Crc.update (Crc.update 0 a 0 (String.length a)) b 0 (String.length b) = Crc.string (a ^ b)

let qcheck_crc_incremental =
  QCheck.Test.make ~name:"Crc incremental update composes" ~count:500
    QCheck.(pair string string)
    crc_incremental_prop

(* [combine]: concatenating two independently finalized CRCs. *)
let crc_combine_prop (a, b) =
  Crc.combine (Crc.string a) (Crc.string b) (String.length b) = Crc.string (a ^ b)

let qcheck_crc_combine =
  QCheck.Test.make ~name:"Crc.combine concatenates finalized CRCs" ~count:500
    QCheck.(pair string string)
    crc_combine_prop

let test_crc_bytes_slice () =
  let b = Bytes.of_string "__123456789__" in
  Alcotest.(check int) "bytes slice" 0xCBF43926 (Crc.bytes ~off:2 ~len:9 b)

(* ---------- Crashpoint / Faultdisk ---------- *)

(* The typed fault set: every meta-fault name round-trips, and a name
   outside the set (a typo, a storage fault, a shard switch) is refused. *)
let test_fault_names () =
  let names = List.map Crashpoint.to_string Crashpoint.meta_faults in
  Alcotest.(check int) "nine distinct meta-fault names" 9
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun f ->
      let name = Crashpoint.to_string f in
      Alcotest.(check bool) (name ^ " round-trips") true (Crashpoint.of_string name = Some f))
    Crashpoint.meta_faults;
  List.iter
    (fun name ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" name) true
        (Crashpoint.of_string name = None))
    [ ""; "wal.skipflush"; "disk.torn-write"; "log.torn-append"; "shard.down.1" ]

(* Storage faults belong to Faultdisk's armed cfg alone: with every fault
   certain they all fire, and after [disarm] none does. *)
let test_faultdisk_disarm () =
  let decisions () =
    [
      ("fail_read", Faultdisk.fail_read ());
      ("fail_write", Faultdisk.fail_write ());
      ("fail_force", Faultdisk.fail_force ());
      ("flip_now", Faultdisk.flip_now ());
      ("torn_write_on", Faultdisk.torn_write_on ());
      ("torn_append_on", Faultdisk.torn_append_on ());
      ("stream_shuffle_on", Faultdisk.stream_shuffle_on ());
    ]
  in
  Faultdisk.arm ~seed:1
    {
      Faultdisk.eio_read_p = 1.0;
      eio_write_p = 1.0;
      eio_force_p = 1.0;
      bit_flip_p = 1.0;
      torn_write = true;
      torn_append = true;
      stream_shuffle = true;
    };
  List.iter (fun (name, on) -> Alcotest.(check bool) (name ^ " while armed") true on) (decisions ());
  Faultdisk.disarm ();
  List.iter (fun (name, on) -> Alcotest.(check bool) (name ^ " after disarm") false on) (decisions ());
  Alcotest.(check int) "stream_retain after disarm" 0 (Faultdisk.stream_retain ~avail:8)

(* ---------- Stats ---------- *)

let c_a = Stats.counter "test.a"
let c_b = Stats.counter "test.b"
let c_x = Stats.counter "test.x"

let test_stats_counting () =
  let s = Stats.create () in
  Stats.with_sink s (fun () ->
      Stats.incr c_a;
      Stats.incr c_a;
      Stats.add c_b 5);
  Alcotest.(check int) "a" 2 (Stats.get s "test.a");
  Alcotest.(check int) "b" 5 (Stats.get s "test.b");
  Alcotest.(check int) "absent" 0 (Stats.get s "test.c")

let test_stats_sink_restored () =
  let outer = Stats.current () in
  let s = Stats.create () in
  (try Stats.with_sink s (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "sink restored after exception" true (Stats.current () == outer)

let test_stats_diff () =
  let s = Stats.create () in
  Stats.with_sink s (fun () -> Stats.add c_x 10);
  let snap = Stats.copy s in
  Stats.with_sink s (fun () -> Stats.add c_x 3);
  let d = Stats.diff s snap in
  Alcotest.(check int) "diff" 3 (Stats.get d "test.x")

let test_stats_registry_idempotent () =
  let c = Stats.counter "test.idem" in
  let s = Stats.create () in
  Stats.with_sink s (fun () ->
      Stats.incr c;
      Stats.incr (Stats.counter "test.idem"));
  Alcotest.(check int) "one counter behind both registrations" 2 (Stats.get s "test.idem");
  Alcotest.(check (list (pair string int))) "listed once" [ ("test.idem", 2) ] (Stats.to_alist s)

let test_stats_unknown_name () =
  let s = Stats.create () in
  Alcotest.(check int) "never registered" 0 (Stats.get s "test.never.registered");
  Stats.with_sink s (fun () -> ignore (Stats.counter "test.registered.unbumped"));
  Alcotest.(check int) "registered, never bumped" 0 (Stats.get s "test.registered.unbumped");
  Alcotest.(check (list (pair string int))) "nothing listed" [] (Stats.to_alist s)

(* A sink created before a registration must take bumps of the new
   counter once installed, and copy/diff must span sinks of both ages. *)
let test_stats_late_registration () =
  let early = Stats.create () in
  Stats.with_sink early (fun () -> Stats.add c_x 1);
  for i = 0 to 199 do
    ignore (Stats.counter (Printf.sprintf "test.late.%03d" i))
  done;
  let late_last = Stats.counter "test.late.199" in
  let late = Stats.create () in
  Stats.with_sink late (fun () -> Stats.add late_last 4);
  Stats.with_sink early (fun () -> Stats.add late_last 7);
  Alcotest.(check int) "early sink grew" 7 (Stats.get early "test.late.199");
  let snap = Stats.copy early in
  Stats.with_sink early (fun () -> Stats.incr late_last);
  Alcotest.(check int) "copy is independent" 7 (Stats.get snap "test.late.199");
  let d = Stats.diff early late in
  Alcotest.(check int) "diff across ages, late counter" 4 (Stats.get d "test.late.199");
  Alcotest.(check int) "diff across ages, early counter" 1 (Stats.get d "test.x");
  let d' = Stats.diff late (Stats.create ()) in
  Alcotest.(check (list (pair string int))) "diff lists bumped counters only"
    [ ("test.late.199", 4) ] (Stats.to_alist d')

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
          Alcotest.test_case "insert/remove" `Quick test_vec_insert_remove;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "binary search" `Quick test_vec_binary_search;
          QCheck_alcotest.to_alcotest qcheck_vec;
          Alcotest.test_case "of_fn builds each element once" `Quick test_of_fn_builds_once;
          Alcotest.test_case "of_fn binary search builds <= 11 of 1024" `Quick
            test_of_fn_binary_search_probes;
          Alcotest.test_case "of_fn mutation after partial access" `Quick
            test_of_fn_mutation_after_partial_access;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
        ] );
      ( "bytebuf",
        [
          Alcotest.test_case "roundtrip" `Quick test_bytebuf_roundtrip;
          Alcotest.test_case "truncation" `Quick test_bytebuf_truncation;
          Alcotest.test_case "trailing" `Quick test_bytebuf_trailing;
          QCheck_alcotest.to_alcotest qcheck_bytebuf;
          Alcotest.test_case "writer reset/reuse" `Quick test_writer_reset_reuse;
          Alcotest.test_case "writer truncate" `Quick test_writer_truncate;
          Alcotest.test_case "writer = Buffer reference" `Quick test_writer_buffer_compat;
          Alcotest.test_case "append_with_crc" `Quick test_writer_append_with_crc;
          Alcotest.test_case "reader of_substring" `Quick test_reader_of_substring;
        ] );
      ( "crc",
        [
          Alcotest.test_case "known answers" `Quick test_crc_kat;
          Alcotest.test_case "bytes slice" `Quick test_crc_bytes_slice;
          QCheck_alcotest.to_alcotest qcheck_crc_differential;
          QCheck_alcotest.to_alcotest qcheck_crc_incremental;
          QCheck_alcotest.to_alcotest qcheck_crc_combine;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fault names round-trip" `Quick test_fault_names;
          Alcotest.test_case "disarm turns every storage fault off" `Quick test_faultdisk_disarm;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counting" `Quick test_stats_counting;
          Alcotest.test_case "sink restored" `Quick test_stats_sink_restored;
          Alcotest.test_case "diff" `Quick test_stats_diff;
          Alcotest.test_case "registration is idempotent" `Quick test_stats_registry_idempotent;
          Alcotest.test_case "unknown name reads 0" `Quick test_stats_unknown_name;
          Alcotest.test_case "late registration" `Quick test_stats_late_registration;
        ] );
    ]
