(* Log manager and log-record codec: framing, LSN monotonicity, the
   stable/volatile boundary, crash truncation, random access, iteration. *)

open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logmgr = Aries_wal.Logmgr

let update ?(txn = 1) ?(prev = Lsn.nil) ?(page = 7) ?(body = Bytes.of_string "x") () =
  Logrec.make ~page ~rm_id:1 ~op:2 ~body ~txn ~prev_lsn:prev Logrec.Update

let test_codec_roundtrip () =
  let r =
    Logrec.make ~page:9 ~undo_nxt_lsn:55 ~rm_id:3 ~op:12 ~undoable:false ~redoable:true
      ~body:(Bytes.of_string "payload\x00bytes") ~txn:42 ~prev_lsn:17 Logrec.Clr
  in
  let b = Logrec.encode r in
  let r' = Logrec.decode ~lsn:100 (Bytes.to_string b) in
  Alcotest.(check int) "txn" 42 r'.Logrec.txn;
  Alcotest.(check int) "prev" 17 r'.Logrec.prev_lsn;
  Alcotest.(check int) "page" 9 r'.Logrec.page;
  Alcotest.(check int) "undo_nxt" 55 r'.Logrec.undo_nxt_lsn;
  Alcotest.(check int) "rm" 3 r'.Logrec.rm_id;
  Alcotest.(check int) "op" 12 r'.Logrec.op;
  Alcotest.(check bool) "undoable" false r'.Logrec.undoable;
  Alcotest.(check bool) "redoable" true r'.Logrec.redoable;
  Alcotest.(check string) "body" "payload\x00bytes" (Bytes.to_string r'.Logrec.body);
  Alcotest.(check int) "lsn injected" 100 r'.Logrec.lsn

let codec_prop (txn, page, body) =
  let txn = abs txn and page = abs page in
  let r = Logrec.make ~page ~rm_id:1 ~op:1 ~body:(Bytes.of_string body) ~txn ~prev_lsn:3 Logrec.Update in
  let r' = Logrec.decode ~lsn:1 (Bytes.to_string (Logrec.encode r)) in
  r'.Logrec.txn = txn && r'.Logrec.page = page && Bytes.to_string r'.Logrec.body = body

let qcheck_codec =
  QCheck.Test.make ~name:"log record codec roundtrip" ~count:200
    QCheck.(triple small_int small_int string)
    codec_prop

(* Random records over every kind and every header field — arbitrary bytes
   in bodies, random flags, CLR undo-next chains — through encode/decode.
   Deterministically seeded. *)
let all_kinds =
  [|
    Logrec.Update; Logrec.Clr; Logrec.Commit; Logrec.Prepare; Logrec.Rollback;
    Logrec.End_txn; Logrec.Begin_ckpt; Logrec.End_ckpt;
  |]

let gen_logrec : Logrec.t QCheck.Gen.t =
 fun st ->
  let int lo hi = QCheck.Gen.int_range lo hi st in
  let kind = all_kinds.(int 0 (Array.length all_kinds - 1)) in
  let body = Bytes.of_string (QCheck.Gen.(string_size (int_range 0 64)) st) in
  Logrec.make
    ~page:(int 0 1_000_000)
    ~undo_nxt_lsn:(int 0 1_000_000)
    ~rm_id:(int 0 255) ~op:(int 0 255)
    ~undoable:(int 0 1 = 1)
    ~redoable:(int 0 1 = 1)
    ~body
    ~txn:(int 0 1_000_000)
    ~prev_lsn:(int 0 1_000_000)
    kind

let logrec_prop (r : Logrec.t) =
  let r' = Logrec.decode ~lsn:12345 (Bytes.to_string (Logrec.encode r)) in
  r'.Logrec.lsn = 12345
  && r'.Logrec.prev_lsn = r.Logrec.prev_lsn
  && r'.Logrec.txn = r.Logrec.txn
  && r'.Logrec.kind = r.Logrec.kind
  && r'.Logrec.page = r.Logrec.page
  && r'.Logrec.undo_nxt_lsn = r.Logrec.undo_nxt_lsn
  && r'.Logrec.rm_id = r.Logrec.rm_id
  && r'.Logrec.op = r.Logrec.op
  && r'.Logrec.undoable = r.Logrec.undoable
  && r'.Logrec.redoable = r.Logrec.redoable
  && Bytes.equal r'.Logrec.body r.Logrec.body

let qcheck_codec_full =
  QCheck.Test.make ~name:"log record codec roundtrip (all kinds, all fields)" ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" Logrec.pp) gen_logrec)
    logrec_prop

let test_logrec_codec_property () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0x10C5EC |]) qcheck_codec_full

let test_lsn_monotonic () =
  let log = Logmgr.create () in
  let prev = ref Lsn.nil in
  for i = 1 to 50 do
    let lsn = Logmgr.append log (update ~txn:i ()) in
    Alcotest.(check bool) "monotonic" true (Lsn.( < ) !prev lsn);
    prev := lsn
  done;
  Alcotest.(check int) "count" 50 (Logmgr.record_count log)

let test_read_back () =
  let log = Logmgr.create () in
  let lsns = List.init 20 (fun i -> Logmgr.append log (update ~txn:i ())) in
  List.iteri
    (fun i lsn ->
      let r = Logmgr.read log lsn in
      Alcotest.(check int) "lsn" lsn r.Logrec.lsn;
      Alcotest.(check int) "txn" i r.Logrec.txn)
    lsns

let test_flush_boundary () =
  let log = Logmgr.create () in
  let a = Logmgr.append log (update ()) in
  let b = Logmgr.append log (update ()) in
  let c = Logmgr.append log (update ()) in
  Alcotest.(check bool) "nothing stable" true (Lsn.is_nil (Logmgr.flushed_lsn log));
  Logmgr.flush_to log b;
  Alcotest.(check int) "stable through b" b (Logmgr.flushed_lsn log);
  Alcotest.(check bool) "a stable" true (Logmgr.is_stable log a);
  Alcotest.(check bool) "c volatile" false (Logmgr.is_stable log c)

let test_crash_truncates () =
  let log = Logmgr.create () in
  let a = Logmgr.append log (update ~txn:1 ()) in
  let b = Logmgr.append log (update ~txn:2 ()) in
  ignore (Logmgr.append log (update ~txn:3 ()));
  ignore (Logmgr.append log (update ~txn:4 ()));
  Logmgr.flush_to log b;
  Logmgr.crash log;
  Alcotest.(check int) "two records survive" 2 (Logmgr.record_count log);
  Alcotest.(check int) "last is b" b (Logmgr.last_lsn log);
  (* appends continue after the crash point *)
  let e = Logmgr.append log (update ~txn:5 ()) in
  Alcotest.(check bool) "new lsn beyond b" true (Lsn.( < ) b e);
  ignore a

let test_master_survives_crash () =
  let log = Logmgr.create () in
  let a = Logmgr.append log (update ()) in
  Logmgr.flush log;
  Logmgr.set_master log a;
  ignore (Logmgr.append log (update ()));
  Logmgr.crash log;
  Alcotest.(check int) "master kept" a (Logmgr.master log)

let test_iteration_and_next () =
  let log = Logmgr.create () in
  let lsns = List.init 10 (fun i -> Logmgr.append log (update ~txn:i ())) in
  let seen = ref [] in
  Logmgr.iter_from log Lsn.nil (fun r -> seen := r.Logrec.lsn :: !seen);
  Alcotest.(check (list int)) "full scan" lsns (List.rev !seen);
  (* partial scan *)
  let third = List.nth lsns 3 in
  let seen = ref [] in
  Logmgr.iter_from log third (fun r -> seen := r.Logrec.txn :: !seen);
  Alcotest.(check (list int)) "scan from lsn" [ 3; 4; 5; 6; 7; 8; 9 ] (List.rev !seen);
  (* next_lsn chains *)
  let rec chain lsn acc =
    match Logmgr.next_lsn log lsn with None -> List.rev (lsn :: acc) | Some n -> chain n (lsn :: acc)
  in
  Alcotest.(check (list int)) "next_lsn chain" lsns (chain (List.hd lsns) [])

let test_records_between () =
  let log = Logmgr.create () in
  let lsns = List.init 6 (fun i -> Logmgr.append log (update ~txn:i ())) in
  let lo = List.nth lsns 1 and hi = List.nth lsns 3 in
  let rs = Logmgr.records_between log lo hi in
  Alcotest.(check (list int)) "middle slice" [ 1; 2; 3 ] (List.map (fun r -> r.Logrec.txn) rs)

let test_flush_counts_forces () =
  let s = Stats.create () in
  Stats.with_sink s (fun () ->
      let log = Logmgr.create () in
      let a = Logmgr.append log (update ()) in
      Logmgr.flush_to log a;
      Logmgr.flush_to log a;
      (* second is a no-op *)
      ignore (Logmgr.append log (update ()));
      Logmgr.flush log);
  Alcotest.(check int) "two forces" 2 (Stats.get s Stats.log_forces)

(* --- segmented log --- *)

let test_sealing () =
  let log = Logmgr.create ~segment_size:64 () in
  let lsns = List.init 12 (fun i -> Logmgr.append log (update ~txn:i ())) in
  Alcotest.(check bool) "appends crossed segment boundaries" true (Logmgr.segment_count log > 1);
  (* segments tile the offset space: each base is the previous end *)
  let info = Logmgr.segments_info log in
  ignore
    (List.fold_left
       (fun expected_base (base, len, _sealed) ->
         Alcotest.(check int) "segment base contiguous" expected_base base;
         base + len)
       (List.hd lsns) info);
  (* every segment but the last is sealed; the tail is the active one *)
  let rec check_sealed = function
    | [] -> ()
    | [ (_, _, sealed) ] -> Alcotest.(check bool) "tail unsealed" false sealed
    | (_, _, sealed) :: rest ->
        Alcotest.(check bool) "prefix sealed" true sealed;
        check_sealed rest
  in
  check_sealed info;
  (* records are never split: each one reads back whole at its LSN *)
  List.iteri
    (fun i lsn -> Alcotest.(check int) "read across seals" i (Logmgr.read log lsn).Logrec.txn)
    lsns

(* Truncation hands each dropped segment's arena to the archive as is,
   and a sealed arena holds the segment's bytes and nothing beyond them:
   the view is the whole arena. A segment size that is no power of two
   exercises the arena's growth cap; bodies of varying size make records
   cross the seal boundary by different amounts. *)
let test_truncate_hands_arena_over () =
  let log = Logmgr.create ~segment_size:1000 () in
  for i = 1 to 300 do
    ignore (Logmgr.append log (update ~txn:i ~body:(Bytes.make (i mod 97) 'b') ()))
  done;
  Logmgr.flush log;
  let archived = ref [] in
  Logmgr.set_archive_sink log (fun a -> archived := a :: !archived);
  ignore (Logmgr.truncate_prefix log ~upto:(Logmgr.flushed_offset log));
  Alcotest.(check bool) "segments archived" true (List.length !archived > 10);
  List.iter
    (fun (a : Logmgr.archived) ->
      Alcotest.(check (pair int int)) "the view is the whole arena" (0, a.Logmgr.arch_len)
        (a.Logmgr.arch_off, String.length a.Logmgr.arch_src);
      let n = ref 0 in
      Logmgr.iter_archived a ~from:Lsn.nil (fun _ -> incr n);
      Alcotest.(check int) "records decode in place" a.Logmgr.arch_records !n)
    !archived

(* Hundreds of sealed segments: every lookup is a binary search over them,
   every scan steps frame by frame inside each. Reads, scans from many
   starting points, the next_lsn chain, a crash and a save/load all see
   exactly the records appended. *)
let test_many_segments () =
  let log = Logmgr.create ~segment_size:64 () in
  let lsns =
    Array.init 1200 (fun i -> Logmgr.append log (update ~txn:i ~body:(Bytes.make (i mod 41) 'q') ()))
  in
  Alcotest.(check bool) "over 300 sealed segments" true (Logmgr.segment_count log > 301);
  let check_log what log =
    Array.iteri
      (fun i lsn -> Alcotest.(check int) (what ^ ": read") i (Logmgr.read log lsn).Logrec.txn)
      lsns;
    List.iter
      (fun from ->
        let seen = ref [] in
        Logmgr.iter_from log lsns.(from) (fun r -> seen := r.Logrec.txn :: !seen);
        Alcotest.(check (list int)) (what ^ ": scan from a record")
          (List.init (Array.length lsns - from) (fun i -> from + i))
          (List.rev !seen))
      [ 0; 1; 2; 57; 300; 599; 1000; 1199 ];
    let rec chain lsn acc =
      match Logmgr.next_lsn log lsn with None -> List.rev (lsn :: acc) | Some n -> chain n (lsn :: acc)
    in
    Alcotest.(check (list int)) (what ^ ": next_lsn chain") (Array.to_list lsns) (chain lsns.(0) []);
    Alcotest.(check int) (what ^ ": record count") (Array.length lsns) (Logmgr.record_count log);
    Alcotest.(check int) (what ^ ": last") lsns.(Array.length lsns - 1) (Logmgr.last_lsn log)
  in
  check_log "live" log;
  Logmgr.flush log;
  check_log "loaded" (Logmgr.deserialize (Logmgr.serialize log));
  Logmgr.crash log;
  check_log "crashed" log

let test_truncate_prefix () =
  let log = Logmgr.create ~segment_size:64 () in
  let lsns = List.init 10 (fun i -> Logmgr.append log (update ~txn:i ())) in
  Logmgr.flush log;
  let archived = ref [] in
  Logmgr.set_archive_sink log (fun a -> archived := a :: !archived);
  let before = Logmgr.record_count log in
  let reclaimed = Logmgr.truncate_prefix log ~upto:(Logmgr.flushed_offset log) in
  Alcotest.(check bool) "bytes reclaimed" true (reclaimed > 0);
  (* every dropped byte went through the archive sink, oldest first *)
  let arch = List.rev !archived in
  Alcotest.(check int) "archive bytes = reclaimed"
    reclaimed
    (List.fold_left (fun acc a -> acc + a.Logmgr.arch_len) 0 arch);
  ignore
    (List.fold_left
       (fun expected a ->
         Alcotest.(check int) "archive contiguous" expected a.Logmgr.arch_base;
         a.Logmgr.arch_base + a.Logmgr.arch_len)
       (List.hd lsns) arch);
  Alcotest.(check int) "no record lost"
    before
    (Logmgr.record_count log + List.fold_left (fun acc a -> acc + a.Logmgr.arch_records) 0 arch);
  (* the new start is exactly one past the last archived byte *)
  let new_start = (List.hd arch).Logmgr.arch_base + reclaimed in
  let base0, _, _ = List.hd (Logmgr.segments_info log) in
  Alcotest.(check int) "oldest retained segment base = archive end" new_start base0;
  (* reclaimed reads fail loudly; retained ones survive *)
  Alcotest.(check bool) "read below start raises" true
    (match Logmgr.read log (List.hd lsns) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  List.iteri
    (fun i lsn ->
      if lsn >= new_start then
        Alcotest.(check int) "retained read" i (Logmgr.read log lsn).Logrec.txn)
    lsns;
  (* appends continue with monotonic lsns; iteration covers the remainder *)
  let e = Logmgr.append log (update ~txn:99 ()) in
  Alcotest.(check bool) "lsn still monotonic" true (Lsn.( < ) (List.nth lsns 9) e);
  let seen = ref 0 in
  Logmgr.iter_from log Lsn.nil (fun _ -> incr seen);
  Alcotest.(check int) "iteration count" (Logmgr.record_count log) !seen

let test_truncate_partial_segment_kept () =
  let log = Logmgr.create ~segment_size:64 () in
  ignore (List.init 8 (fun i -> Logmgr.append log (update ~txn:i ())));
  Logmgr.flush log;
  (* a cut in the middle of the first segment reclaims nothing: truncation
     is whole-segment only *)
  let start = Logmgr.start_lsn log in
  Alcotest.(check int) "mid-segment cut reclaims nothing" 0
    (Logmgr.truncate_prefix log ~upto:(start + 1));
  Alcotest.(check int) "start unchanged" start (Logmgr.start_lsn log)

let test_truncate_volatile_rejected () =
  let log = Logmgr.create () in
  let a = Logmgr.append log (update ()) in
  Logmgr.flush log;
  let b = Logmgr.append log (update ()) in
  ignore a;
  Alcotest.(check bool) "cannot truncate into the volatile tail" true
    (match Logmgr.truncate_prefix log ~upto:(b + 1000) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_truncate_survives_crash_and_serialize () =
  let log = Logmgr.create ~segment_size:64 () in
  ignore (List.init 6 (fun i -> Logmgr.append log (update ~txn:i ())));
  Logmgr.flush log;
  ignore (Logmgr.truncate_prefix log ~upto:(Logmgr.flushed_offset log));
  let start = Logmgr.start_lsn log in
  let count = Logmgr.record_count log in
  ignore (Logmgr.append log (update ~txn:9 ()));
  (* crash drops the unflushed tail but keeps the truncation point *)
  Logmgr.crash log;
  Alcotest.(check int) "post-crash records" count (Logmgr.record_count log);
  Alcotest.(check int) "post-crash start" start (Logmgr.start_lsn log);
  (* the snapshot codec preserves segmentation and the start offset *)
  let log' = Logmgr.deserialize (Logmgr.serialize log) in
  Alcotest.(check int) "roundtrip start" (Logmgr.start_lsn log) (Logmgr.start_lsn log');
  Alcotest.(check int) "roundtrip records" count (Logmgr.record_count log');
  Alcotest.(check int) "roundtrip segments" (Logmgr.segment_count log)
    (Logmgr.segment_count log')

let test_crash_unseals_straddler () =
  (* segment > one framed record (records carry stream/epoch/gsn stamps),
     so the first flushed record does not itself seal the segment *)
  let log = Logmgr.create ~segment_size:128 () in
  let a = Logmgr.append log (update ~txn:0 ()) in
  Logmgr.flush_to log a;
  (* push past the seal threshold without flushing: the seal is volatile *)
  ignore (List.init 8 (fun i -> Logmgr.append log (update ~txn:(i + 1) ())));
  Alcotest.(check bool) "sealed in memory" true (Logmgr.segment_count log > 1);
  Logmgr.crash log;
  (* only the first record was stable: one segment survives, and its
     in-memory seal did not — it is the active segment again *)
  Alcotest.(check int) "one segment" 1 (Logmgr.segment_count log);
  (match Logmgr.segments_info log with
  | [ (_, _, sealed) ] -> Alcotest.(check bool) "straddler unsealed" false sealed
  | l -> Alcotest.failf "expected 1 segment, got %d" (List.length l));
  Alcotest.(check int) "one record" 1 (Logmgr.record_count log);
  (* appends resume at the crash boundary *)
  let e = Logmgr.append log (update ~txn:42 ()) in
  Alcotest.(check int) "resume at flushed boundary" (Logmgr.record_end log a) e

(* ---------- record encode byte-identity ---------- *)

(* [encode] must produce exactly the bytes of the documented record
   layout. Reference encoder hand-rolled here against that layout: one
   byte with the kind in bits 0-3, undoable in bit 4, redoable in bit 5,
   "has page/rm/op" in bit 6 and "has undo-next" in bit 7, then unsigned
   LEB128 varints for prev_lsn and txn, page, rm_id and op if bit 6,
   undo_nxt_lsn and undo_nxt_stream (-1 written as the stream) if bit 7,
   then stream, epoch and gsn, then the body. *)
let reference_encode (r : Logrec.t) =
  let kind_to_int = function
    | Logrec.Update -> 0
    | Logrec.Clr -> 1
    | Logrec.Commit -> 2
    | Logrec.Prepare -> 3
    | Logrec.Rollback -> 4
    | Logrec.End_txn -> 5
    | Logrec.Begin_ckpt -> 6
    | Logrec.End_ckpt -> 7
    | Logrec.Coord_commit -> 8
    | Logrec.Coord_abort -> 9
    | Logrec.Coord_end -> 10
  in
  let b = Buffer.create 64 in
  let rec leb v =
    if v < 0x80 then Buffer.add_char b (Char.chr v)
    else begin
      Buffer.add_char b (Char.chr (v land 0x7f lor 0x80));
      leb (v lsr 7)
    end
  in
  let undo_nxt_stream =
    if r.Logrec.undo_nxt_stream < 0 then r.Logrec.stream else r.Logrec.undo_nxt_stream
  in
  let rm = r.Logrec.page <> 0 || r.Logrec.rm_id <> 0 || r.Logrec.op <> 0 in
  let undo_nxt = r.Logrec.undo_nxt_lsn <> 0 || undo_nxt_stream <> r.Logrec.stream in
  Buffer.add_char b
    (Char.chr
       (kind_to_int r.Logrec.kind
       lor (if r.Logrec.undoable then 0x10 else 0)
       lor (if r.Logrec.redoable then 0x20 else 0)
       lor (if rm then 0x40 else 0)
       lor if undo_nxt then 0x80 else 0));
  leb r.Logrec.prev_lsn;
  leb r.Logrec.txn;
  if rm then begin
    leb r.Logrec.page;
    leb r.Logrec.rm_id;
    leb r.Logrec.op
  end;
  if undo_nxt then begin
    leb r.Logrec.undo_nxt_lsn;
    leb undo_nxt_stream
  end;
  leb r.Logrec.stream;
  leb r.Logrec.epoch;
  leb r.Logrec.gsn;
  Buffer.add_bytes b r.Logrec.body;
  Buffer.contents b

let test_encode_matches_reference () =
  let records =
    [
      update ();
      update ~txn:99 ~prev:1234 ~page:0 ~body:Bytes.empty ();
      Logrec.make ~page:9 ~undo_nxt_lsn:55 ~undo_nxt_stream:2 ~rm_id:3 ~op:12
        ~body:(Bytes.of_string "payload\x00bytes") ~stream:1 ~epoch:4 ~gsn:77 ~txn:42
        ~prev_lsn:17 Logrec.Clr;
      Logrec.make ~txn:7 ~prev_lsn:Lsn.nil Logrec.Commit;
      Logrec.make ~page:max_int ~undo_nxt_lsn:16384 ~rm_id:128 ~op:127 ~stream:200 ~epoch:(1 lsl 31)
        ~gsn:16383 ~body:(Bytes.make 300 'z') ~txn:max_int ~prev_lsn:(1 lsl 40) Logrec.Update;
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check string) "encode = reference"
        (reference_encode r)
        (Bytes.to_string (Logrec.encode r));
      Alcotest.(check int) "encoded_size = encoded length"
        (Bytes.length (Logrec.encode r))
        (Logrec.encoded_size r))
    records

(* ---------- varint codec: boundaries, malformed input, negative fields ---------- *)

let boundaries = [| 0; 127; 128; 16383; 16384; 1 lsl 31; max_int |]

let test_uvar_boundaries () =
  List.iter
    (fun (v, size) ->
      let w = Bytebuf.W.create () in
      Bytebuf.W.uvar w v;
      Alcotest.(check int) (Printf.sprintf "size of %d" v) size (Bytebuf.W.length w);
      Alcotest.(check int) "uvar_size" size (Bytebuf.uvar_size v);
      let r = Bytebuf.R.of_bytes (Bytebuf.W.contents w) in
      Alcotest.(check int) "round trip" v (Bytebuf.R.uvar r);
      Bytebuf.R.expect_end r)
    [ (0, 1); (127, 1); (128, 2); (16383, 2); (16384, 3); (1 lsl 31, 5); (max_int, 9) ];
  Alcotest.(check bool) "negative value refused before writing" true
    (let w = Bytebuf.W.create () in
     match Bytebuf.W.uvar w (-1) with
     | () -> false
     | exception Invalid_argument _ -> Bytebuf.W.length w = 0);
  List.iter
    (fun (what, s) ->
      Alcotest.(check bool) what true
        (match Bytebuf.R.uvar (Bytebuf.R.of_string s) with
        | _ -> false
        | exception Bytebuf.Corrupt _ -> true))
    [
      ("empty", "");
      ("cut short", "\x80\x80");
      ("ten bytes", String.make 9 '\x80' ^ "\x01");
      ("ninth byte past bit 61", String.make 8 '\xff' ^ "\x40");
      ("zero last byte after the first", "\x80\x00");
    ]

(* Every header field drawn from the varint size boundaries, every kind,
   random flags and bodies of 0-300 bytes: the codec, the reference
   layout, [encoded_size] and a log append/read all agree. Seeded. *)
let test_boundary_roundtrip () =
  let st = Random.State.make [| 0xB0DA |] in
  let pick () = boundaries.(Random.State.int st (Array.length boundaries)) in
  let kinds = Array.append all_kinds [| Logrec.Coord_commit; Logrec.Coord_abort; Logrec.Coord_end |] in
  let log = Logmgr.create () in
  for _ = 1 to 500 do
    let stream = pick () in
    let r =
      Logrec.make ~page:(pick ()) ~undo_nxt_lsn:(pick ())
        ~undo_nxt_stream:(if Random.State.bool st then -1 else pick ())
        ~rm_id:(pick ()) ~op:(pick ()) ~undoable:(Random.State.bool st)
        ~redoable:(Random.State.bool st) ~stream ~epoch:(pick ()) ~gsn:(pick ())
        ~body:(Bytes.make [| 0; 127; 128; 300 |].(Random.State.int st 4) 'b')
        ~txn:(pick ()) ~prev_lsn:(pick ())
        kinds.(Random.State.int st (Array.length kinds))
    in
    let enc = Logrec.encode r in
    Alcotest.(check string) "encode = reference" (reference_encode r) (Bytes.to_string enc);
    Alcotest.(check int) "encoded_size" (Bytes.length enc) (Logrec.encoded_size r);
    let expect lsn =
      {
        r with
        Logrec.lsn;
        undo_nxt_stream =
          (if r.Logrec.undo_nxt_stream < 0 then r.Logrec.stream else r.Logrec.undo_nxt_stream);
      }
    in
    Alcotest.(check bool) "decode . encode = id" true
      (Logrec.decode ~lsn:77 (Bytes.to_string enc) = expect 77);
    let lsn = Logmgr.append log r in
    Alcotest.(check bool) "append . read = id" true (Logmgr.read log lsn = expect lsn);
    Alcotest.(check int) "framed size" (lsn + Logrec.frame_overhead + Bytes.length enc)
      (Logmgr.end_offset log)
  done

(* A one-segment log image around the framed [payloads], as
   [Logmgr.serialize_into] writes it: a frame whose CRC verifies but
   whose payload does not decode survives the tail scan, so [read] is
   what meets it. *)
let log_image payloads =
  let seg = Bytebuf.W.create () in
  List.iter (fun p -> Bytebuf.W.raw_string seg (Bytes.to_string (Logrec.frame p))) payloads;
  let bytes = Bytes.to_string (Bytebuf.W.contents seg) in
  let w = Bytebuf.W.create () in
  List.iter (Bytebuf.W.i64 w) [ 0; 0; 65536; 8 ];
  Bytebuf.W.list w
    (fun w b ->
      Bytebuf.W.i64 w 8;
      Bytebuf.W.bool w false;
      Bytebuf.W.string w b;
      Bytebuf.W.u32 w (Crc.string b))
    [ bytes ];
  (Bytebuf.W.contents w, bytes)

let is_decode_error f =
  match f () with
  | _ -> false
  | exception Storage_error.Error { cause = Storage_error.Decode; lsn = Some 8; _ } -> true

let test_bad_header_varint_is_typed () =
  let good = Logrec.encode (update ()) in
  List.iter
    (fun (what, payload) ->
      let image, bytes = log_image [ Bytes.of_string payload ] in
      let log = Logmgr.deserialize image in
      Alcotest.(check int) (what ^ ": the frame survives the tail scan") 1 (Logmgr.record_count log);
      Alcotest.(check bool) (what ^ ": read is a typed Decode") true
        (is_decode_error (fun () -> Logmgr.read log 8));
      Alcotest.(check bool) (what ^ ": iter_from is a typed Decode") true
        (is_decode_error (fun () -> Logmgr.iter_from log Lsn.nil ignore));
      let a =
        {
          Logmgr.arch_base = 8;
          arch_len = String.length bytes;
          arch_src = bytes;
          arch_off = 0;
          arch_records = 1;
          arch_crc = Crc.string bytes;
        }
      in
      Alcotest.(check bool) (what ^ ": iter_archived is a typed Decode") true
        (is_decode_error (fun () -> Logmgr.iter_archived a ~from:Lsn.nil ignore)))
    [
      ("varint cut short", "\x00\x80");
      ("header cut after txn", Bytes.sub_string good 0 3);
      ("varint past 9 bytes", "\x00" ^ String.make 9 '\x80' ^ "\x01");
      ("unknown kind", "\x0f" ^ Bytes.sub_string good 1 (Bytes.length good - 1));
      ("page flagged but absent", "\x40\x00\x00\x00\x00\x00\x00\x00\x00");
      ("undo-next flagged but absent", "\x80\x00\x00\x00\x00\x00\x00\x00");
      ("header cut before its gsn", Bytes.sub_string good 0 (Bytes.length good - 2));
    ]

let test_negative_field_raises_at_append () =
  let log = Logmgr.create () in
  let a = Logmgr.append log (update ()) in
  let end0 = Logmgr.end_offset log in
  List.iter
    (fun (what, r) ->
      Alcotest.(check bool) (what ^ " raises") true
        (match Logmgr.append log r with
        | _ -> false
        | exception Invalid_argument _ -> true);
      Alcotest.(check int) (what ^ ": nothing appended") end0 (Logmgr.end_offset log))
    [
      ("txn -1", Logrec.make ~txn:(-1) ~prev_lsn:Lsn.nil Logrec.Commit);
      ("page -5", update ~page:(-5) ());
      ("prev_lsn min_int", update ~prev:min_int ());
      ("gsn -1", Logrec.make ~gsn:(-1) ~txn:1 ~prev_lsn:a Logrec.End_txn);
    ];
  Alcotest.(check int) "one record" 1 (Logmgr.record_count log);
  let b = Logmgr.append log (update ~txn:3 ()) in
  Alcotest.(check int) "the next append lands where the refused one would have" end0 b;
  Alcotest.(check int) "and reads back" 3 (Logmgr.read log b).Logrec.txn

(* Every proper non-empty prefix of an encoding fails as [Corrupt]. *)
let check_prefixes_corrupt what decode enc =
  for n = 1 to Bytes.length enc - 1 do
    Alcotest.(check bool) (Printf.sprintf "%s: %d-byte prefix is Corrupt" what n) true
      (match decode (Bytes.sub enc 0 n) with
      | _ -> false
      | exception Bytebuf.Corrupt _ -> true)
  done

let test_commit_targets_codec () =
  let module Logset = Aries_wal.Logset in
  Alcotest.(check int) "the empty vector is the empty body" 0
    (Bytes.length (Logset.encode_commit_targets []));
  Alcotest.(check (list (pair int int))) "empty body" [] (Logset.decode_commit_targets Bytes.empty);
  List.iter
    (fun ts ->
      let enc = Logset.encode_commit_targets ts in
      Alcotest.(check (list (pair int int))) "round trip" ts (Logset.decode_commit_targets enc);
      check_prefixes_corrupt "targets" Logset.decode_commit_targets enc)
    [
      [ (0, 8) ];
      [ (0, 127); (1, 128); (2, 16383); (3, 16384) ];
      [ (255, 1 lsl 31); (0, max_int); (7, 0) ];
    ];
  Alcotest.(check bool) "a count past the body is Corrupt" true
    (match Logset.decode_commit_targets (Bytes.of_string "\x7f\x00\x08") with
    | _ -> false
    | exception Bytebuf.Corrupt _ -> true);
  Alcotest.(check bool) "a negative LSN is refused" true
    (match Logset.encode_commit_targets [ (0, -8) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* An append writes the header and the body straight into the segment
   arena: once the arena has grown past the minor heap's object size, an
   untraced append allocates no minor-heap words at all — no encode
   buffer, no copy of the record to stamp it. *)
let test_append_in_place () =
  let module Trace = Aries_trace.Trace in
  let log = Logmgr.create () in
  let r = update ~body:(Bytes.create 64) () in
  for _ = 1 to 100 do
    ignore (Logmgr.append log r)
  done;
  let s = Stats.create () in
  let mode = Trace.mode () in
  Trace.set_mode Trace.Off;
  let words =
    Fun.protect
      ~finally:(fun () -> Trace.set_mode mode)
      (fun () ->
        Stats.with_sink s (fun () ->
            let w0 = Gc.minor_words () in
            for _ = 1 to 50 do
              ignore (Logmgr.append log r)
            done;
            Gc.minor_words () -. w0))
  in
  Alcotest.(check (float 0.)) "no minor words for 50 appends" 0. words;
  Alcotest.(check int) "and appended a record each" 50 (Stats.get s Stats.log_records)

let () =
  Alcotest.run "wal"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_codec;
          Alcotest.test_case "random records x1000 (seeded)" `Quick test_logrec_codec_property;
          Alcotest.test_case "encode = reference bytes" `Quick test_encode_matches_reference;
          Alcotest.test_case "varint boundaries and malformed varints" `Quick test_uvar_boundaries;
          Alcotest.test_case "boundary fields round-trip (seeded)" `Quick test_boundary_roundtrip;
          Alcotest.test_case "bad header varint is a typed Decode" `Quick
            test_bad_header_varint_is_typed;
          Alcotest.test_case "negative field raises at append" `Quick
            test_negative_field_raises_at_append;
          Alcotest.test_case "commit target vector codec" `Quick test_commit_targets_codec;
          Alcotest.test_case "append writes the record in place" `Quick test_append_in_place;
        ] );
      ( "logmgr",
        [
          Alcotest.test_case "lsn monotonic" `Quick test_lsn_monotonic;
          Alcotest.test_case "read back" `Quick test_read_back;
          Alcotest.test_case "flush boundary" `Quick test_flush_boundary;
          Alcotest.test_case "crash truncates" `Quick test_crash_truncates;
          Alcotest.test_case "master survives crash" `Quick test_master_survives_crash;
          Alcotest.test_case "iteration and next" `Quick test_iteration_and_next;
          Alcotest.test_case "records_between" `Quick test_records_between;
          Alcotest.test_case "flush counts forces" `Quick test_flush_counts_forces;
        ] );
      ( "segments",
        [
          Alcotest.test_case "sealing and tiling" `Quick test_sealing;
          Alcotest.test_case "hundreds of segments" `Quick test_many_segments;
          Alcotest.test_case "truncate_prefix + archive sink" `Quick test_truncate_prefix;
          Alcotest.test_case "truncation hands the arena over" `Quick test_truncate_hands_arena_over;
          Alcotest.test_case "partial segment kept" `Quick test_truncate_partial_segment_kept;
          Alcotest.test_case "truncate volatile rejected" `Quick test_truncate_volatile_rejected;
          Alcotest.test_case "truncation survives crash+codec" `Quick
            test_truncate_survives_crash_and_serialize;
          Alcotest.test_case "crash unseals the straddler" `Quick test_crash_unseals_straddler;
        ] );
    ]
