(* The storage fault layer (PR 5), exercised surgically: page-image CRC
   detection and the crc.check-disabled meta-fault, log-frame CRC and the
   crash-time tail scan (torn tail mid-record = clean-crash recovery;
   complete unflushed records legally survive), bounded retry with typed
   exhaustion, the transient-EIO storm against the group-commit pipeline
   (no early acks), and automatic media repair — bit-rot healing
   transparently through the buffer pool's repairer hook, including across
   a log truncation (archive + live log as the full history). *)

open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logmgr = Aries_wal.Logmgr
module Page = Aries_page.Page
module Key = Aries_page.Key
module Disk = Aries_page.Disk
module Bufpool = Aries_buffer.Bufpool
module Btree = Aries_btree.Btree
module Txnmgr = Aries_txn.Txnmgr
module Media = Aries_recovery.Media
module Trace = Aries_trace.Trace
module Discipline = Aries_trace.Discipline
module Db = Aries_db.Db

let rid i = { Ids.rid_page = 700 + (i / 100); rid_slot = i mod 100 }

let v i = Printf.sprintf "key%05d" i

let fresh ?(page_size = 384) ?commit_mode ?segment_size () =
  let db = Db.create ~page_size ?commit_mode ?segment_size () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Btree.create db.Db.benv txn ~name:"t" ~unique:true))
  in
  (db, tree)

let insert_range db tree lo hi =
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = lo to hi do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done))

(* every test leaves the global fault engine and switches clean *)
let clean f =
  Fun.protect
    ~finally:(fun () ->
      Faultdisk.disarm ();
      Crashpoint.clear ();
      Crashpoint.disarm ();
      Crashpoint.reset ();
      Trace.reset ();
      Discipline.reset ())
    f

let no_faults =
  {
    Faultdisk.eio_read_p = 0.0;
    eio_write_p = 0.0;
    eio_force_p = 0.0;
    bit_flip_p = 0.0;
    torn_write = false;
    torn_append = false;
    stream_shuffle = false;
  }

(* ------------------------------------------------------------------ *)
(* Page-image CRC (codec v2)                                          *)

let test_page_crc_detects_flip () =
  let page = Page.create ~psize:4096 ~pid:5 (Page.empty_leaf ()) in
  page.Page.page_lsn <- 4242;
  let b = Page.encode page in
  (* flip one bit somewhere in the middle of the body *)
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  match Page.decode ~psize:4096 b with
  | _ -> Alcotest.fail "bit-rotted page image decoded silently"
  | exception Storage_error.Error { cause = Storage_error.Checksum; pid; _ } ->
      Alcotest.(check (option int)) "pid sniffed for diagnostics" (Some 5) pid

(* One image format: bytes without the [0xA2] envelope (the pre-CRC v1
   body layout, or nothing at all) are a typed [Decode] error naming the
   page, never a page parsed without a CRC check. *)
let test_page_v1_image_rejected () =
  let page = Page.create ~psize:4096 ~pid:8 (Page.empty_data ~owner:3) in
  let d = Page.as_data page in
  Vec.push d.Page.dt_slots (Some (Bytes.of_string "legacy record"));
  page.Page.page_lsn <- 77;
  let b = Page.encode page in
  (* strip the envelope: [0xA2][body][u32 crc] -> [body] *)
  let v1 = Bytes.sub b 1 (Bytes.length b - 5) in
  List.iter
    (fun (label, image) ->
      let disk = Disk.create ~page_size:4096 () in
      Disk.write_image disk 8 image;
      match Disk.read disk 8 with
      | _ -> Alcotest.failf "%s decoded" label
      | exception Storage_error.Error { cause = Storage_error.Decode; pid; _ } ->
          Alcotest.(check (option int)) (label ^ ": typed Decode naming the page") (Some 8) pid)
    [ ("v1 body", v1); ("empty image", Bytes.empty) ]

(* The meta-fault: with CRC verification off, a rotten image is never
   reported as a checksum failure — it flows through as either garbage
   data (for the oracle to catch; see the sim suite) or a typed decode
   error. A bare [Bytebuf.Corrupt] must never escape [Disk.read]. *)
let test_crc_disabled_meta_fault () =
  clean (fun () ->
      let disk = Disk.create ~page_size:384 () in
      let page = Page.create ~psize:384 ~pid:4 (Page.empty_leaf ()) in
      let l = Page.as_leaf page in
      Vec.push l.Page.lf_keys (Key.make "somebody" { Ids.rid_page = 1; rid_slot = 2 });
      Disk.write disk page;
      Crashpoint.enable Crashpoint.Crc_check_disabled;
      (* with checks disabled the write-out has no CRC protection to
         violate, but a flipped stored image must still never raise a bare
         parser exception on read *)
      for seed = 1 to 16 do
        Disk.corrupt_flip ~seed disk 4;
        (match Disk.read disk 4 with
        | Some _ | None -> ()
        | exception Storage_error.Error _ -> ()
        | exception Bytebuf.Corrupt _ -> Alcotest.fail "bare Bytebuf.Corrupt escaped");
        (* undo the flip (same seed flips the same bit back) *)
        Disk.corrupt_flip ~seed disk 4
      done;
      Crashpoint.clear ();
      (* with checks back on, an actually-rotten image is loud and typed *)
      Disk.corrupt_flip ~seed:3 disk 4;
      match Disk.read disk 4 with
      | _ -> Alcotest.fail "rotten image read silently with CRC checks back on"
      | exception Storage_error.Error { cause = Storage_error.Checksum | Storage_error.Decode; _ }
        ->
          ())

let test_corrupt_variants () =
  let disk = Disk.create ~page_size:384 () in
  let page = Page.create ~psize:384 ~pid:9 (Page.empty_leaf ()) in
  Disk.write disk page;
  (* flip: image still present, read fails typed with the pid attached *)
  Disk.corrupt_flip ~seed:11 disk 9;
  (match Disk.read disk 9 with
  | _ -> Alcotest.fail "flipped image read silently"
  | exception Storage_error.Error { cause = Storage_error.Checksum; pid = Some 9; _ } -> ()
  | exception Storage_error.Error i ->
      Alcotest.failf "wrong error info: %s" i.Storage_error.detail);
  (* drop: image gone, read sees an absent page (no error) *)
  Disk.corrupt_drop disk 9;
  Alcotest.(check bool) "dropped image reads as absent" true (Disk.read disk 9 = None)

(* ------------------------------------------------------------------ *)
(* Log-frame CRC and the crash-time tail scan                         *)

let append_n log ~lo ~hi ~len =
  for i = lo to hi do
    ignore
      (Logmgr.append log
         (Logrec.make ~page:i ~rm_id:1 ~op:1
            ~body:(Bytes.make len (Char.chr (65 + (i mod 26))))
            ~txn:i ~prev_lsn:Lsn.nil Logrec.Update))
  done

let lsns log =
  let acc = ref [] in
  Logmgr.iter_from log Lsn.nil (fun r -> acc := r.Logrec.lsn :: !acc);
  List.rev !acc

(* A crash that tears the last (unflushed) record mid-frame recovers to
   exactly the same log as a clean crash at the flushed boundary: the tail
   scan drops the torn fragment, never trusting garbage. *)
let test_torn_tail_mid_record_equals_clean_crash () =
  clean (fun () ->
      let build () =
        let log = Logmgr.create ~segment_size:4096 () in
        append_n log ~lo:1 ~hi:5 ~len:24;
        Logmgr.flush log;
        (* one large in-flight record, never flushed: the torn fragment the
           medium keeps is half a frame — structurally invalid *)
        append_n log ~lo:6 ~hi:6 ~len:120;
        log
      in
      let control = build () in
      Logmgr.crash control;
      let torn = build () in
      let sink = Stats.create () in
      Stats.with_sink sink (fun () ->
          Faultdisk.arm ~seed:1 { no_faults with Faultdisk.torn_append = true };
          Logmgr.crash torn;
          Faultdisk.disarm ());
      Alcotest.(check bool) "a torn fragment was truncated" true
        (Stats.get sink Stats.log_tail_truncated_bytes > 0);
      Alcotest.(check (list int)) "recovered records identical" (lsns control) (lsns torn);
      Alcotest.(check int) "end offsets identical" (Logmgr.end_offset control)
        (Logmgr.end_offset torn);
      Alcotest.(check int) "flushed boundaries identical" (Logmgr.flushed_offset control)
        (Logmgr.flushed_offset torn))

(* When the kept fragment happens to contain a {e complete}, CRC-valid
   record beyond the recorded stable boundary, the scan keeps it: it was
   written but never acknowledged — recovering it is legal, losing it
   would also have been legal, corrupting it is not an option. *)
let test_torn_tail_keeps_complete_records () =
  clean (fun () ->
      let log = Logmgr.create ~segment_size:4096 () in
      append_n log ~lo:1 ~hi:3 ~len:24;
      Logmgr.flush log;
      let flushed = Logmgr.flushed_offset log in
      (* two identically-sized unflushed records: the medium keeps exactly
         the first one (the torn-append fraction is one half) *)
      append_n log ~lo:4 ~hi:5 ~len:40;
      Faultdisk.arm ~seed:1 { no_faults with Faultdisk.torn_append = true };
      Logmgr.crash log;
      Faultdisk.disarm ();
      Alcotest.(check int) "four records survive (three stable + one complete straggler)" 4
        (Logmgr.record_count log);
      Alcotest.(check bool) "the straggler lies beyond the old stable boundary" true
        (Logmgr.flushed_offset log > flushed);
      (* and the survivor replays cleanly, CRC verified *)
      let r = Logmgr.read log (Logmgr.last_lsn log) in
      Alcotest.(check int) "straggler decodes" 4 r.Logrec.txn)

(* A sealed segment whose archived/serialized bytes rot fails its footer
   CRC loudly and typed on load. *)
let test_log_image_rot_is_typed () =
  let log = Logmgr.create ~segment_size:128 () in
  append_n log ~lo:1 ~hi:12 ~len:40;  (* several sealed segments *)
  Logmgr.flush log;
  let img = Logmgr.serialize log in
  (* corrupt a byte inside the first segment's record bytes: the payload
     pattern (runs of 'B') starts a few bytes into the image *)
  let hit = ref false in
  (try
     for i = 0 to Bytes.length img - 4 do
       if (not !hit) && Bytes.sub_string img i 4 = "BBBB" then begin
         Bytes.set img i 'Z';
         hit := true;
         raise Exit
       end
     done
   with Exit -> ());
  Alcotest.(check bool) "found payload bytes to corrupt" true !hit;
  match Logmgr.deserialize img with
  | _ -> Alcotest.fail "rotten log image loaded silently"
  | exception Storage_error.Error { cause = Storage_error.Checksum | Storage_error.Decode; _ } ->
      ()

let test_garbage_deserialize_is_typed () =
  let garbage = Bytes.of_string "\x0c\x00\x00\x00not a valid image at all" in
  (match Disk.deserialize garbage with
  | _ -> Alcotest.fail "Disk.deserialize accepted garbage"
  | exception Storage_error.Error { cause = Storage_error.Decode; _ } -> ());
  (match Logmgr.deserialize garbage with
  | _ -> Alcotest.fail "Logmgr.deserialize accepted garbage"
  | exception Storage_error.Error { cause = Storage_error.Decode; _ } -> ());
  (* a log image that frames but names an impossible segment size *)
  let bad_size = Logmgr.serialize (Logmgr.create ()) in
  Bytes.set_int64_le bad_size 16 8L;
  (match Logmgr.deserialize bad_size with
  | _ -> Alcotest.fail "Logmgr.deserialize accepted an 8-byte segment size"
  | exception Storage_error.Error { cause = Storage_error.Decode; _ } -> ());
  match Media.Archive.deserialize_from (Aries_wal.Logset.create ()) (Bytebuf.R.of_bytes garbage) with
  | _ -> Alcotest.fail "Archive.deserialize_from accepted garbage"
  | exception Storage_error.Error { cause = Storage_error.Decode; _ } -> ()

(* A saved snapshot whose archive holds reclaimed segments, as the file's
   bytes, and the offset of its archive part: the image is four
   u32-length-prefixed parts (magic, disk, live log, archive). *)
let snapshot_with_archive () =
  let db, tree = fresh ~segment_size:512 () in
  insert_range db tree 0 99;
  Bufpool.flush_all db.Db.pool;
  Db.checkpoint db;
  Alcotest.(check bool) "log prefix reclaimed" true (Db.trim_log db > 0);
  insert_range db tree 100 119;
  let path = Filename.temp_file "ariesim" ".adb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Db.save db path;
      let img = In_channel.with_open_bin path In_channel.input_all in
      let u32 off = Int32.to_int (String.get_int32_le img off) land 0xFFFFFFFF in
      let rec part off k = if k = 0 then off else part (off + 4 + u32 off) (k - 1) in
      let arch = part 0 3 + 4 in
      Alcotest.(check int) "archive part runs to the end" (String.length img) (arch + u32 (arch - 4));
      (Bytes.of_string img, arch))

let load_bytes img =
  let path = Filename.temp_file "ariesim" ".adb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc img);
      Db.load path)

(* Archive part: [u32 streams][i64 log id][u32 segments], then per segment
   [i64 base][u32 records][u32 len][bytes][u32 crc]. *)
let test_snapshot_archive_rot_is_typed () =
  clean (fun () ->
      let img, arch = snapshot_with_archive () in
      let first_data = arch + 4 + 8 + 4 + 8 + 4 + 4 in
      let i = first_data + 10 in
      Bytes.set img i (Char.chr (Char.code (Bytes.get img i) lxor 0x40));
      match load_bytes img with
      | _ -> Alcotest.fail "rotten archived segment loaded silently"
      | exception Storage_error.Error { cause = Storage_error.Checksum; _ } -> ())

let test_snapshot_cut_in_archive_is_typed () =
  clean (fun () ->
      let img, arch = snapshot_with_archive () in
      match load_bytes (Bytes.sub img 0 (arch + 40)) with
      | _ -> Alcotest.fail "short snapshot loaded silently"
      | exception Storage_error.Error { cause = Storage_error.Decode; _ } -> ())

(* ------------------------------------------------------------------ *)
(* Bounded retry and typed exhaustion                                 *)

let test_retry_exhaustion_is_typed () =
  clean (fun () ->
      let db, tree = fresh () in
      insert_range db tree 0 49;
      (* a disk that always fails writes: the bounded retry must give up
         with a typed Retry_exhausted, never hang or silently drop *)
      Faultdisk.arm ~seed:7 { no_faults with Faultdisk.eio_write_p = 1.0 };
      (match Bufpool.flush_all db.Db.pool with
      | _ -> Alcotest.fail "flush over an always-failing disk succeeded"
      | exception Storage_error.Error { cause = Storage_error.Retry_exhausted; _ } -> ());
      Faultdisk.disarm ();
      (* a disk that always fails reads, ditto *)
      Bufpool.flush_all db.Db.pool;
      Bufpool.crash db.Db.pool;
      Faultdisk.arm ~seed:7 { no_faults with Faultdisk.eio_read_p = 1.0 };
      (match Bufpool.fix_opt db.Db.pool (Btree.root_pid tree) with
      | _ -> Alcotest.fail "read over an always-failing disk succeeded"
      | exception Storage_error.Error { cause = Storage_error.Retry_exhausted; _ } -> ());
      Faultdisk.disarm ();
      (* and with the storm gone, everything still works *)
      Alcotest.(check int) "contents intact after the storms" 50
        (Db.run_exn db (fun () -> List.length (Btree.to_list tree))))

(* Transient-EIO storm against the batched commit pipeline: forces fail
   and are retried, but no committer is ever acknowledged before its
   covering force lands (rule R4 stays green through the whole run), and
   no batch is dropped. *)
let test_eio_storm_group_commit () =
  clean (fun () ->
      let db, tree =
        fresh
          ~commit_mode:(Db.Group { Aries_txn.Group_commit.max_batch = 4; max_delay_steps = 6 })
          ()
      in
      let sink = Stats.create () in
      Stats.with_sink sink (fun () ->
          Faultdisk.arm ~seed:3 { no_faults with Faultdisk.eio_force_p = 0.4 };
          Fun.protect ~finally:Faultdisk.disarm (fun () ->
              Trace.reset ();
              Discipline.reset ();
              let acked = ref 0 in
              let result =
                Db.run db ~policy:(Aries_sched.Sched.Random 42) (fun () ->
                    for f = 0 to 3 do
                      ignore
                        (Aries_sched.Sched.spawn
                           ~name:(Printf.sprintf "committer-%d" f)
                           (fun () ->
                             for i = 0 to 7 do
                               Db.with_txn db (fun txn ->
                                   Btree.insert tree txn
                                     ~value:(Printf.sprintf "f%d-%02d" f i)
                                     ~rid:(rid ((f * 100) + i)));
                               incr acked
                             done))
                    done)
              in
              (match result.Aries_sched.Sched.outcome with
              | Aries_sched.Sched.Completed -> ()
              | _ -> Alcotest.fail "storm run did not complete");
              List.iter
                (fun (_, name, e) ->
                  Alcotest.failf "fiber %s raised %s" name (Printexc.to_string e))
                result.Aries_sched.Sched.exns;
              Alcotest.(check int) "all 32 commits acked" 32 !acked;
              Alcotest.(check int) "zero discipline violations (R4 green)" 0
                (Discipline.violations ());
              (* every acked commit is covered by a force that actually
                 reached stable storage *)
              Alcotest.(check bool) "acked work is stable" true
                (Logmgr.flushed_offset db.Db.wal > 0)));
      Alcotest.(check bool) "the storm actually hit the force path" true
        (Stats.get sink Stats.disk_eio_injected > 0);
      Alcotest.(check bool) "forces were retried" true (Stats.get sink Stats.disk_retries > 0);
      (* and the data is all there *)
      Alcotest.(check int) "all rows present" 32
        (Db.run_exn db (fun () -> List.length (Btree.to_list tree))))

(* ------------------------------------------------------------------ *)
(* Automatic media repair through the pool's repairer hook            *)

let test_auto_repair_bit_rot () =
  clean (fun () ->
      let db, tree = fresh () in
      insert_range db tree 0 149;
      Bufpool.flush_all db.Db.pool;
      let victim = Btree.root_pid tree in
      Disk.corrupt_flip ~seed:5 db.Db.disk victim;
      Bufpool.drop db.Db.pool victim;
      let sink = Stats.create () in
      let n =
        Stats.with_sink sink (fun () ->
            Db.run_exn db (fun () -> List.length (Btree.to_list tree)))
      in
      (* the rotten root healed transparently mid-scan: no dump, no manual
         recover_page — the pool quarantined it and the Db-installed
         repairer rebuilt it from the archive + log history *)
      Alcotest.(check int) "all rows readable through the repair" 150 n;
      Alcotest.(check int) "one quarantine" 1 (Stats.get sink Stats.disk_quarantines);
      Alcotest.(check int) "one repair" 1 (Stats.get sink Stats.disk_repairs);
      Db.run_exn db (fun () -> Btree.check_invariants tree);
      (* the healed image is durable: a direct disk read verifies *)
      match Disk.read db.Db.disk victim with
      | Some _ -> ()
      | None -> Alcotest.fail "repaired page not durable")

(* The same heal when the log prefix holding the page's early history has
   been truncated away: the roll-forward must read reclaimed segments from
   the archive before the live log. *)
let test_auto_repair_across_truncation () =
  clean (fun () ->
      let db, tree = fresh ~segment_size:512 () in
      insert_range db tree 0 99;
      Bufpool.flush_all db.Db.pool;
      Db.checkpoint db;
      let reclaimed = Db.trim_log db in
      Alcotest.(check bool) "log prefix actually reclaimed" true (reclaimed > 0);
      insert_range db tree 100 149;
      Bufpool.flush_all db.Db.pool;
      let victim = Btree.root_pid tree in
      Disk.corrupt_flip ~seed:13 db.Db.disk victim;
      Bufpool.drop db.Db.pool victim;
      let sink = Stats.create () in
      let n =
        Stats.with_sink sink (fun () ->
            Db.run_exn db (fun () -> List.length (Btree.to_list tree)))
      in
      Alcotest.(check int) "all rows readable after repair across truncation" 150 n;
      Alcotest.(check bool) "repair ran" true (Stats.get sink Stats.disk_repairs > 0);
      Db.run_exn db (fun () -> Btree.check_invariants tree))

let () =
  Alcotest.run "faults"
    [
      ( "page-crc",
        [
          Alcotest.test_case "bit-rot detected, typed, pid attached" `Quick
            test_page_crc_detects_flip;
          Alcotest.test_case "v1 image is a Decode error" `Quick test_page_v1_image_rejected;
          Alcotest.test_case "crc.check-disabled meta-fault" `Quick test_crc_disabled_meta_fault;
          Alcotest.test_case "corrupt_flip / corrupt_drop" `Quick test_corrupt_variants;
        ] );
      ( "log-crc",
        [
          Alcotest.test_case "torn tail mid-record = clean crash" `Quick
            test_torn_tail_mid_record_equals_clean_crash;
          Alcotest.test_case "complete unflushed records survive the scan" `Quick
            test_torn_tail_keeps_complete_records;
          Alcotest.test_case "rotten sealed segment is typed on load" `Quick
            test_log_image_rot_is_typed;
          Alcotest.test_case "garbage deserialize is typed everywhere" `Quick
            test_garbage_deserialize_is_typed;
          Alcotest.test_case "rotten archived segment in a snapshot" `Quick
            test_snapshot_archive_rot_is_typed;
          Alcotest.test_case "snapshot cut inside its archive" `Quick
            test_snapshot_cut_in_archive_is_typed;
        ] );
      ( "retry",
        [
          Alcotest.test_case "retry exhaustion is typed" `Quick test_retry_exhaustion_is_typed;
          Alcotest.test_case "EIO storm vs group commit: no early acks" `Quick
            test_eio_storm_group_commit;
        ] );
      ( "repair",
        [
          Alcotest.test_case "bit-rot heals transparently" `Quick test_auto_repair_bit_rot;
          Alcotest.test_case "heal across log truncation (archive history)" `Quick
            test_auto_repair_across_truncation;
        ] );
    ]
