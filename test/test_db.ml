(* Table layer: records + multiple indexes, data-only locking wiring,
   update re-keying, crash recovery of tables, record-manager corner
   cases. *)

open Aries_util
module Lockmgr = Aries_lock.Lockmgr
module Txnmgr = Aries_txn.Txnmgr
module Btree = Aries_btree.Btree
module Db = Aries_db.Db
module Table = Aries_db.Table
module Recmgr = Aries_db.Recmgr
module Sched = Aries_sched.Sched

let specs =
  [
    { Table.sp_name = "pk"; sp_unique = true; sp_key = (fun row -> row.(0)) };
    { Table.sp_name = "city"; sp_unique = false; sp_key = (fun row -> row.(1)) };
  ]

let setup ?(page_size = 512) ?segment_size () =
  let db = Db.create ~page_size ?segment_size () in
  let tbl = Db.run_exn db (fun () -> Db.with_txn db (fun txn -> Table.create db txn ~id:1 specs)) in
  (db, tbl)

let row name city balance = [| name; city; balance |]

let test_insert_fetch () =
  let db, tbl = setup () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          ignore (Table.insert tbl txn (row "alice" "sf" "100"));
          ignore (Table.insert tbl txn (row "bob" "nyc" "200"))));
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          match Table.fetch tbl txn ~index:"pk" "alice" with
          | Some (_, r) ->
              Alcotest.(check string) "city" "sf" r.(1);
              Alcotest.(check string) "balance" "100" r.(2)
          | None -> Alcotest.fail "alice missing"));
  Alcotest.(check int) "two records" 2 (Table.count tbl)

let test_secondary_index_scan () =
  let db, tbl = setup () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 29 do
            ignore
              (Table.insert tbl txn
                 (row (Printf.sprintf "user%02d" i) (if i mod 3 = 0 then "sf" else "la") "0"))
          done));
  let sf =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Table.scan tbl txn ~index:"city" "sf" ~stop:("sf", `Le) ()))
  in
  Alcotest.(check int) "10 in sf" 10 (List.length sf)

let test_delete_removes_everywhere () =
  let db, tbl = setup () in
  let rid =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Table.insert tbl txn (row "carol" "sf" "1")))
  in
  Db.run_exn db (fun () -> Db.with_txn db (fun txn -> Table.delete tbl txn rid));
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          Alcotest.(check bool) "pk entry gone" true (Table.fetch tbl txn ~index:"pk" "carol" = None)));
  Alcotest.(check int) "record gone" 0 (Table.count tbl);
  List.iter (fun (_, bt) -> Btree.check_invariants bt) (Table.indexes tbl)

let test_update_rekeys_changed_only () =
  let db, tbl = setup () in
  let rid =
    Db.run_exn db (fun () -> Db.with_txn db (fun txn -> Table.insert tbl txn (row "dan" "sf" "5")))
  in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn -> Table.update tbl txn rid (row "dan" "nyc" "6")));
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          (match Table.fetch tbl txn ~index:"pk" "dan" with
          | Some (_, r) -> Alcotest.(check string) "new city" "nyc" r.(1)
          | None -> Alcotest.fail "dan missing");
          let in_sf = Table.scan tbl txn ~index:"city" "sf" ~stop:("sf", `Le) () in
          Alcotest.(check int) "old city entry gone" 0 (List.length in_sf)))

let test_pk_uniqueness () =
  let db, tbl = setup () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn -> ignore (Table.insert tbl txn (row "eve" "sf" "1"))));
  Db.run_exn db (fun () ->
      let txn = Txnmgr.begin_txn db.Db.mgr in
      (match Table.insert tbl txn (row "eve" "la" "2") with
      | _ -> Alcotest.fail "expected Unique_violation"
      | exception Btree.Unique_violation _ -> ());
      Txnmgr.rollback db.Db.mgr txn);
  Alcotest.(check int) "only one eve" 1 (Table.count tbl)

let test_rollback_whole_row () =
  let db, tbl = setup () in
  Db.run_exn db (fun () ->
      let txn = Txnmgr.begin_txn db.Db.mgr in
      ignore (Table.insert tbl txn (row "frank" "sf" "1"));
      Txnmgr.rollback db.Db.mgr txn);
  Alcotest.(check int) "no record" 0 (Table.count tbl);
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          Alcotest.(check bool) "no index entry" true (Table.fetch tbl txn ~index:"pk" "frank" = None)))

let test_table_crash_recovery () =
  let db, tbl = setup () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 49 do
            ignore (Table.insert tbl txn (row (Printf.sprintf "user%02d" i) "sf" "0"))
          done));
  (* plus an uncommitted transaction caught by the crash *)
  ignore
    (Db.run db (fun () ->
         let txn = Txnmgr.begin_txn db.Db.mgr in
         for i = 50 to 69 do
           ignore (Table.insert tbl txn (row (Printf.sprintf "user%02d" i) "la" "0"))
         done;
         Aries_wal.Logmgr.flush db.Db.wal));
  let db' = Db.crash db in
  ignore (Db.run_exn db' (fun () -> Db.restart db'));
  let tbl' = Table.open_existing db' ~id:1 specs in
  Alcotest.(check int) "committed rows recovered" 50 (Table.count tbl');
  List.iter (fun (_, bt) -> Btree.check_invariants bt) (Table.indexes tbl');
  Db.run_exn db' (fun () ->
      Db.with_txn db' (fun txn ->
          Alcotest.(check bool) "committed row readable" true
            (Table.fetch tbl' txn ~index:"pk" "user00" <> None);
          Alcotest.(check bool) "uncommitted row gone" true
            (Table.fetch tbl' txn ~index:"pk" "user55" = None)))

(* Reopening a table while instant restart still drains must find every
   heap page — including pages that never reached disk and are still
   pending redo, which neither the disk nor the pool's frames list. *)
let test_open_during_instant_drain () =
  let db, tbl = setup () in
  Aries_buffer.Bufpool.flush_all db.Db.pool;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 99 do
            ignore (Table.insert tbl txn (row (Printf.sprintf "user%03d" i) "sf" "0"))
          done));
  let pages = List.length (Recmgr.page_ids (Table.heap tbl)) in
  Alcotest.(check bool) "rows span new heap pages" true (pages > 2);
  let db' = Db.crash db in
  Db.run_exn db' (fun () ->
      ignore (Db.restart ~instant:true db');
      let en = Option.get (Db.restart_engine db') in
      Alcotest.(check bool) "drain still pending" false (Aries_recovery.Restart.finished en);
      let tbl' = Table.open_existing db' ~id:1 specs in
      Alcotest.(check int) "every heap page found" pages
        (List.length (Recmgr.page_ids (Table.heap tbl')));
      Table.check_consistency tbl');
  Alcotest.(check (list string)) "no leaks" [] (Db.leak_report db')

(* A crash keeps the pool's frame count. *)
let test_crash_keeps_pool_capacity () =
  let db = Db.create ~pool_capacity:16 () in
  let db' = Db.crash db in
  Alcotest.(check int) "frames after crash" 16 (Aries_buffer.Bufpool.capacity db'.Db.pool)

let test_data_only_locking_counts () =
  (* data-only: fetch through the index takes NO extra record lock *)
  let db, tbl = setup () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn -> ignore (Table.insert tbl txn (row "gina" "sf" "0"))));
  let s = Stats.create () in
  Db.run_exn db (fun () ->
      Stats.with_sink s (fun () ->
          Db.with_txn db (fun txn -> ignore (Table.fetch tbl txn ~index:"pk" "gina"))));
  (* IS table lock + S key(=record) lock = 2 requests total *)
  Alcotest.(check int) "two lock requests for a data-only fetch" 2
    (Stats.get s Stats.lock_requests)

let test_slot_reuse_blocked_by_uncommitted_delete () =
  let db, tbl = setup () in
  let rid1 =
    Db.run_exn db (fun () -> Db.with_txn db (fun txn -> Table.insert tbl txn (row "henry" "sf" "0")))
  in
  (* delete in a txn that stays open, insert from another txn: must use a
     new slot because the old one's lock is held *)
  let rid2 = ref Ids.nil_rid in
  ignore
    (Db.run db (fun () ->
         ignore
           (Sched.spawn (fun () ->
                let t1 = Txnmgr.begin_txn db.Db.mgr in
                Table.delete tbl t1 rid1;
                Sched.yield ();
                Sched.yield ();
                Txnmgr.commit db.Db.mgr t1));
         ignore
           (Sched.spawn (fun () ->
                Sched.yield ();
                let t2 = Txnmgr.begin_txn db.Db.mgr in
                rid2 := Table.insert tbl t2 (row "iris" "sf" "0");
                Txnmgr.commit db.Db.mgr t2))));
  Alcotest.(check bool) "different slot while delete uncommitted" true (!rid2 <> rid1);
  Alcotest.(check int) "one live record" 1 (Table.count tbl)

let test_read_direct () =
  let db, tbl = setup () in
  let rid =
    Db.run_exn db (fun () -> Db.with_txn db (fun txn -> Table.insert tbl txn (row "judy" "sf" "9")))
  in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          match Table.read tbl txn rid with
          | Some r -> Alcotest.(check string) "name" "judy" r.(0)
          | None -> Alcotest.fail "missing"));
  (* direct read takes IS table + S record locks *)
  ()

let test_large_records_span_pages () =
  let db, tbl = setup ~page_size:512 () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 19 do
            ignore
              (Table.insert tbl txn (row (Printf.sprintf "user%02d" i) "sf" (String.make 100 'x')))
          done));
  Alcotest.(check bool) "heap grew beyond one page" true
    (List.length (Recmgr.page_ids (Table.heap tbl)) > 1);
  Alcotest.(check int) "all present" 20 (Table.count tbl)

(* ---------- snapshot persistence ---------- *)

let test_save_load_roundtrip () =
  let db, tbl = setup () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 39 do
            ignore (Table.insert tbl txn (row (Printf.sprintf "user%02d" i) "sf" "1"))
          done));
  let path = Filename.temp_file "ariesim" ".adb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* save stable state; the pool is NOT flushed, so load+restart must
         redo everything from the log *)
      Db.save db path;
      let db' = Db.load path in
      ignore (Db.run_exn db' (fun () -> Db.restart db'));
      let tbl' = Table.open_existing db' ~id:1 specs in
      Alcotest.(check int) "all rows back via redo" 40 (Table.count tbl');
      List.iter (fun (_, bt) -> Btree.check_invariants bt) (Table.indexes tbl'));
  ()

let test_save_excludes_volatile_tail () =
  let db, tbl = setup () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn -> ignore (Table.insert tbl txn (row "keep" "sf" "1"))));
  (* an uncommitted txn with an UNFLUSHED tail: its records must not be in
     the snapshot at all *)
  ignore
    (Db.run db (fun () ->
         let t = Txnmgr.begin_txn db.Db.mgr in
         ignore (Table.insert tbl t (row "ghost" "sf" "1"))));
  let path = Filename.temp_file "ariesim" ".adb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Db.save db path;
      let db' = Db.load path in
      let report = Db.run_exn db' (fun () -> Db.restart db') in
      Alcotest.(check int) "no losers: the tail never became stable" 0
        (List.length report.Aries_recovery.Restart.rp_losers);
      let tbl' = Table.open_existing db' ~id:1 specs in
      Alcotest.(check int) "only the committed row" 1 (Table.count tbl'));
  ()

let test_save_load_with_losers () =
  let db, tbl = setup () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 19 do
            ignore (Table.insert tbl txn (row (Printf.sprintf "user%02d" i) "sf" "1"))
          done));
  (* a loser in flight at snapshot time, with its records FLUSHED so they
     are part of the stable prefix the snapshot captures: load + restart
     must report it as a loser and roll it back *)
  ignore
    (Db.run db (fun () ->
         let t = Txnmgr.begin_txn db.Db.mgr in
         for i = 0 to 9 do
           ignore (Table.insert tbl t (row (Printf.sprintf "loser%02d" i) "la" "1"))
         done;
         Aries_wal.Logmgr.flush db.Db.wal));
  let path = Filename.temp_file "ariesim" ".adb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Db.save db path;
      let db' = Db.load path in
      let report = Db.run_exn db' (fun () -> Db.restart db') in
      Alcotest.(check int) "one loser rolled back by restart" 1
        (List.length report.Aries_recovery.Restart.rp_losers);
      let tbl' = Table.open_existing db' ~id:1 specs in
      Alcotest.(check int) "committed rows only" 20 (Table.count tbl');
      Db.run_exn db' (fun () ->
          Db.with_txn db' (fun txn ->
              Alcotest.(check bool) "loser row gone" true
                (Table.fetch tbl' txn ~index:"pk" "loser05" = None);
              Alcotest.(check bool) "committed row present" true
                (Table.fetch tbl' txn ~index:"pk" "user19" <> None)));
      List.iter (fun (_, bt) -> Btree.check_invariants bt) (Table.indexes tbl'));
  ()

(* A snapshot whose archive is not empty survives save -> load -> save
   byte for byte (but for the commit epoch a load advances); the loaded
   log history is the source's, record for record, archived part
   included; and media recovery on the loaded Db, which replays every page
   from the archive, rebuilds each page exactly as it stands. *)
(* The snapshot's bytes depend on the database's state alone: the archive
   is written in stream order, with nothing of the process that saves it
   (the ids it gave its logs), so two runs of one workload save the same
   image even when the second process created more logs first. *)
let test_save_is_process_independent () =
  let image () =
    let db, tbl = setup ~segment_size:512 () in
    let insert lo hi =
      Db.run_exn db (fun () ->
          Db.with_txn db (fun txn ->
              for i = lo to hi do
                ignore (Table.insert tbl txn (row (Printf.sprintf "user%02d" i) "sf" "1"))
              done))
    in
    insert 0 59;
    Aries_buffer.Bufpool.flush_all db.Db.pool;
    Db.checkpoint db;
    Alcotest.(check bool) "log prefix archived" true (Db.trim_log db > 0);
    insert 60 79;
    Aries_wal.Logset.flush_all db.Db.logs;
    let path = Filename.temp_file "ariesim" ".adb" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Db.save db path;
        In_channel.with_open_bin path In_channel.input_all)
  in
  let first = image () in
  for _ = 1 to 3 do
    ignore (Aries_wal.Logmgr.create ())
  done;
  Alcotest.(check bool) "byte-identical saves" true (String.equal first (image ()))

let test_archive_roundtrip_exact () =
  let db, tbl = setup ~segment_size:512 () in
  let insert lo hi =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn ->
            for i = lo to hi do
              ignore (Table.insert tbl txn (row (Printf.sprintf "user%02d" i) "sf" "1"))
            done))
  in
  insert 0 59;
  Aries_buffer.Bufpool.flush_all db.Db.pool;
  Db.checkpoint db;
  Alcotest.(check bool) "log prefix archived" true (Db.trim_log db > 0);
  insert 60 79;
  (* the snapshot keeps the stable log only: make all of it stable *)
  Aries_wal.Logset.flush_all db.Db.logs;
  let history db =
    let acc = ref [] in
    Db.iter_log_history db ~from:Aries_wal.Lsn.nil (fun r ->
        acc :=
          (r.Aries_wal.Logrec.lsn, r.Aries_wal.Logrec.txn,
           Aries_wal.Logrec.kind_to_string r.Aries_wal.Logrec.kind)
          :: !acc);
    List.rev !acc
  in
  let path = Filename.temp_file "ariesim" ".adb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let save db =
        Db.save db path;
        In_channel.with_open_bin path In_channel.input_all
      in
      let s1 = save db in
      let db' = Db.load path in
      let s2 = save db' in
      let s3 = save (Db.load path) in
      (* A load reopens the log in a new commit epoch
         (Logset.recover_counters), so the first re-save differs from the
         source in the live-log part's epoch field alone: the image is
         u32-length-prefixed parts (magic, disk, live log, archive) and the
         live-log part opens with [u16 streams][i64 epoch]. *)
      let u32 off = Int32.to_int (String.get_int32_le s1 off) land 0xFFFFFFFF in
      let epoch_at = 4 + u32 0 in
      let epoch_at = epoch_at + 4 + u32 epoch_at + 4 + 2 in
      let mask s = String.mapi (fun i c -> if i >= epoch_at && i < epoch_at + 8 then '\000' else c) s in
      Alcotest.(check bool) "re-save equals the source but for the epoch" true
        (String.equal (mask s1) (mask s2));
      Alcotest.(check int64) "one epoch on" (Int64.succ (String.get_int64_le s1 epoch_at))
        (String.get_int64_le s2 epoch_at);
      Alcotest.(check bool) "save -> load -> save is byte-identical" true (String.equal s2 s3);
      Alcotest.(check (list (triple int int string))) "same log history" (history db) (history db');
      ignore (Db.run_exn db' (fun () -> Db.restart db'));
      let pool = db'.Db.pool and disk = db'.Db.disk in
      Aries_buffer.Bufpool.flush_all pool;
      let image pid = Option.map snd (Aries_page.Disk.read_with_image disk pid) in
      let pids = Aries_page.Disk.pids disk in
      Alcotest.(check bool) "pages to repair" true (pids <> []);
      List.iter
        (fun pid ->
          let live = image pid in
          ignore (Aries_recovery.Media.auto_repair ~archive:db'.Db.archive db'.Db.mgr pool pid);
          Alcotest.(check bool) (Printf.sprintf "page %d repaired as it stood" pid) true
            (Option.equal Bytes.equal live (image pid)))
        pids;
      let tbl' = Table.open_existing db' ~id:1 specs in
      Alcotest.(check int) "all rows" 80 (Table.count tbl'))

let test_load_rejects_garbage () =
  let path = Filename.temp_file "ariesim" ".bad" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a snapshot";
      close_out oc;
      Alcotest.(check bool) "rejected" true
        (match Db.load path with
        | _ -> false
        (* unframeable bytes surface as a typed storage error, never a bare
           parser exception (PR 5) *)
        | exception Aries_util.Storage_error.Error { cause = Aries_util.Storage_error.Decode; _ }
          ->
            true))

(* A snapshot of an older format version is refused up front with the
   same typed error: a v5 image frames like a v6 one, but its checkpoint
   bodies carry lock lists that a v6 decoder would misread. *)
let test_load_rejects_old_version () =
  let db, tbl = setup () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn -> ignore (Table.insert tbl txn (row "keep" "sf" "1"))));
  let path = Filename.temp_file "ariesim" ".adb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Db.save db path;
      let img = In_channel.with_open_bin path In_channel.input_all in
      (* the magic follows its u32 length *)
      Alcotest.(check string) "current magic" "ARIESIM7" (String.sub img 4 8);
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub img 0 4 ^ "ARIESIM6");
          Out_channel.output_string oc (String.sub img 12 (String.length img - 12)));
      Alcotest.(check bool) "a v6 image is a typed Decode error" true
        (match Db.load path with
        | _ -> false
        | exception Aries_util.Storage_error.Error { cause = Aries_util.Storage_error.Decode; _ }
          ->
            true))

let test_oversized_record_rejected () =
  let db, tbl = setup ~page_size:512 () in
  Db.run_exn db (fun () ->
      let txn = Txnmgr.begin_txn db.Db.mgr in
      (match Table.insert tbl txn (row (String.make 600 'k') "sf" "1") with
      | _ -> Alcotest.fail "expected rejection"
      | exception Invalid_argument _ -> ());
      Txnmgr.rollback db.Db.mgr txn);
  Alcotest.(check int) "nothing stored" 0 (Table.count tbl)

let test_trim_log () =
  (* small segments: reclamation is whole-segment, and the workload must
     seal several below the safety point *)
  let db, tbl = setup ~segment_size:512 () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 59 do
            ignore (Table.insert tbl txn (row (Printf.sprintf "user%02d" i) "sf" "1"))
          done));
  Aries_buffer.Bufpool.flush_all db.Db.pool;
  Db.checkpoint db;
  let freed = Db.trim_log db in
  Alcotest.(check bool) "bytes reclaimed" true (freed > 0);
  (* more work, then a crash: restart must succeed from the trimmed log *)
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn -> ignore (Table.insert tbl txn (row "zafter" "sf" "1"))));
  let db' = Db.crash db in
  ignore (Db.run_exn db' (fun () -> Db.restart db'));
  let tbl' = Table.open_existing db' ~id:1 specs in
  Alcotest.(check int) "all rows intact after trim+crash" 61 (Table.count tbl');
  List.iter (fun (_, bt) -> Btree.check_invariants bt) (Table.indexes tbl')

let test_trim_blocked_by_active_txn () =
  let db, tbl = setup () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn -> ignore (Table.insert tbl txn (row "base" "sf" "1"))));
  Aries_buffer.Bufpool.flush_all db.Db.pool;
  (* an active txn whose first record predates the checkpoint *)
  ignore
    (Db.run db (fun () ->
         let t = Txnmgr.begin_txn db.Db.mgr in
         ignore (Table.insert tbl t (row "inflight" "sf" "1"));
         Db.checkpoint db;
         let before = Aries_wal.Logmgr.start_lsn db.Db.wal in
         ignore (Db.trim_log db);
         (* nothing below the in-flight txn's first record may go *)
         Alcotest.(check bool) "horizon respects the active txn" true
           (Aries_wal.Lsn.( <= ) (Aries_wal.Logmgr.start_lsn db.Db.wal) t.Txnmgr.firsts.(0));
         ignore before;
         Txnmgr.rollback db.Db.mgr t))

let test_trim_returns_zero_for_restored_txn () =
  let db, tbl = setup ~segment_size:256 () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn -> ignore (Table.insert tbl txn (row "base" "sf" "1"))));
  (* prepare an in-doubt txn, then crash: restart restores it with unknown
     extent (nil first_lsn) — a transaction of unknown extent must block
     trimming entirely, so trim_log returns exactly 0 *)
  ignore
    (Db.run db (fun () ->
         let t = Txnmgr.begin_txn db.Db.mgr in
         ignore (Table.insert tbl t (row "indoubt" "sf" "1"));
         Txnmgr.prepare db.Db.mgr t));
  let db' = Db.crash db in
  let report = Db.run_exn db' (fun () -> Db.restart db') in
  Alcotest.(check int) "one in-doubt txn restored" 1
    (List.length report.Aries_recovery.Restart.rp_indoubt);
  (* analysis recovered the in-doubt txn's first LSN (from the scan or the
     checkpoint body), so the safety point is pinned at it, not blocked *)
  let t' =
    match Txnmgr.active_txns db'.Db.mgr with
    | [ t ] -> t
    | _ -> Alcotest.fail "expected exactly the restored txn"
  in
  Alcotest.(check bool) "restored with known extent" true
    (not (Aries_wal.Lsn.is_nil t'.Txnmgr.firsts.(0)));
  Aries_buffer.Bufpool.flush_all db'.Db.pool;
  Db.checkpoint db';
  ignore (Db.trim_log db');
  Alcotest.(check bool) "horizon respects the in-doubt txn" true
    (Aries_wal.Lsn.( <= ) (Aries_wal.Logmgr.start_lsn db'.Db.wal) t'.Txnmgr.firsts.(0));
  (* a transaction of truly unknown extent — as a pre-first_lsn checkpoint
     body would restore — must block trimming entirely *)
  let ghost =
    Txnmgr.restore_txn db'.Db.mgr ~id:9999 ~state:Txnmgr.Prepared
      ~lasts:(Array.copy t'.Txnmgr.lasts) ~undo_nxts:(Array.copy t'.Txnmgr.lasts) ()
  in
  Alcotest.(check bool) "unknown extent blocks: no safety point" true
    (Db.safety_point db' = None);
  Alcotest.(check int) "trim blocked by txn of unknown extent: 0 bytes" 0 (Db.trim_log db');
  (* resolving both unblocks the horizon *)
  Db.run_exn db' (fun () ->
      Txnmgr.commit_prepared db'.Db.mgr ghost;
      Txnmgr.commit_prepared db'.Db.mgr t');
  Aries_buffer.Bufpool.flush_all db'.Db.pool;
  Db.checkpoint db';
  Alcotest.(check bool) "trim frees bytes once resolved" true (Db.trim_log db' > 0)

(* The lock table holds only live names: after many committed transactions
   over distinct keys (key-value, rid and next-key instant locks on both
   indexes), and one rolled back, no name is left behind. *)
let test_lock_table_drains () =
  let db, tbl = setup () in
  Db.run_exn db (fun () ->
      for i = 0 to 199 do
        Db.with_txn db (fun txn ->
            let key = Printf.sprintf "k%04d" i in
            let rid = Table.insert tbl txn (row key (Printf.sprintf "c%02d" (i mod 17)) "1") in
            ignore (Table.fetch tbl txn ~index:"pk" key);
            if i mod 3 = 0 then Table.delete tbl txn rid)
      done;
      let txn = Txnmgr.begin_txn db.Db.mgr in
      ignore (Table.insert tbl txn (row "loser" "c00" "1"));
      Txnmgr.rollback db.Db.mgr txn);
  Alcotest.(check int) "nothing held" 0 (Lockmgr.total_held db.Db.locks);
  Alcotest.(check int) "no name left in the table" 0 (Lockmgr.table_size db.Db.locks)

(* Updates log only their changed bytes: an update that grows, shrinks,
   changes nothing, or changes only the first or the last byte of a row.
   Redo after a crash rebuilds each new image on the old one the disk
   holds; rollback and classic and instant restart each put every old
   image back. *)
let trimmed_cases =
  [
    ("grows", "row-abcdef", "row-abcdefXYZ");
    ("shrinks", "row-abcdef", "row-ab");
    ("changes nothing", "row-abcdef", "row-abcdef");
    ("first byte", "row-abcdef", "Xow-abcdef");
    ("last byte", "row-abcdef", "row-abcdeX");
  ]

let test_trimmed_updates () =
  let setup_rows () =
    let db, tbl = setup () in
    let heap = Table.heap tbl in
    let rids =
      Db.run_exn db (fun () ->
          Db.with_txn db (fun txn ->
              List.map (fun (_, old_s, _) -> Recmgr.insert heap txn (Bytes.of_string old_s)) trimmed_cases))
    in
    (* the disk holds every old image *)
    Aries_buffer.Bufpool.flush_all db.Db.pool;
    (db, rids)
  in
  let update_all db rids txn =
    let heap = Table.heap (Table.open_existing db ~id:1 specs) in
    List.iter2
      (fun rid (_, _, new_s) -> ignore (Recmgr.update heap txn rid (Bytes.of_string new_s)))
      rids trimmed_cases
  in
  let check db rids what pick =
    let heap = Table.heap (Table.open_existing db ~id:1 specs) in
    List.iter2
      (fun rid ((name, _, _) as case) ->
        Alcotest.(check (option string))
          (Printf.sprintf "%s: %s" what name)
          (Some (pick case))
          (Db.run_exn db (fun () -> Option.map Bytes.to_string (Recmgr.read heap rid))))
      rids trimmed_cases
  in
  let new_image (_, _, n) = n and old_image (_, o, _) = o in
  (* redo after a crash *)
  let db, rids = setup_rows () in
  Db.run_exn db (fun () -> Db.with_txn db (fun txn -> update_all db rids txn));
  let db' = Db.crash db in
  ignore (Db.run_exn db' (fun () -> Db.restart db'));
  check db' rids "redo after a crash" new_image;
  (* undo by rollback *)
  let db, rids = setup_rows () in
  Db.run_exn db (fun () ->
      let txn = Txnmgr.begin_txn db.Db.mgr in
      update_all db rids txn;
      Txnmgr.rollback db.Db.mgr txn);
  check db rids "undo by rollback" old_image;
  (* undo of a loser by classic and by instant restart, with the new
     images on disk *)
  List.iter
    (fun instant ->
      let db, rids = setup_rows () in
      ignore
        (Db.run db (fun () ->
             let txn = Txnmgr.begin_txn db.Db.mgr in
             update_all db rids txn;
             Aries_buffer.Bufpool.flush_all db.Db.pool));
      let db' = Db.crash db in
      ignore (Db.run_exn db' (fun () -> Db.restart ~instant db'));
      check db' rids (if instant then "undo by instant restart" else "undo by classic restart") old_image;
      Alcotest.(check (list string)) "no leaks" [] (Db.leak_report db'))
    [ false; true ]

let () =
  Alcotest.run "db"
    [
      ( "table",
        [
          Alcotest.test_case "insert+fetch" `Quick test_insert_fetch;
          Alcotest.test_case "secondary index scan" `Quick test_secondary_index_scan;
          Alcotest.test_case "delete everywhere" `Quick test_delete_removes_everywhere;
          Alcotest.test_case "update re-keys" `Quick test_update_rekeys_changed_only;
          Alcotest.test_case "pk uniqueness" `Quick test_pk_uniqueness;
          Alcotest.test_case "rollback whole row" `Quick test_rollback_whole_row;
          Alcotest.test_case "crash recovery" `Quick test_table_crash_recovery;
          Alcotest.test_case "reopen during instant drain" `Quick test_open_during_instant_drain;
          Alcotest.test_case "trimmed updates redo and undo" `Quick test_trimmed_updates;
          Alcotest.test_case "crash keeps pool capacity" `Quick test_crash_keeps_pool_capacity;
          Alcotest.test_case "read direct" `Quick test_read_direct;
          Alcotest.test_case "records span pages" `Quick test_large_records_span_pages;
          Alcotest.test_case "lock table drains" `Quick test_lock_table_drains;
        ] );
      ( "locking",
        [
          Alcotest.test_case "data-only lock counts" `Quick test_data_only_locking_counts;
          Alcotest.test_case "slot reuse blocked" `Quick test_slot_reuse_blocked_by_uncommitted_delete;
        ] );
      ( "log-space",
        [
          Alcotest.test_case "trim + crash recovery" `Quick test_trim_log;
          Alcotest.test_case "trim blocked by active txn" `Quick test_trim_blocked_by_active_txn;
          Alcotest.test_case "trim returns 0 for restored txn" `Quick
            test_trim_returns_zero_for_restored_txn;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "volatile tail excluded" `Quick test_save_excludes_volatile_tail;
          Alcotest.test_case "losers in the snapshot" `Quick test_save_load_with_losers;
          Alcotest.test_case "archive round-trip is exact" `Quick test_archive_roundtrip_exact;
          Alcotest.test_case "save is process-independent" `Quick test_save_is_process_independent;
          Alcotest.test_case "garbage rejected" `Quick test_load_rejects_garbage;
          Alcotest.test_case "an older snapshot version is rejected" `Quick
            test_load_rejects_old_version;
          Alcotest.test_case "oversized record rejected" `Quick test_oversized_record_rejected;
        ] );
    ]
