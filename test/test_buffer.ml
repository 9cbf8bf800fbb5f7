(* Buffer manager: fix/unfix, LRU eviction, the WAL rule, dirty-page table,
   steal and no-force behaviour, crash semantics. *)

open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logmgr = Aries_wal.Logmgr
module Page = Aries_page.Page
module Disk = Aries_page.Disk
module Bufpool = Aries_buffer.Bufpool

let setup ?(capacity = 4) () =
  let disk = Disk.create ~page_size:512 () in
  let log = Logmgr.create () in
  let pool = Bufpool.create ~capacity disk (Aries_wal.Logset.of_mgr log) in
  (disk, log, pool)

let new_page pool =
  let pid = Disk.alloc_pid (Bufpool.disk pool) in
  let p = Bufpool.fix_new pool pid (Page.empty_leaf ()) in
  (pid, p)

let log_touch log page =
  let lsn =
    Logmgr.append log
      (Logrec.make ~page:page.Page.pid ~rm_id:1 ~op:1 ~body:Bytes.empty ~txn:1 ~prev_lsn:Lsn.nil
         Logrec.Update)
  in
  page.Page.page_lsn <- lsn;
  lsn

let test_fix_miss_and_hit () =
  let disk, _log, pool = setup () in
  let pid, p = new_page pool in
  Bufpool.unfix pool p;
  Bufpool.flush_page pool pid;
  (* dirty? not marked; force a write *)
  Disk.write disk p;
  Bufpool.drop pool pid;
  let s = Stats.create () in
  Stats.with_sink s (fun () ->
      let a = Bufpool.fix pool pid in
      let b = Bufpool.fix pool pid in
      Alcotest.(check bool) "same frame" true (a == b);
      Bufpool.unfix pool a;
      Bufpool.unfix pool b);
  Alcotest.(check int) "one disk read" 1 (Stats.get s Stats.page_reads)

let test_page_vanished () =
  let _, _, pool = setup () in
  Alcotest.(check bool) "vanished raises" true
    (match Bufpool.fix pool 424242 with
    | _ -> false
    | exception Bufpool.Page_vanished 424242 -> true)

let test_wal_rule () =
  (* writing a dirty page forces the log up to its page_lsn first *)
  let _disk, log, pool = setup () in
  let pid, p = new_page pool in
  let lsn = log_touch log p in
  Bufpool.mark_dirty pool p lsn;
  Bufpool.unfix pool p;
  Alcotest.(check bool) "log not yet stable" true (Lsn.( < ) (Logmgr.flushed_lsn log) lsn);
  Bufpool.flush_page pool pid;
  Alcotest.(check bool) "WAL: log stable through page_lsn" true
    (Lsn.( >= ) (Logmgr.flushed_lsn log) lsn)

let test_eviction_lru_writes_dirty () =
  let disk, log, pool = setup ~capacity:2 () in
  let pid1, p1 = new_page pool in
  let lsn = log_touch log p1 in
  Bufpool.mark_dirty pool p1 lsn;
  Bufpool.unfix pool p1;
  let _pid2, p2 = new_page pool in
  Bufpool.unfix pool p2;
  (* third page: p1 (LRU) must be evicted and, being dirty, written *)
  let _pid3, p3 = new_page pool in
  Bufpool.unfix pool p3;
  Alcotest.(check bool) "evicted dirty page reached disk" true (Disk.read disk pid1 <> None)

let test_fixed_pages_not_evicted () =
  let _disk, _log, pool = setup ~capacity:2 () in
  let _pid1, p1 = new_page pool in
  let _pid2, p2 = new_page pool in
  (* both fixed; allocating a third overflows but must not evict them *)
  let _pid3, p3 = new_page pool in
  Alcotest.(check int) "three fixed frames" 3 (Bufpool.fixed_count pool);
  Bufpool.unfix pool p1;
  Bufpool.unfix pool p2;
  Bufpool.unfix pool p3

let test_dirty_page_table () =
  let _disk, log, pool = setup () in
  let pid, p = new_page pool in
  Alcotest.(check int) "clean pool: empty DPT" 0 (List.length (Bufpool.dirty_page_table pool));
  let lsn1 = log_touch log p in
  Bufpool.mark_dirty pool p lsn1;
  let lsn2 = log_touch log p in
  Bufpool.mark_dirty pool p lsn2;
  (match Bufpool.dirty_page_table pool with
  | [ (dpid, rec_lsn) ] ->
      Alcotest.(check int) "pid" pid dpid;
      Alcotest.(check int) "recLSN is the FIRST dirtying lsn" lsn1 rec_lsn
  | other -> Alcotest.failf "unexpected DPT size %d" (List.length other));
  Bufpool.unfix pool p;
  Bufpool.flush_page pool pid;
  Alcotest.(check int) "flushed: clean again" 0 (List.length (Bufpool.dirty_page_table pool))

let test_crash_drops_everything () =
  let disk, log, pool = setup () in
  let pid, p = new_page pool in
  let lsn = log_touch log p in
  Bufpool.mark_dirty pool p lsn;
  Bufpool.unfix pool p;
  Bufpool.crash pool;
  Alcotest.(check bool) "never-written page is gone" true (Disk.read disk pid = None);
  Alcotest.(check int) "no dirty pages" 0 (List.length (Bufpool.dirty_page_table pool))

let test_steal_hook () =
  let disk, log, pool = setup () in
  Bufpool.set_steal_hook pool ~seed:1 ~probability:1.0;
  let pid, p = new_page pool in
  Bufpool.unfix pool p;
  let p = Bufpool.fix pool pid in
  let lsn = log_touch log p in
  Bufpool.unfix pool p;
  (* unfixed before mark_dirty so the hook may steal it *)
  let p = Bufpool.fix pool pid in
  Bufpool.unfix pool p;
  Bufpool.mark_dirty pool p lsn;
  Alcotest.(check bool) "stolen page written with WAL rule" true
    (Disk.read disk pid <> None && Lsn.( >= ) (Logmgr.flushed_lsn log) lsn)

let test_unfix_discipline () =
  let _, _, pool = setup () in
  let _pid, p = new_page pool in
  Bufpool.unfix pool p;
  Alcotest.(check bool) "double unfix raises" true
    (match Bufpool.unfix pool p with () -> false | exception Invalid_argument _ -> true)

(* ---------- Unlogged-mutation audit ---------- *)

(* A clean frame whose page_lsn moves without [mark_dirty] holds a change
   the pool would never write back. The audit counts it whether the frame
   was read in ([fix]) or created in the pool ([fix_new]); logging the
   change ([mark_dirty]) and writing it back clear it. *)
let test_unlogged_mutation_audit () =
  let _disk, log, pool = setup () in
  let read_pid, p = new_page pool in
  Bufpool.mark_dirty pool p (log_touch log p);
  Bufpool.unfix pool p;
  Bufpool.flush_page pool read_pid;
  Bufpool.drop pool read_pid;
  let read_in = Bufpool.fix pool read_pid in
  let _, created = new_page pool in
  Alcotest.(check int) "fresh frames pass" 0 (Bufpool.unlogged_mutations pool);
  ignore (log_touch log read_in);
  Alcotest.(check int) "read-in frame moved without mark_dirty" 1
    (Bufpool.unlogged_mutations pool);
  ignore (log_touch log created);
  Alcotest.(check int) "fix_new frame moved without mark_dirty" 2
    (Bufpool.unlogged_mutations pool);
  Bufpool.mark_dirty pool read_in read_in.Page.page_lsn;
  Alcotest.(check int) "a dirty frame is not counted" 1 (Bufpool.unlogged_mutations pool);
  Bufpool.mark_dirty pool created created.Page.page_lsn;
  List.iter
    (fun p ->
      Bufpool.unfix pool p;
      Bufpool.flush_page pool p.Page.pid)
    [ read_in; created ];
  Alcotest.(check int) "written back: clean and consistent" 0 (Bufpool.unlogged_mutations pool)

(* The same detector through [Db.leak_report]: an otherwise quiesced Db
   names the unlogged change. *)
let test_leak_report_names_unlogged_mutation () =
  let module Db = Aries_db.Db in
  let db = Db.create ~page_size:512 () in
  let pid = Disk.alloc_pid db.Db.disk in
  let p = Bufpool.fix_new db.Db.pool pid (Page.empty_leaf ()) in
  Bufpool.unfix db.Db.pool p;
  Alcotest.(check (list string)) "quiesced Db: no leaks" [] (Db.leak_report db);
  p.Page.page_lsn <- p.Page.page_lsn + 1;
  match Db.leak_report db with
  | [ leak ] ->
      Alcotest.(check bool) "the report names the unlogged mutation" true
        (String.length leak > 0 && leak.[0] = '1')
  | leaks -> Alcotest.failf "expected one leak, got [%s]" (String.concat "; " leaks)

let () =
  Alcotest.run "buffer"
    [
      ( "pool",
        [
          Alcotest.test_case "fix miss/hit" `Quick test_fix_miss_and_hit;
          Alcotest.test_case "page vanished" `Quick test_page_vanished;
          Alcotest.test_case "WAL rule" `Quick test_wal_rule;
          Alcotest.test_case "LRU eviction writes dirty" `Quick test_eviction_lru_writes_dirty;
          Alcotest.test_case "fixed pages pinned" `Quick test_fixed_pages_not_evicted;
          Alcotest.test_case "dirty page table recLSN" `Quick test_dirty_page_table;
          Alcotest.test_case "crash drops volatile state" `Quick test_crash_drops_everything;
          Alcotest.test_case "steal hook" `Quick test_steal_hook;
          Alcotest.test_case "unfix discipline" `Quick test_unfix_discipline;
        ] );
      ( "audit",
        [
          Alcotest.test_case "unlogged mutation is counted" `Quick test_unlogged_mutation_audit;
          Alcotest.test_case "leak report names it" `Quick
            test_leak_report_names_unlogged_mutation;
        ] );
    ]
