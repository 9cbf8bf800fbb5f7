(* The protocol event tracer and the latch/lock discipline checker:
   ring-buffer mechanics, each rule R1-R5 against hand-built event
   sequences, the two meta-faults (an unconditional lock wait under latch
   and a commit acked before its force) caught end-to-end through the real
   B-tree / transaction stack, the deadlock-victim path asserted from the
   trace itself, restart instrumentation surviving a crash mid-restart, and
   the <2x checker-overhead budget. *)

open Aries_util
module Trace = Aries_trace.Trace
module Discipline = Aries_trace.Discipline
module Lockmgr = Aries_lock.Lockmgr
module Logmgr = Aries_wal.Logmgr
module Btree = Aries_btree.Btree
module Protocol = Aries_btree.Protocol
module Txnmgr = Aries_txn.Txnmgr
module Sched = Aries_sched.Sched
module Db = Aries_db.Db
module Shardsim = Aries_sim.Shardsim
module Workload = Aries_sim.Workload

let rid i = { Ids.rid_page = 900 + (i / 100); rid_slot = i mod 100 }

let v i = Printf.sprintf "key%05d" i

let fresh ?config ?(page_size = 384) ?(unique = true) () =
  let db = Db.create ~page_size () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Btree.create ?config db.Db.benv txn ~name:"t" ~unique))
  in
  (db, tree)

let has_substring s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* every test starts from clean tracer/checker state and leaves the default
   Check mode behind for the rest of the suite *)
let clean f =
  Fun.protect
    ~finally:(fun () ->
      Crashpoint.clear ();
      Crashpoint.disarm ();
      Crashpoint.reset ();
      Trace.set_mode Trace.Check;
      Trace.set_capacity 4096;
      Trace.reset ();
      Discipline.reset ())
    (fun () ->
      Crashpoint.disarm ();
      Crashpoint.reset ();
      Trace.set_mode Trace.Check;
      Trace.reset ();
      Discipline.reset ();
      f ())

(* ------------------------------------------------------------------ *)
(* Ring buffer mechanics (Record mode: events land, nothing checks) *)

let test_ring_buffer () =
  clean (fun () ->
      Trace.set_mode Trace.Record;
      Trace.set_capacity 16;
      Alcotest.(check int) "capacity" 16 (Trace.capacity ());
      for i = 1 to 20 do
        Trace.emit (Trace.Note (Printf.sprintf "n%d" i))
      done;
      Alcotest.(check int) "total emitted" 20 (Trace.event_count ());
      let evs = Trace.events () in
      Alcotest.(check int) "retained window" 16 (List.length evs);
      (* oldest-first: the first 4 notes were overwritten *)
      (match (List.hd evs).Trace.ev_payload with
      | Trace.Note "n5" -> ()
      | p -> Alcotest.failf "oldest retained should be n5, got %s" (Trace.payload_to_string p));
      (match (List.hd (List.rev evs)).Trace.ev_payload with
      | Trace.Note "n20" -> ()
      | p -> Alcotest.failf "newest should be n20, got %s" (Trace.payload_to_string p));
      let last3 = Trace.last_events 3 in
      Alcotest.(check (list string))
        "last 3, oldest-first"
        [ "note n18"; "note n19"; "note n20" ]
        (List.map (fun e -> Trace.payload_to_string e.Trace.ev_payload) last3);
      (* outside any scheduler the context providers stamp -1 *)
      Alcotest.(check int) "fiber stamp outside sched" (-1) (List.hd evs).Trace.ev_fiber;
      (* dump_last renders and bumps the stats counter *)
      let before = Stats.get (Stats.current ()) Stats.trace_dumps in
      let dump = Trace.dump_last 4 in
      Alcotest.(check int) "dump lines" 4 (List.length dump);
      Alcotest.(check bool) "dump rendered" true (has_substring (List.hd dump) "note n17");
      Alcotest.(check int)
        "trace.dumps bumped" (before + 1)
        (Stats.get (Stats.current ()) Stats.trace_dumps);
      (* reset clears the ring but keeps mode *)
      Trace.reset ();
      Alcotest.(check int) "reset clears count" 0 (Trace.event_count ());
      Alcotest.(check bool) "mode survives reset" true (Trace.mode () = Trace.Record);
      (* Off mode: emit is a no-op *)
      Trace.set_mode Trace.Off;
      Trace.emit (Trace.Note "dropped");
      Alcotest.(check int) "off drops events" 0 (Trace.event_count ()))

(* Record mode must not check: a blatant R4 sequence sails through, and the
   same sequence under Check raises. *)
let test_record_does_not_check () =
  clean (fun () ->
      Trace.set_mode Trace.Record;
      Trace.emit (Trace.Log_open { log = 77; flushed = 0 });
      Trace.emit (Trace.Commit_ack { log = 77; txn = 1; lsn = 0; lsn_end = 100 });
      Alcotest.(check int) "no violation recorded" 0 (Discipline.violations ());
      Trace.set_mode Trace.Check;
      Trace.emit (Trace.Log_open { log = 77; flushed = 0 });
      (match Trace.emit (Trace.Commit_ack { log = 77; txn = 1; lsn = 0; lsn_end = 100 }) with
      | () -> Alcotest.fail "Check mode let an unforced ack through"
      | exception Discipline.Violation (Discipline.R4, _) -> ());
      Alcotest.(check int) "violation counted" 1 (Discipline.violations ()))

(* ------------------------------------------------------------------ *)
(* The dump format: one event of every payload constructor (and every
   lock name kind, mode and duration, restart phase and shard event),
   rendered through [event_to_string]. The sim reproducer dumps and the
   README examples use these lines, so the rendering is pinned byte for
   byte. *)

let golden_events =
  [
    (Trace.Run_begin { run = 2 }, "run-begin #2");
    ( Trace.Latch_acquire
        { kind = Trace.Page_latch; name = "p17"; mode = Trace.S; cond = true; waited = false },
      "latch-acquire page p17 S cond" );
    ( Trace.Latch_acquire
        { kind = Trace.Tree_latch; name = "tree3"; mode = Trace.X; cond = false; waited = true },
      "latch-acquire tree tree3 X waited" );
    ( Trace.Latch_try_fail { kind = Trace.Page_latch; name = "p4"; mode = Trace.X },
      "latch-try-fail page p4 X" );
    (Trace.Latch_release { kind = Trace.Tree_latch; name = "tree3" }, "latch-release tree tree3");
    ( Trace.Lock_request
        {
          txn = 3;
          name = Lockmgr.Key_value (7, "a\"b");
          mode = Lockmgr.S;
          duration = Lockmgr.Commit;
          cond = true;
        },
      "lock-request T3 S commit kv:7:\"a\\\"b\" cond" );
    ( Trace.Lock_request
        {
          txn = 4;
          name = Lockmgr.Rid { Ids.rid_page = 12; rid_slot = 5 };
          mode = Lockmgr.IX;
          duration = Lockmgr.Manual;
          cond = false;
        },
      "lock-request T4 IX manual rid:12.5" );
    ( Trace.Lock_grant
        {
          txn = 3;
          name = Lockmgr.Eof 7;
          mode = Lockmgr.X;
          duration = Lockmgr.Instant;
          waited = true;
        },
      "lock-grant T3 X instant eof:7 waited" );
    ( Trace.Lock_grant
        {
          txn = 5;
          name = Lockmgr.Table 2;
          mode = Lockmgr.SIX;
          duration = Lockmgr.Commit;
          waited = false;
        },
      "lock-grant T5 SIX commit table:2" );
    ( Trace.Lock_deny { txn = 6; name = Lockmgr.Page_lock 40; mode = Lockmgr.IS },
      "lock-deny T6 IS page:40" );
    ( Trace.Lock_wait { txn = 7; name = Lockmgr.Tree_lock 9; mode = Lockmgr.X },
      "lock-wait T7 X tree:9" );
    ( Trace.Lock_release { txn = 8; name = Lockmgr.Rid { Ids.rid_page = 1; rid_slot = 2 } },
      "lock-release T8 rid:1.2" );
    (Trace.Lock_release_all { txn = 8 }, "lock-release-all T8");
    (Trace.Deadlock_victim { txn = 9 }, "deadlock-victim T9");
    (Trace.Log_open { log = 1; flushed = 64 }, "log-open L1 flushed=64");
    ( Trace.Log_append { log = 1; lsn = 64; next = 96; kind = "update"; txn = 3 },
      "log-append L1 lsn=64 next=96 update T3" );
    (Trace.Log_force { log = 1; upto = 96; stable_lsn = 64 }, "log-force L1 upto=96 stable=64");
    (Trace.Log_seal { log = 1; base = 0; len = 4096 }, "log-seal L1 base=0 len=4096");
    (Trace.Log_safety { log = 1; safety = 2048 }, "log-safety L1 safety=2048");
    ( Trace.Log_truncate { log = 1; new_start = 4096; bytes = 4000; segments = 1 },
      "log-truncate L1 start=4096 bytes=4000 segments=1" );
    ( Trace.Log_tail_truncated { log = 1; at = 500; bytes = 12 },
      "log-tail-truncated L1 at=500 bytes=12" );
    ( Trace.Log_archive { log = 1; base = 0; len = 4096; records = 30 },
      "log-archive L1 base=0 len=4096 records=30" );
    ( Trace.Ckpt_take { log = 1; begin_lsn = 10; end_lsn = 50; redo = 5 },
      "ckpt-take L1 begin=10 end=50 redo=5" );
    (Trace.Page_fix { pool = 2; pid = 17 }, "page-fix B2/17");
    (Trace.Page_unfix { pid = 17 }, "page-unfix 17");
    ( Trace.Page_write { log = 1; pid = 17; page_lsn = 64; lsn_end = 96; rec_lsn = 32 },
      "page-write L1 pid=17 pageLSN=64 end=96 recLSN=32" );
    (Trace.Smo_begin { tree = 3; txn = 4; exclusive = false }, "smo-begin tree=3 T4 IX");
    (Trace.Smo_begin { tree = 3; txn = 4; exclusive = true }, "smo-begin tree=3 T4 X");
    (Trace.Smo_upgrade { tree = 3; txn = 4 }, "smo-upgrade tree=3 T4");
    (Trace.Smo_end { tree = 3; txn = 4 }, "smo-end tree=3 T4");
    (Trace.Commit_enqueue { txn = 4; lsn = 128 }, "commit-enqueue T4 lsn=128");
    ( Trace.Commit_ack { log = 1; txn = 4; lsn = 128; lsn_end = 160 },
      "commit-ack L1 T4 lsn=128 end=160" );
    ( Trace.Commit_fence { txn = 4; epoch = 2; targets = [ (1, 160); (2, 80) ] },
      "commit-fence T4 epoch=2 [L1<=160; L2<=80]" );
    ( Trace.Redo_apply { log = 1; pid = 17; lsn = 64; gsn = 9 },
      "redo-apply L1 pid=17 lsn=64 gsn=9" );
    (Trace.Daemon_spawn { name = "cleaner" }, "daemon-spawn cleaner");
    (Trace.Daemon_exit { name = "cleaner" }, "daemon-exit cleaner");
    (Trace.Restart_phase { phase = Trace.Analysis }, "restart-phase analysis");
    (Trace.Restart_phase { phase = Trace.Reacquire_locks }, "restart-phase reacquire-locks");
    (Trace.Restart_phase { phase = Trace.Redo }, "restart-phase redo");
    (Trace.Restart_phase { phase = Trace.Undo }, "restart-phase undo");
    (Trace.Restart_phase { phase = Trace.Open }, "restart-phase open");
    (Trace.Restart_phase { phase = Trace.Checkpoint }, "restart-phase checkpoint");
    (Trace.Restart_phase { phase = Trace.Done }, "restart-phase done");
    ( Trace.Protocol_locks
        {
          op = "insert";
          reqs =
            [
              {
                Protocol.lk_name = Lockmgr.Rid { Ids.rid_page = 1; rid_slot = 2 };
                lk_mode = Lockmgr.X;
                lk_duration = Lockmgr.Instant;
              };
              {
                Protocol.lk_name = Lockmgr.Key_value (7, "v");
                lk_mode = Lockmgr.X;
                lk_duration = Lockmgr.Commit;
              };
            ];
        },
      "protocol-locks insert [X instant rid:1.2; X commit kv:7:\"v\"]" );
    (Trace.Protocol_locks { op = "fetch"; reqs = [] }, "protocol-locks fetch []");
    ( Trace.Io_retry { target = "page-read"; pid = 17; attempt = 2 },
      "io-retry page-read pid=17 attempt=2" );
    ( Trace.Page_quarantined { pid = 17; cause = "crc mismatch" },
      "page-quarantined 17 (crc mismatch)" );
    (Trace.Page_repaired { pid = 17; records = 4 }, "page-repaired 17 records=4");
    (Trace.Restart_dpt { pool = 2; pid = 17; rec_lsn = 32 }, "restart-dpt B2/17 recLSN=32");
    ( Trace.Restart_redo_page { pool = 2; pid = 17; on_demand = true },
      "restart-redo-page B2/17 on-demand" );
    ( Trace.Restart_redo_page { pool = 2; pid = 18; on_demand = false },
      "restart-redo-page B2/18" );
    ( Trace.Restart_page_done { pool = 2; pid = 17; applied = 3 },
      "restart-page-done B2/17 applied=3" );
    (Trace.Restart_loser { txn = 11 }, "restart-loser T11");
    ( Trace.Restart_lock
        { txn = 11; name = Lockmgr.Rid { Ids.rid_page = 3; rid_slot = 4 }; mode = Lockmgr.X },
      "restart-lock T11 X rid:3.4" );
    (Trace.Restart_undo_txn { txn = 11; preempted = true }, "restart-undo-txn T11 preempted");
    (Trace.Restart_undo_txn { txn = 11; preempted = false }, "restart-undo-txn T11");
    (Trace.Restart_loser_done { txn = 11 }, "restart-loser-done T11");
    (Trace.Mvcc_pin { txn = 12; epoch = 1; gsn = 40 }, "mvcc-pin T12 csn=1.40");
    (Trace.Mvcc_read_begin { txn = 12 }, "mvcc-read-begin T12");
    ( Trace.Mvcc_read { txn = 12; epoch = 1; gsn = 38; visible = true },
      "mvcc-read T12 csn=1.38 visible" );
    ( Trace.Mvcc_read { txn = 12; epoch = 1; gsn = 41; visible = false },
      "mvcc-read T12 csn=1.41 invisible" );
    (Trace.Mvcc_read_end { txn = 12 }, "mvcc-read-end T12");
    (Trace.Mvcc_unpin { txn = 12 }, "mvcc-unpin T12");
    ( Trace.Vgc_round { reclaimed = 5; epoch = 1; gsn = 30 },
      "vgc-round reclaimed=5 horizon=1.30" );
    ( Trace.Twopc_prepared { gid = 1000001; shard = 1; txn = 3; targets = [ (4, 200); (5, 64) ] },
      "2pc-prepared G1000001 shard=1 T3 targets=[4:200;5:64]" );
    ( Trace.Twopc_decide { gid = 1000001; commit = true; log = 4; lsn_end = 240 },
      "2pc-decide G1000001 commit log=4 end=240" );
    ( Trace.Twopc_decide { gid = 1000002; commit = false; log = 4; lsn_end = 0 },
      "2pc-decide G1000002 abort log=4 end=0" );
    (Trace.Twopc_ack { gid = 1000001; committed = true }, "2pc-ack G1000001 committed");
    (Trace.Twopc_ack { gid = 1000002; committed = false }, "2pc-ack G1000002 aborted");
    ( Trace.Twopc_resolve { gid = 1000001; shard = 0; txn = 3; committed = true },
      "2pc-resolve G1000001 shard=0 T3 committed" );
    ( Trace.Twopc_resolve { gid = 1000002; shard = 1; txn = 6; committed = false },
      "2pc-resolve G1000002 shard=1 T6 aborted" );
    (Trace.Shard_event { shard = 1; what = Trace.Killed }, "shard 1 killed");
    (Trace.Shard_event { shard = 1; what = Trace.Revived }, "shard 1 revived");
    ( Trace.Shard_event { shard = 0; what = Trace.Parked { gid = 1000001 } },
      "shard 0 parked G1000001" );
    ( Trace.Shard_event { shard = 1; what = Trace.Indoubt_waiting { gid = 1000001; coord = 0 } },
      "shard 1 indoubt G1000001 waits on coordinator 0" );
    ( Trace.Global_victim { gid = 2000003; shard = 1; txn = 7 },
      "note global deadlock victim G2000003 (shard 1 txn 7)" );
    (Trace.Note "free text", "note free text");
  ]

let test_golden_rendering () =
  List.iteri
    (fun i (payload, want) ->
      let ev = { Trace.ev_step = 1000 + i; ev_fiber = i mod 12; ev_payload = payload } in
      Alcotest.(check string)
        (Printf.sprintf "event %d" i)
        (Printf.sprintf "step=%-6d fiber=%-3d %s" (1000 + i) (i mod 12) want)
        (Trace.event_to_string ev))
    golden_events;
  Alcotest.(check string) "a negative stamp (no scheduler running)"
    "step=-1     fiber=-1  lock-release-all T8"
    (Trace.event_to_string
       { Trace.ev_step = -1; ev_fiber = -1; ev_payload = Trace.Lock_release_all { txn = 8 } })

(* ------------------------------------------------------------------ *)
(* The checker, rule by rule, against hand-built event sequences *)

let ev ?(fiber = 1) p = { Trace.ev_step = 0; ev_fiber = fiber; ev_payload = p }

let expect rule f =
  match f () with
  | () -> Alcotest.failf "expected %s violation" (Discipline.rule_to_string rule)
  | exception Discipline.Violation (r, msg) ->
      Alcotest.(check string) "rule"
        (Discipline.rule_to_string rule)
        (Discipline.rule_to_string r);
      Alcotest.(check bool) "message carries the rule summary" true
        (has_substring msg (Discipline.rule_summary rule))

let page_latch name =
  Trace.Latch_acquire { kind = Trace.Page_latch; name; mode = Trace.X; cond = false; waited = false }

let test_rule_r1 () =
  let k1 = Lockmgr.Key_value (1, "k1") in
  clean (fun () ->
      Discipline.check (ev (page_latch "p7"));
      Alcotest.(check int) "depth tracked" 1 (Discipline.latch_depth ~fiber:1);
      expect Discipline.R1 (fun () ->
          Discipline.check (ev (Trace.Lock_wait { txn = 4; name = k1; mode = Lockmgr.X })));
      (* a different fiber holding no latch may wait freely *)
      Discipline.check (ev ~fiber:2 (Trace.Lock_wait { txn = 5; name = k1; mode = Lockmgr.X }));
      (* after release, the same fiber may wait too *)
      Discipline.check (ev (Trace.Latch_release { kind = Trace.Page_latch; name = "p7" }));
      Discipline.check (ev (Trace.Lock_wait { txn = 4; name = k1; mode = Lockmgr.X })))

let test_rule_r2_depth () =
  clean (fun () ->
      Discipline.check (ev (page_latch "p1"));
      Discipline.check (ev (page_latch "p2"));
      Discipline.check (ev (page_latch "p3"));
      expect Discipline.R2 (fun () -> Discipline.check (ev (page_latch "p4"))))

let test_rule_r2_inversion () =
  clean (fun () ->
      Discipline.check (ev (page_latch "p1"));
      (* conditional tree-latch grab under a page latch is the legal probe *)
      Discipline.check
        (ev
           (Trace.Latch_acquire
              { kind = Trace.Tree_latch; name = "t"; mode = Trace.X; cond = true; waited = false }));
      Discipline.check (ev (Trace.Latch_release { kind = Trace.Tree_latch; name = "t" }));
      (* the unconditional one is the child->parent inversion *)
      expect Discipline.R2 (fun () ->
          Discipline.check
            (ev
               (Trace.Latch_acquire
                  {
                    kind = Trace.Tree_latch;
                    name = "t";
                    mode = Trace.X;
                    cond = false;
                    waited = false;
                  }))))

let test_rule_r3 () =
  clean (fun () ->
      (* concurrent (IX) SMOs may overlap *)
      Discipline.check (ev (Trace.Smo_begin { tree = 9; txn = 1; exclusive = false }));
      Discipline.check (ev (Trace.Smo_begin { tree = 9; txn = 2; exclusive = false }));
      (* but an upgrade is granted only once the upgrader is alone *)
      expect Discipline.R3 (fun () ->
          Discipline.check (ev (Trace.Smo_upgrade { tree = 9; txn = 1 })));
      Discipline.reset ();
      (* an exclusive SMO overlaps nothing... *)
      Discipline.check (ev (Trace.Smo_begin { tree = 9; txn = 1; exclusive = true }));
      expect Discipline.R3 (fun () ->
          Discipline.check (ev (Trace.Smo_begin { tree = 9; txn = 2; exclusive = false })));
      Discipline.reset ();
      (* ...in either order *)
      Discipline.check (ev (Trace.Smo_begin { tree = 9; txn = 1; exclusive = false }));
      expect Discipline.R3 (fun () ->
          Discipline.check (ev (Trace.Smo_begin { tree = 9; txn = 2; exclusive = true })));
      Discipline.reset ();
      (* a different tree is a different SMO domain *)
      Discipline.check (ev (Trace.Smo_begin { tree = 9; txn = 1; exclusive = true }));
      Discipline.check (ev (Trace.Smo_begin { tree = 10; txn = 2; exclusive = true }));
      Discipline.check (ev (Trace.Smo_end { tree = 9; txn = 1 }));
      Discipline.check (ev (Trace.Smo_end { tree = 10; txn = 2 }));
      (* every end must match a begin *)
      expect Discipline.R3 (fun () ->
          Discipline.check (ev (Trace.Smo_end { tree = 9; txn = 1 }))))

let test_rule_r4 () =
  clean (fun () ->
      Discipline.check (ev (Trace.Log_open { log = 3; flushed = 100 }));
      (* covered ack is fine *)
      Discipline.check (ev (Trace.Commit_ack { log = 3; txn = 1; lsn = 50; lsn_end = 90 }));
      expect Discipline.R4 (fun () ->
          Discipline.check (ev (Trace.Commit_ack { log = 3; txn = 2; lsn = 120; lsn_end = 150 })));
      (* the force advances the boundary; the same ack is now covered *)
      Discipline.check (ev (Trace.Log_force { log = 3; upto = 200; stable_lsn = 200 }));
      Discipline.check (ev (Trace.Commit_ack { log = 3; txn = 2; lsn = 120; lsn_end = 150 })))

let test_rule_r5 () =
  clean (fun () ->
      Discipline.check (ev (Trace.Log_open { log = 3; flushed = 200 }));
      (* covered write is fine; a nil pageLSN (never-updated page) always is *)
      Discipline.check
        (ev (Trace.Page_write { log = 3; pid = 4; page_lsn = 10; lsn_end = 180; rec_lsn = 10 }));
      Discipline.check
        (ev (Trace.Page_write { log = 3; pid = 5; page_lsn = 0; lsn_end = 0; rec_lsn = 0 }));
      expect Discipline.R5 (fun () ->
          Discipline.check
            (ev
               (Trace.Page_write { log = 3; pid = 4; page_lsn = 210; lsn_end = 250; rec_lsn = 210 }))))

(* R6: truncation is judged against the independently announced safety
   point, and a dirty-page write whose recLSN fell below a vetted
   truncation proves redo records were destroyed. *)
let test_rule_r6 () =
  clean (fun () ->
      Discipline.check (ev (Trace.Log_open { log = 3; flushed = 500 }));
      (* no safety point ever announced: any truncation is premature *)
      expect Discipline.R6 (fun () ->
          Discipline.check
            (ev (Trace.Log_truncate { log = 3; new_start = 100; bytes = 92; segments = 1 })));
      Discipline.reset ();
      Discipline.check (ev (Trace.Log_open { log = 3; flushed = 500 }));
      Discipline.check (ev (Trace.Log_safety { log = 3; safety = 300 }));
      (* below the announcement: fine *)
      Discipline.check
        (ev (Trace.Log_truncate { log = 3; new_start = 200; bytes = 192; segments = 2 }));
      (* past the announcement: premature *)
      expect Discipline.R6 (fun () ->
          Discipline.check
            (ev (Trace.Log_truncate { log = 3; new_start = 400; bytes = 200; segments = 1 })));
      (* past the flushed boundary: always premature, whatever was announced *)
      Discipline.check (ev (Trace.Log_safety { log = 3; safety = 10_000 }));
      expect Discipline.R6 (fun () ->
          Discipline.check
            (ev (Trace.Log_truncate { log = 3; new_start = 600; bytes = 200; segments = 1 }))))

let test_rule_r6_reclaimed_rec_lsn () =
  clean (fun () ->
      Discipline.check (ev (Trace.Log_open { log = 3; flushed = 500 }));
      Discipline.check (ev (Trace.Log_safety { log = 3; safety = 300 }));
      Discipline.check
        (ev (Trace.Log_truncate { log = 3; new_start = 300; bytes = 292; segments = 3 }));
      (* recLSN at/above the new start: the redo records survive *)
      Discipline.check
        (ev (Trace.Page_write { log = 3; pid = 4; page_lsn = 350; lsn_end = 400; rec_lsn = 300 }));
      (* recLSN below the new start: its first redo record is gone *)
      expect Discipline.R6 (fun () ->
          Discipline.check
            (ev
               (Trace.Page_write
                  { log = 3; pid = 9; page_lsn = 350; lsn_end = 400; rec_lsn = 250 }))))

(* Run_begin discards volatile (fiber/SMO) state but keeps the flushed
   boundary — it mirrors durable state across simulated crashes. *)
let test_run_begin_resets_volatile_state () =
  clean (fun () ->
      Discipline.check (ev (page_latch "p1"));
      Discipline.check (ev (Trace.Smo_begin { tree = 9; txn = 1; exclusive = true }));
      Discipline.check (ev (Trace.Log_open { log = 3; flushed = 100 }));
      Discipline.check (ev (Trace.Run_begin { run = 2 }));
      Alcotest.(check int) "latch state gone" 0 (Discipline.latch_depth ~fiber:1);
      (* the old exclusive SMO no longer blocks a new one *)
      Discipline.check (ev (Trace.Smo_begin { tree = 9; txn = 7; exclusive = true }));
      (* but the flushed boundary survived: an unforced ack still trips *)
      expect Discipline.R4 (fun () ->
          Discipline.check (ev (Trace.Commit_ack { log = 3; txn = 7; lsn = 120; lsn_end = 150 }))))

(* ------------------------------------------------------------------ *)
(* Meta-fault 1 (R1): the fault skips the unlatch step of the
   conditional-lock / unlatch / unconditional-lock dance, so the
   unconditional next-key wait happens under the leaf latch — the checker
   must catch it inside the real insert path. *)

let test_meta_fault_uncond_lock_under_latch () =
  clean (fun () ->
      let config = { Btree.default_config with Btree.locking = Protocol.Index_specific } in
      let db, tree = fresh ~config () in
      Crashpoint.enable Crashpoint.Lock_uncond_under_latch;
      let caught = ref None in
      let r =
        Db.run db (fun () ->
            ignore
              (Sched.spawn ~name:"holder" (fun () ->
                   let t1 = Txnmgr.begin_txn db.Db.mgr in
                   Btree.insert tree t1 ~value:(v 2) ~rid:(rid 2)
                   (* deliberately left uncommitted: its commit-duration X
                      key lock keeps the second inserter's conditional
                      next-key probe failing *)));
            ignore
              (Sched.spawn ~name:"inserter" (fun () ->
                   let t2 = Txnmgr.begin_txn db.Db.mgr in
                   match Btree.insert tree t2 ~value:(v 1) ~rid:(rid 1) with
                   | () -> ()
                   | exception Discipline.Violation (rule, msg) -> caught := Some (rule, msg))))
      in
      Alcotest.(check bool) "no stray fiber exn" true (r.Sched.exns = []);
      (match !caught with
      | Some (Discipline.R1, msg) ->
          Alcotest.(check bool) "message names the latch hazard" true (has_substring msg "latch")
      | Some (rule, msg) ->
          Alcotest.failf "wrong rule %s: %s" (Discipline.rule_to_string rule) msg
      | None -> Alcotest.fail "R1 meta-fault escaped the checker");
      Alcotest.(check bool) "violation counted" true (Discipline.violations () >= 1);
      (* the leak report surfaces the violation count *)
      Alcotest.(check bool) "leak report mentions discipline" true
        (List.exists (fun l -> has_substring l "discipline") (Db.leak_report db));
      (* and the event window tells the story: a lock wait under latch *)
      let dump = Trace.dump_last 60 in
      Alcotest.(check bool) "dump has the lock wait" true
        (List.exists (fun l -> has_substring l "lock-wait") dump);
      Alcotest.(check bool) "dump has the latch acquire" true
        (List.exists (fun l -> has_substring l "latch-acquire") dump);
      (* with the fault cleared, the same contention resolves cleanly *)
      Crashpoint.clear ();
      Trace.reset ();
      Discipline.reset ();
      let db2, tree2 = fresh ~config () in
      ignore
        (Db.run db2 (fun () ->
             ignore
               (Sched.spawn ~name:"holder" (fun () ->
                    let t1 = Txnmgr.begin_txn db2.Db.mgr in
                    Btree.insert tree2 t1 ~value:(v 2) ~rid:(rid 2);
                    for _ = 1 to 6 do
                      Sched.yield ()
                    done;
                    Txnmgr.commit db2.Db.mgr t1));
             ignore
               (Sched.spawn ~name:"inserter" (fun () ->
                    let t2 = Txnmgr.begin_txn db2.Db.mgr in
                    Btree.insert tree2 t2 ~value:(v 1) ~rid:(rid 1);
                    Txnmgr.commit db2.Db.mgr t2))));
      Alcotest.(check int) "clean run: no violations" 0 (Discipline.violations ());
      Alcotest.(check (list string)) "clean run: no leaks" [] (Db.leak_report db2))

(* ------------------------------------------------------------------ *)
(* Meta-fault 2 (R4): the fault acknowledges the commit without forcing
   its log record — the checker must catch the durability lie at the ack. *)

let test_meta_fault_commit_early_ack () =
  clean (fun () ->
      let db, tree = fresh () in
      Crashpoint.enable Crashpoint.Commit_early_ack;
      let caught = ref None in
      ignore
        (Db.run db (fun () ->
             ignore
               (Sched.spawn ~name:"committer" (fun () ->
                    let t = Txnmgr.begin_txn db.Db.mgr in
                    Btree.insert tree t ~value:(v 1) ~rid:(rid 1);
                    match Txnmgr.commit db.Db.mgr t with
                    | () -> ()
                    | exception Discipline.Violation (rule, msg) -> caught := Some (rule, msg)))));
      (match !caught with
      | Some (Discipline.R4, msg) ->
          Alcotest.(check bool) "message names the flushed offset" true
            (has_substring msg "flushed")
      | Some (rule, msg) ->
          Alcotest.failf "wrong rule %s: %s" (Discipline.rule_to_string rule) msg
      | None -> Alcotest.fail "R4 meta-fault escaped the checker");
      (* the dump shows the ack with no covering force after the append *)
      let dump = Trace.dump_last 60 in
      Alcotest.(check bool) "dump has the ack" true
        (List.exists (fun l -> has_substring l "commit-ack") dump);
      (* cleared fault: the same commit forces and passes *)
      Crashpoint.clear ();
      Trace.reset ();
      Discipline.reset ();
      let db2, tree2 = fresh () in
      Db.run_exn db2 (fun () ->
          Db.with_txn db2 (fun t -> Btree.insert tree2 t ~value:(v 1) ~rid:(rid 1)));
      Alcotest.(check int) "clean commit: no violations" 0 (Discipline.violations ()))

(* ------------------------------------------------------------------ *)
(* Meta-fault 3 (R6): the fault makes the checkpoint daemon's reclamation
   overshoot the safety point all the way to the flushed boundary —
   destroying records a restart would still need for the open
   transaction's undo. The checker must catch the oversized truncation
   against the independently announced safety point. *)

let test_meta_fault_premature_truncate () =
  clean (fun () ->
      let db = Db.create ~page_size:384 ~segment_size:256 () in
      let tree =
        Db.run_exn db (fun () ->
            Db.with_txn db (fun txn -> Btree.create db.Db.benv txn ~name:"t" ~unique:true))
      in
      let caught = ref None in
      Db.run_exn db (fun () ->
          (* a long-running transaction pins the safety point near the
             start of the log... *)
          let pin = Txnmgr.begin_txn db.Db.mgr in
          Btree.insert tree pin ~value:(v 0) ~rid:(rid 0);
          (* ...while committed work seals many stable segments above it *)
          for i = 1 to 40 do
            Db.with_txn db (fun t -> Btree.insert tree t ~value:(v i) ~rid:(rid i))
          done;
          Db.checkpoint db;
          Alcotest.(check bool) "many sealed segments" true
            (Logmgr.segment_count db.Db.wal > 3);
          (* the honest path respects the pin: no violation *)
          ignore (Db.trim_log db);
          Alcotest.(check int) "honest reclamation passes" 0 (Discipline.violations ());
          Crashpoint.enable Crashpoint.Ckpt_premature_truncate;
          (match Db.trim_log db with
          | _ -> ()
          | exception Discipline.Violation (rule, msg) -> caught := Some (rule, msg));
          Crashpoint.clear ();
          Txnmgr.commit db.Db.mgr pin);
      (match !caught with
      | Some (Discipline.R6, msg) ->
          Alcotest.(check bool) "message names the safety point" true
            (has_substring msg "safety")
      | Some (rule, msg) ->
          Alcotest.failf "wrong rule %s: %s" (Discipline.rule_to_string rule) msg
      | None -> Alcotest.fail "R6 meta-fault escaped the checker");
      Alcotest.(check bool) "violation counted" true (Discipline.violations () >= 1);
      (* the event window shows the announcement and the oversized cut *)
      let dump = Trace.dump_last 60 in
      Alcotest.(check bool) "dump has the safety announcement" true
        (List.exists (fun l -> has_substring l "log-safety") dump);
      Alcotest.(check bool) "dump has the truncation" true
        (List.exists (fun l -> has_substring l "log-truncate") dump))

(* ------------------------------------------------------------------ *)
(* Deadlock-victim path, asserted from the trace: the youngest victim's
   rollback must leave the lock table clean — reconstructed from the
   Lock_grant / Lock_release / Lock_release_all event stream, not from
   endpoint counters — and the victim's retry must succeed. *)

let test_deadlock_victim_trace () =
  clean (fun () ->
      let db = Db.create ~page_size:384 () in
      let victim_id = ref (-1) in
      let retried_ok = ref false in
      let r =
        Db.run db (fun () ->
            ignore
              (Sched.spawn ~name:"elder" (fun () ->
                   let t1 = Txnmgr.begin_txn db.Db.mgr in
                   Txnmgr.lock db.Db.mgr t1 (Lockmgr.Table 1) Lockmgr.X Lockmgr.Commit;
                   Sched.yield ();
                   (* closes the cycle: t1 -> t2 (Table 2) while t2 -> t1 *)
                   Txnmgr.lock db.Db.mgr t1 (Lockmgr.Table 2) Lockmgr.X Lockmgr.Commit;
                   Txnmgr.commit db.Db.mgr t1));
            ignore
              (Sched.spawn ~name:"younger" (fun () ->
                   let t2 = Txnmgr.begin_txn db.Db.mgr in
                   victim_id := t2.Txnmgr.txn_id;
                   (match
                      Txnmgr.lock db.Db.mgr t2 (Lockmgr.Table 2) Lockmgr.X Lockmgr.Commit;
                      Sched.yield ();
                      Txnmgr.lock db.Db.mgr t2 (Lockmgr.Table 1) Lockmgr.X Lockmgr.Commit
                    with
                   | () -> Alcotest.fail "younger transaction was not chosen as victim"
                   | exception Txnmgr.Aborted (id, _) ->
                       Alcotest.(check int) "victim is the younger txn" !victim_id id);
                   (* retry with a fresh transaction: must go through *)
                   let t3 = Txnmgr.begin_txn db.Db.mgr in
                   Txnmgr.lock db.Db.mgr t3 (Lockmgr.Table 2) Lockmgr.X Lockmgr.Commit;
                   Txnmgr.lock db.Db.mgr t3 (Lockmgr.Table 1) Lockmgr.X Lockmgr.Commit;
                   Txnmgr.commit db.Db.mgr t3;
                   retried_ok := true)))
      in
      Alcotest.(check bool) "run completed" true (r.Sched.outcome = Sched.Completed);
      Alcotest.(check bool) "no fiber exn" true (r.Sched.exns = []);
      Alcotest.(check bool) "victim retry succeeded" true !retried_ok;
      (* the trace recorded the victim choice *)
      let evs = Trace.events () in
      Alcotest.(check bool) "Deadlock_victim event present" true
        (List.exists
           (fun e ->
             match e.Trace.ev_payload with
             | Trace.Deadlock_victim { txn } -> txn = !victim_id
             | _ -> false)
           evs);
      (* replay the lock events: every retained grant must be matched by a
         release (or the holder's release-all) by end of run *)
      let held : (int * Lockmgr.name, unit) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun e ->
          match e.Trace.ev_payload with
          | Trace.Lock_grant { txn; name; duration; _ } when duration <> Lockmgr.Instant ->
              Hashtbl.replace held (txn, name) ()
          | Trace.Lock_release { txn; name } -> Hashtbl.remove held (txn, name)
          | Trace.Lock_release_all { txn } ->
              let stale =
                Hashtbl.fold (fun (t, n) () acc -> if t = txn then (t, n) :: acc else acc) held []
              in
              List.iter (Hashtbl.remove held) stale
          | _ -> ())
        evs;
      let leftovers =
        Hashtbl.fold
          (fun (t, n) () acc -> Printf.sprintf "T%d:%s" t (Lockspec.name_to_string n) :: acc)
          held []
      in
      Alcotest.(check (list string)) "trace shows all grants released" [] leftovers;
      (* and the lock manager agrees *)
      Alcotest.(check int) "lock table quiescent" 0 (Lockmgr.total_held db.Db.locks);
      Alcotest.(check (list string)) "no leaks" [] (Db.leak_report db);
      Alcotest.(check int) "no violations" 0 (Discipline.violations ()))

(* ------------------------------------------------------------------ *)
(* Restart instrumentation: the phases emit events, the checker stays on
   during recovery, and a crash mid-restart followed by a second restart
   recovers the committed state (repeating history is idempotent). *)

let test_crash_mid_restart () =
  clean (fun () ->
      let db, tree = fresh () in
      let expected = List.init 10 (fun i -> (v i, rid i)) in
      Db.run_exn db (fun () ->
          Db.with_txn db (fun t ->
              List.iter (fun (value, rid) -> Btree.insert tree t ~value ~rid) expected));
      (* a loser: flushed updates, no commit record *)
      Db.run_exn db (fun () ->
          let t = Txnmgr.begin_txn db.Db.mgr in
          Btree.insert tree t ~value:(v 20) ~rid:(rid 20);
          Btree.insert tree t ~value:(v 21) ~rid:(rid 21);
          Logmgr.flush db.Db.wal);
      let db1 = Db.crash db in
      (* first restart is cut down by a simulated power failure at its
         second durability event (a CLR append in the undo pass) *)
      Crashpoint.reset ();
      Crashpoint.arm ~at:2;
      (match Db.run_exn db1 (fun () -> ignore (Db.restart db1)) with
      | () -> Alcotest.fail "restart completed despite the armed crash"
      | exception Crashpoint.Crash _ -> ());
      Crashpoint.disarm ();
      Crashpoint.reset ();
      (* second restart finishes the job *)
      let db2 = Db.crash db1 in
      Db.run_exn db2 (fun () ->
          ignore (Db.restart db2);
          let tree2 = Btree.open_existing db2.Db.benv (Btree.index_id tree) in
          Btree.check_invariants tree2;
          Alcotest.(check bool) "committed state recovered" true (Btree.to_list tree2 = expected));
      Alcotest.(check (list string)) "no leaks after recovery" [] (Db.leak_report db2);
      Alcotest.(check int) "no violations during recovery" 0 (Discipline.violations ());
      (* both restart attempts emitted their phase events *)
      let phases want =
        List.length
          (List.filter
             (fun e ->
               match e.Trace.ev_payload with
               | Trace.Restart_phase { phase } -> phase = want
               | _ -> false)
             (Trace.events ()))
      in
      Alcotest.(check int) "two analysis passes" 2 (phases Trace.Analysis);
      Alcotest.(check bool) "undo reached at least once" true (phases Trace.Undo >= 1);
      Alcotest.(check int) "one completed recovery" 1 (phases Trace.Done))

(* ------------------------------------------------------------------ *)
(* Overhead budget: a full simulation run with the checker on must cost
   less than 2x the tracer-off run (plus a small epsilon for timer
   granularity). This is the satellite acceptance bound; bench q10
   measures the same three modes in detail. *)

let test_checker_overhead () =
  clean (fun () ->
      let time_mode m =
        Trace.set_mode m;
        let best = ref infinity in
        for _ = 1 to 3 do
          let t0 = Sys.time () in
          let r = Shardsim.run Workload.default_cfg ~seed:42 Aries_sim.Sweep.Run in
          let dt = Sys.time () -. t0 in
          Alcotest.(check (list string)) "seed 42 passes" [] r.Aries_sim.Sweep.rr_failures;
          if dt < !best then best := dt
        done;
        !best
      in
      let off = time_mode Trace.Off in
      let check = time_mode Trace.Check in
      Alcotest.(check bool)
        (Printf.sprintf "checker-on %.4fs <= 2x tracer-off %.4fs" check off)
        true
        (check <= (2.0 *. off) +. 0.01))

(* Passing sim runs carry no event dump; the ring still recorded the run
   (the checker was live), so the dump stays an on-failure artifact. *)
let test_sim_dump_only_on_failure () =
  clean (fun () ->
      let r = Shardsim.run Workload.default_cfg ~seed:5 Aries_sim.Sweep.Run in
      Alcotest.(check (list string)) "run passes" [] r.Aries_sim.Sweep.rr_failures;
      Alcotest.(check (list string)) "no dump on a passing run" [] r.Aries_sim.Sweep.rr_event_dump;
      Alcotest.(check bool) "but the ring recorded the protocol" true (Trace.event_count () > 0))

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "ring buffer mechanics" `Quick test_ring_buffer;
          Alcotest.test_case "record mode does not check" `Quick test_record_does_not_check;
          Alcotest.test_case "golden rendering of every payload" `Quick test_golden_rendering;
        ] );
      ( "rules",
        [
          Alcotest.test_case "R1 lock wait under latch" `Quick test_rule_r1;
          Alcotest.test_case "R2 latch depth" `Quick test_rule_r2_depth;
          Alcotest.test_case "R2 child->parent inversion" `Quick test_rule_r2_inversion;
          Alcotest.test_case "R3 one SMO in flight" `Quick test_rule_r3;
          Alcotest.test_case "R4 ack before force" `Quick test_rule_r4;
          Alcotest.test_case "R5 WAL rule" `Quick test_rule_r5;
          Alcotest.test_case "R6 truncation past safety" `Quick test_rule_r6;
          Alcotest.test_case "R6 recLSN in reclaimed prefix" `Quick
            test_rule_r6_reclaimed_rec_lsn;
          Alcotest.test_case "Run_begin resets volatile state" `Quick
            test_run_begin_resets_volatile_state;
        ] );
      ( "meta-faults",
        [
          Alcotest.test_case "unconditional lock under latch is caught (R1)" `Quick
            test_meta_fault_uncond_lock_under_latch;
          Alcotest.test_case "commit acked before force is caught (R4)" `Quick
            test_meta_fault_commit_early_ack;
          Alcotest.test_case "premature log truncation is caught (R6)" `Quick
            test_meta_fault_premature_truncate;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "deadlock victim leaves a clean trace" `Quick
            test_deadlock_victim_trace;
          Alcotest.test_case "crash mid-restart, phases traced" `Quick test_crash_mid_restart;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "checker-on < 2x tracer-off" `Quick test_checker_overhead;
          Alcotest.test_case "event dump only on failing sim runs" `Quick
            test_sim_dump_only_on_failure;
        ] );
    ]
