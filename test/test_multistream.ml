(* Multi-stream parallel WAL (Logset): N=1 equivalence with a bare Logmgr,
   the v3 frame codec's stream/epoch/gsn stamps, epoch-fence ack ordering
   under group commit (and the [wal.stream-fence-skip] meta-fault tripping
   R8), cross-stream transaction undo, torn tails confined to one stream,
   per-stream checkpoint/truncation, the archived-pageLSN flush_to clamp,
   and crash atomicity of multi-stream NTA anchors. *)

open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logmgr = Aries_wal.Logmgr
module Logset = Aries_wal.Logset
module Txnmgr = Aries_txn.Txnmgr
module Group_commit = Aries_txn.Group_commit
module Btree = Aries_btree.Btree
module Bufpool = Aries_buffer.Bufpool
module Restart = Aries_recovery.Restart
module Db = Aries_db.Db
module Sched = Aries_sched.Sched
module Trace = Aries_trace.Trace
module Discipline = Aries_trace.Discipline

let rid i = { Ids.rid_page = 1000 + (i / 100); rid_slot = i mod 100 }

let v i = Printf.sprintf "key%05d" i

let fresh ?(streams = 4) ?(page_size = 384) ?commit_mode ?segment_size () =
  let db = Db.create ~page_size ?commit_mode ?segment_size ~streams () in
  let tree =
    Db.run_exn db (fun () ->
        Db.with_txn db (fun txn -> Btree.create db.Db.benv txn ~name:"ms" ~unique:true))
  in
  (db, tree)

let clean f =
  Crashpoint.disarm ();
  Crashpoint.clear ();
  Faultdisk.disarm ();
  Trace.reset ();
  Discipline.reset ();
  Fun.protect f ~finally:(fun () ->
      Crashpoint.disarm ();
      Crashpoint.clear ();
      Faultdisk.disarm ();
      Trace.set_mode Trace.Off;
      Trace.reset ();
      Discipline.reset ())

(* a page id routed to stream [s] of [logs] *)
let pid_on logs s =
  let rec go p = if Logset.route_page logs p = s then p else go (p + 1) in
  go 1

(* ------------------------------------------------------------------ *)
(* N=1 equivalence: a one-stream Logset produces, frame for frame, the
   byte stream a bare Logmgr produces for the same records with the same
   stamps — the degenerate case the whole design promises to preserve. *)

let test_n1_equivalence () =
  let set = Logset.create ~streams:1 () in
  let bare = Logmgr.create () in
  let mk i =
    Logrec.make ~page:(i * 7) ~rm_id:1 ~op:(i mod 5)
      ~body:(Bytes.of_string (Printf.sprintf "body-%d" i))
      ~txn:(1 + (i mod 3))
      ~prev_lsn:Lsn.nil Logrec.Update
  in
  for i = 1 to 50 do
    let r = mk i in
    let l1 = Logset.append set ~stream:0 r in
    (* a bare Logmgr keeps the caller's stamps: apply the ones
       Logset.append would ({!Logset.append}'s contract) *)
    let l2 = Logmgr.append bare { r with Logrec.stream = 0; epoch = 1; gsn = i } in
    Alcotest.(check int) "same lsn" l2 l1
  done;
  Logset.flush_all set;
  Logmgr.flush bare;
  let m0 = Logset.stream set 0 in
  Alcotest.(check int) "same end offset" (Logmgr.end_offset bare) (Logmgr.end_offset m0);
  Logmgr.iter_from m0 (Logmgr.start_offset m0) (fun r ->
      let r' = Logmgr.read bare r.Logrec.lsn in
      Alcotest.(check bytes)
        (Printf.sprintf "frame bytes at %d" r.Logrec.lsn)
        (Logrec.encode r') (Logrec.encode r))

(* ------------------------------------------------------------------ *)
(* v3 codec: stream / epoch / gsn / undo_nxt_stream roundtrip, 1000
   seeded random records. *)

let all_kinds =
  [|
    Logrec.Update; Logrec.Clr; Logrec.Commit; Logrec.Prepare; Logrec.Rollback;
    Logrec.End_txn; Logrec.Begin_ckpt; Logrec.End_ckpt;
  |]

let gen_v3 : Logrec.t QCheck.Gen.t =
 fun st ->
  let int lo hi = QCheck.Gen.int_range lo hi st in
  let kind = all_kinds.(int 0 (Array.length all_kinds - 1)) in
  let body = Bytes.of_string (QCheck.Gen.(string_size (int_range 0 64)) st) in
  Logrec.make
    ~page:(int 0 1_000_000)
    ~undo_nxt_lsn:(int 0 1_000_000)
    ~undo_nxt_stream:(int 0 64) ~rm_id:(int 0 255) ~op:(int 0 255)
    ~undoable:(int 0 1 = 1)
    ~redoable:(int 0 1 = 1)
    ~stream:(int 0 64)
    ~epoch:(int 1 1_000_000)
    ~gsn:(int 1 10_000_000)
    ~body
    ~txn:(int 0 100_000)
    ~prev_lsn:(int 0 1_000_000)
    kind

let qcheck_v3_codec =
  QCheck.Test.make ~name:"v3 frame codec: stream/epoch/gsn/undo_nxt_stream x1000"
    ~count:1000
    (QCheck.make gen_v3)
    (fun r ->
      let r' = Logrec.decode ~lsn:33 (Bytes.to_string (Logrec.encode r)) in
      r'.Logrec.stream = r.Logrec.stream
      && r'.Logrec.epoch = r.Logrec.epoch
      && r'.Logrec.gsn = r.Logrec.gsn
      && r'.Logrec.undo_nxt_stream = r.Logrec.undo_nxt_stream
      && r'.Logrec.undo_nxt_lsn = r.Logrec.undo_nxt_lsn
      && r'.Logrec.kind = r.Logrec.kind
      && Bytes.equal r'.Logrec.body r.Logrec.body)

(* ------------------------------------------------------------------ *)
(* Epoch-fence ack ordering: under group commit over four streams, every
   acknowledged commit's fence targets are stable at ack time (R8(a)
   checks each ack against the per-stream flushed offsets), epochs
   advance per batch, and all committed rows survive a crash. *)

let test_epoch_fence_ack_ordering () =
  clean (fun () ->
      let db, tree =
        fresh ~commit_mode:(Db.Group { Group_commit.max_batch = 4; max_delay_steps = 6 }) ()
      in
      Trace.set_mode Trace.Check;
      let acked = ref 0 in
      let result =
        Db.run db ~policy:(Sched.Random 7) (fun () ->
            for f = 0 to 3 do
              ignore
                (Sched.spawn
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
      (match result.Sched.outcome with
      | Sched.Completed -> ()
      | _ -> Alcotest.fail "run did not complete");
      List.iter
        (fun (_, name, e) -> Alcotest.failf "fiber %s raised %s" name (Printexc.to_string e))
        result.Sched.exns;
      Alcotest.(check int) "all 32 commits acked" 32 !acked;
      Alcotest.(check int) "zero discipline violations (R8 honored)" 0
        (Discipline.violations ());
      Alcotest.(check bool) "epochs advanced with the batches" true
        (Logset.current_epoch db.Db.logs > 1);
      (* every fence target named by a surviving commit record is stable *)
      Logset.iteri db.Db.logs (fun _ m ->
          Logmgr.iter_from m (Logmgr.start_offset m) (fun r ->
              if r.Logrec.kind = Logrec.Commit then
                Alcotest.(check bool)
                  (Printf.sprintf "commit %d fence is stable" r.Logrec.txn)
                  true
                  (Logset.commit_valid db.Db.logs r)));
      let ix = Btree.index_id tree in
      let db' = Db.crash db in
      Trace.set_mode Trace.Off;
      let _report = Db.run_exn db' (fun () -> Db.restart db') in
      let tree' = Btree.open_existing db'.Db.benv ix in
      Alcotest.(check int) "all acked rows survive the crash" 32
        (Db.run_exn db' (fun () -> List.length (Btree.to_list tree'))))

(* the meta-fault: the commit path "forgets" to force every stream but the
   commit record's own before acknowledging — R8 must catch it the moment
   the ack event is emitted *)
let test_stream_fence_skip_trips_r8 () =
  clean (fun () ->
      (* tracing must be on before the logs are opened: R8(a) validates an
         ack against per-stream flushed baselines it learns from Log_open /
         Log_flush events, and skips streams it never saw open *)
      Trace.set_mode Trace.Check;
      let db, tree = fresh () in
      (* spread committed data over several streams so a commit's fence
         names more than just its own stream *)
      Db.run_exn db (fun () ->
          Db.with_txn db (fun txn ->
              for i = 0 to 39 do
                Btree.insert tree txn ~value:(v i) ~rid:(rid i)
              done));
      Crashpoint.enable Crashpoint.Wal_stream_fence_skip;
      let tripped = ref false in
      (try
         Db.run_exn db (fun () ->
             let txn = Txnmgr.begin_txn db.Db.mgr in
             for i = 40 to 79 do
               Btree.insert tree txn ~value:(v i) ~rid:(rid i)
             done;
             Txnmgr.commit db.Db.mgr txn)
       with Discipline.Violation (Discipline.R8, _) -> tripped := true);
      Alcotest.(check bool) "R8 catches the skipped stream fence" true !tripped;
      Alcotest.(check bool) "violation counted" true (Discipline.violations () > 0))

(* ------------------------------------------------------------------ *)
(* Cross-stream transaction undo: one transaction's records span several
   streams; total rollback and restart undo must walk the per-stream
   chains merged in reverse gsn order and leave nothing behind. *)

let test_cross_stream_rollback () =
  let db, tree = fresh () in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 59 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  (* the committed data spans several streams already; now roll back *)
  let streams_touched txn =
    List.length (List.filter (fun (_, l) -> not (Lsn.is_nil l)) (Txnmgr.touched txn))
  in
  let spanned = ref 0 in
  Db.run_exn db (fun () ->
      let txn = Txnmgr.begin_txn db.Db.mgr in
      for i = 60 to 119 do
        Btree.insert tree txn ~value:(v i) ~rid:(rid i)
      done;
      Btree.delete tree txn ~value:(v 3) ~rid:(rid 3);
      Btree.delete tree txn ~value:(v 37) ~rid:(rid 37);
      spanned := streams_touched txn;
      Txnmgr.rollback db.Db.mgr txn);
  Alcotest.(check bool) "the rolled-back txn really spanned streams" true (!spanned >= 2);
  Db.run_exn db (fun () ->
      Btree.check_invariants tree;
      Alcotest.(check int) "rollback restored exactly the committed rows" 60
        (List.length (Btree.to_list tree)))

let test_cross_stream_restart_undo () =
  let db, tree = fresh () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          for i = 0 to 59 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done));
  (* a loser txn spanning streams, cut down by a crash before commit *)
  Db.run_exn db (fun () ->
      let txn = Txnmgr.begin_txn db.Db.mgr in
      for i = 60 to 119 do
        Btree.insert tree txn ~value:(v i) ~rid:(rid i)
      done;
      Logset.flush_all db.Db.logs);
  let db' = Db.crash db in
  let report = Db.run_exn db' (fun () -> Db.restart db') in
  Alcotest.(check bool) "the loser was found" true (report.Restart.rp_losers <> []);
  let tree' = Btree.open_existing db'.Db.benv ix in
  Db.run_exn db' (fun () ->
      Btree.check_invariants tree';
      Alcotest.(check int) "restart undid the cross-stream loser" 60
        (List.length (Btree.to_list tree')))

(* An End record whose fence vector does not decode, or names a stream
   the set does not have, proves nothing: analysis keeps its transaction a
   loser and undo rolls it back. *)
let test_undecodable_end_is_invalid () =
  List.iter
    (fun (what, body) ->
      let db, tree = fresh () in
      let ix = Btree.index_id tree in
      Db.run_exn db (fun () ->
          Db.with_txn db (fun txn ->
              for i = 0 to 29 do
                Btree.insert tree txn ~value:(v i) ~rid:(rid i)
              done));
      Db.run_exn db (fun () ->
          let txn = Txnmgr.begin_txn db.Db.mgr in
          for i = 30 to 59 do
            Btree.insert tree txn ~value:(v i) ~rid:(rid i)
          done;
          let id = txn.Txnmgr.txn_id in
          let s = Logset.route_txn db.Db.logs id in
          ignore
            (Logset.append db.Db.logs ~stream:s
               (Logrec.make ~body:(Bytes.of_string body) ~txn:id ~prev_lsn:txn.Txnmgr.lasts.(s)
                  Logrec.End_txn));
          Logset.flush_all db.Db.logs);
      let db' = Db.crash db in
      let report = Db.run_exn db' (fun () -> Db.restart db') in
      Alcotest.(check int) (what ^ ": the transaction is a loser") 1
        (List.length report.Restart.rp_losers);
      let tree' = Btree.open_existing db'.Db.benv ix in
      Db.run_exn db' (fun () ->
          Btree.check_invariants tree';
          Alcotest.(check int) (what ^ ": its inserts are undone") 30
            (List.length (Btree.to_list tree'))))
    [
      ("count past the body", "\x05\x00");
      ("varint cut short", "\x01\x00\x88");
      ("stream out of range", "\x01\x07\x08");
    ]

(* ------------------------------------------------------------------ *)
(* Torn tail on one stream only: each stream's survivors are a hole-free
   prefix, but a crash can truncate one stream's tail while another —
   holding the commit record — survives intact. The commit's fence vector
   is what tells recovery the difference. *)

let test_torn_tail_one_stream () =
  let logs = Logset.create ~streams:2 () in
  let p0 = pid_on logs 0 and p1 = pid_on logs 1 in
  let upd txn page prev =
    Logrec.make ~page ~rm_id:1 ~op:1 ~body:(Bytes.of_string "x") ~txn ~prev_lsn:prev
      Logrec.Update
  in
  (* txn 1: updates on both streams, commit fully forced *)
  let a0 = Logset.append logs ~stream:0 (upd 1 p0 Lsn.nil) in
  let a1 = Logset.append logs ~stream:1 (upd 1 p1 Lsn.nil) in
  let c1 =
    Logset.append logs ~stream:0
      (Logrec.make
         ~body:(Logset.encode_commit_targets [ (0, a0); (1, a1) ])
         ~txn:1 ~prev_lsn:a0 Logrec.Commit)
  in
  Logset.flush_all logs;
  (* txn 2: stream 1 carries its update; stream 0 carries its commit; only
     stream 0 gets forced — the crash tears exactly stream 1's tail *)
  let b1 = Logset.append logs ~stream:1 (upd 2 p1 Lsn.nil) in
  let c2 =
    Logset.append logs ~stream:0
      (Logrec.make
         ~body:(Logset.encode_commit_targets [ (1, b1) ])
         ~txn:2 ~prev_lsn:Lsn.nil Logrec.Commit)
  in
  Logmgr.flush (Logset.stream logs 0);
  Logset.crash logs;
  (* stream 0 survived whole; stream 1 lost exactly its unflushed tail *)
  Alcotest.(check bool) "commit 2's record survived" true
    (c2 < Logmgr.end_offset (Logset.stream logs 0));
  Alcotest.(check bool) "stream 1's torn tail is gone" true
    (b1 >= Logmgr.end_offset (Logset.stream logs 1));
  Alcotest.(check bool) "stream 1's surviving prefix is intact" true
    (a1 < Logmgr.end_offset (Logset.stream logs 1));
  let r1 = Logmgr.read (Logset.stream logs 0) c1 in
  let r2 = Logmgr.read (Logset.stream logs 0) c2 in
  Alcotest.(check bool) "fully forced commit validates" true (Logset.commit_valid logs r1);
  Alcotest.(check bool) "commit whose fence target was torn away does not" false
    (Logset.commit_valid logs r2)

(* ------------------------------------------------------------------ *)
(* Checkpoint and truncation are per stream: the checkpoint pair and the
   master record live on the control stream only, reclamation advances
   every stream's start, and recovery still works from the archive. *)

let test_checkpoint_truncation_per_stream () =
  let db, tree = fresh ~segment_size:2048 () in
  let ix = Btree.index_id tree in
  Db.run_exn db (fun () ->
      for b = 0 to 7 do
        Db.with_txn db (fun txn ->
            for i = 0 to 19 do
              let k = (b * 20) + i in
              Btree.insert tree txn ~value:(v k) ~rid:(rid k)
            done)
      done);
  Db.run_exn db (fun () -> Db.checkpoint db);
  (* checkpoint records live on the control stream only *)
  let ckpts_on m =
    let n = ref 0 in
    Logmgr.iter_from m (Logmgr.start_offset m) (fun r ->
        match r.Logrec.kind with
        | Logrec.Begin_ckpt | Logrec.End_ckpt -> incr n
        | _ -> ());
    !n
  in
  Alcotest.(check bool) "checkpoint pair on the control stream" true
    (ckpts_on (Logset.control db.Db.logs) >= 2);
  for s = 1 to Logset.n db.Db.logs - 1 do
    Alcotest.(check int)
      (Printf.sprintf "no checkpoint records on stream %d" s)
      0
      (ckpts_on (Logset.stream db.Db.logs s))
  done;
  (* write more so sealed segments fall below the safety point, then trim *)
  Db.run_exn db (fun () ->
      for b = 8 to 15 do
        Db.with_txn db (fun txn ->
            for i = 0 to 19 do
              let k = (b * 20) + i in
              Btree.insert tree txn ~value:(v k) ~rid:(rid k)
            done)
      done;
      (* clean the pool so the checkpoint's min recLSN does not pin the
         safety point inside the sealed segments we want reclaimed *)
      Bufpool.flush_all db.Db.pool;
      Db.checkpoint db);
  let reclaimed = Db.run_exn db (fun () -> Db.trim_log db) in
  Alcotest.(check bool) "trim reclaimed sealed segments" true (reclaimed > 0);
  Alcotest.(check bool) "some stream's start offset advanced" true
    (List.exists
       (fun s -> Logmgr.start_offset (Logset.stream db.Db.logs s) > 0)
       (List.init (Logset.n db.Db.logs) Fun.id));
  (* recovery over the truncated set still converges *)
  let db' = Db.crash db in
  let _report = Db.run_exn db' (fun () -> Db.restart db') in
  let tree' = Btree.open_existing db'.Db.benv ix in
  Db.run_exn db' (fun () ->
      Btree.check_invariants tree';
      Alcotest.(check int) "all rows survive truncation + crash" 320
        (List.length (Btree.to_list tree')))

(* ------------------------------------------------------------------ *)
(* flush_to clamps below the stream's start: media repair rebuilds a page
   whose pageLSN is an archived record; the WAL-rule force on the page's
   own stream must treat it as already stable instead of probing the
   reclaimed segment — on every stream, not just the control stream. *)

let test_flush_to_archived_clamp () =
  let logs = Logset.create ~segment_size:512 ~streams:2 () in
  let p1 = pid_on logs 1 in
  let first = ref Lsn.nil in
  for i = 1 to 40 do
    let l =
      Logset.append logs ~stream:1
        (Logrec.make ~page:p1 ~rm_id:1 ~op:1
           ~body:(Bytes.of_string (String.make 24 'x'))
           ~txn:1
           ~prev_lsn:(if i = 1 then Lsn.nil else Lsn.nil)
           Logrec.Update)
    in
    if i = 1 then first := l
  done;
  Logset.flush_all logs;
  let m1 = Logset.stream logs 1 in
  let dropped = Logmgr.truncate_prefix m1 ~upto:(Logmgr.end_offset m1 - 1) in
  Alcotest.(check bool) "prefix segments were reclaimed" true (dropped > 0);
  Alcotest.(check bool) "the first record is now archived" true
    (!first < Logmgr.start_offset m1);
  (* the clamp: forcing to an archived pageLSN is a no-op, not an error *)
  Logmgr.flush_to m1 !first;
  Alcotest.(check bool) "live lsn still forces" true
    (let last = Logmgr.last_lsn m1 in
     Logmgr.flush_to m1 last;
     Logmgr.is_stable m1 last)

(* ------------------------------------------------------------------ *)
(* Multi-stream NTA anchor: a bracket that moved several streams is fenced
   by one anchor CLR on the control stream; rollback honors the jumps only
   while the whole bracket survives everywhere, so a crash can never keep
   one stream's half of an SMO fenced while exposing another's. *)

let test_nta_anchor_atomicity () =
  let db, _tree = fresh () in
  let mgr = db.Db.mgr in
  let logs = db.Db.logs in
  let undone = ref [] in
  Txnmgr.register_rm mgr ~rm_id:42
    ~redo:(fun _ -> ())
    ~undo:(fun txn r ->
      undone := r.Logrec.op :: !undone;
      ignore
        (Txnmgr.log_clr mgr txn ~page:r.Logrec.page ~rm_id:42 ~enc:Bytebuf.raw_bytes ~body:Bytes.empty
           ~undo_nxt:r.Logrec.prev_lsn ()))
    ();
  let p0 = pid_on logs 0 and p1 = pid_on logs 1 and p2 = pid_on logs 2 in
  let upd txn page op =
    Txnmgr.log_update mgr txn ~page ~redoable:false ~rm_id:42 ~op ~enc:Bytebuf.raw_bytes
      ~body:Bytes.empty ()
  in
  Db.run_exn db (fun () ->
      let txn = Txnmgr.begin_txn mgr in
      ignore (upd txn p0 1);
      (* the bracket: an "SMO" moving three streams *)
      let remembered = Txnmgr.nta_begin txn in
      ignore (upd txn p0 10);
      ignore (upd txn p1 11);
      ignore (upd txn p2 12);
      let anchor_lsn = Txnmgr.nta_end mgr txn remembered in
      let ctl = Txnmgr.txn_stream mgr txn.Txnmgr.txn_id in
      let anchor = Logmgr.read (Logset.stream logs ctl) anchor_lsn in
      Alcotest.(check bool) "the fence is an anchor CLR" true (Txnmgr.nta_anchor anchor);
      let jumps, fences = Txnmgr.decode_nta_body anchor.Logrec.body in
      Alcotest.(check int) "one jump per moved stream" 3 (List.length jumps);
      Alcotest.(check int) "one fence per moved stream" 3 (List.length fences);
      Alcotest.(check bool) "the intact bracket validates" true
        (Logset.targets_valid logs anchor fences);
      ignore (upd txn p0 2);
      (* rollback: the bracket is jumped over, everything else undone *)
      Txnmgr.rollback mgr txn;
      Alcotest.(check (list int)) "undo hit 2 then 1, never the bracket" [ 1; 2 ]
        !undone);
  (* the bracket's records went to streams a later committer never
     touches: its commit fence must still cover them (the global SMO
     fence), or recovery could roll the SMO back under committed data *)
  Db.run_exn db (fun () ->
      let txn = Txnmgr.begin_txn mgr in
      ignore (upd txn p0 3);
      Txnmgr.commit mgr txn;
      let cstream = Logset.stream logs (Txnmgr.txn_stream mgr txn.Txnmgr.txn_id) in
      let commit = ref None in
      Logmgr.iter_from cstream (Logmgr.start_offset cstream) (fun r ->
          if r.Logrec.kind = Logrec.Commit && r.Logrec.txn = txn.Txnmgr.txn_id then
            commit := Some r);
      match !commit with
      | None -> Alcotest.fail "commit record not found"
      | Some c ->
          let targets = Logset.decode_commit_targets c.Logrec.body in
          Alcotest.(check bool) "commit fence covers the SMO's streams" true
            (List.mem_assoc 1 targets && List.mem_assoc 2 targets))

(* a crash that keeps the anchor but tears away one moved stream's bracket
   records invalidates the anchor: rollback must fall back to physical
   undo of the surviving halves *)
let test_nta_anchor_torn_bracket () =
  let logs = Logset.create ~streams:3 () in
  let lockmgr = Aries_lock.Lockmgr.create () in
  let mgr = Txnmgr.create logs lockmgr in
  Txnmgr.register_rm mgr ~rm_id:42 ~redo:(fun _ -> ()) ~undo:(fun _ _ -> ()) ();
  let txn = Txnmgr.begin_txn mgr in
  (* pick the bracket's two streams away from the txn's control stream:
     the anchor lives on [ctl], which we force — the moved stream we tear
     away must be a different one or the flush below would save it too *)
  let ctl = Txnmgr.txn_stream mgr txn.Txnmgr.txn_id in
  let sa, sb =
    match List.filter (fun s -> s <> ctl) [ 0; 1; 2 ] with
    | a :: b :: _ -> (a, b)
    | _ -> assert false
  in
  let pa = pid_on logs sa and pb = pid_on logs sb in
  let upd page op =
    Txnmgr.log_update mgr txn ~page ~redoable:false ~rm_id:42 ~op ~enc:Bytebuf.raw_bytes
      ~body:Bytes.empty ()
  in
  let remembered = Txnmgr.nta_begin txn in
  ignore (upd pa 10);
  let b2 = upd pb 11 in
  let anchor_lsn = Txnmgr.nta_end mgr txn remembered in
  (* force every stream except [sb] — the crash tears the bracket's
     [sb] half away while the anchor survives *)
  Logmgr.flush (Logset.stream logs sa);
  Logmgr.flush (Logset.stream logs ctl);
  Logset.crash logs;
  let anchor = Logmgr.read (Logset.stream logs ctl) anchor_lsn in
  Alcotest.(check bool) "anchor survived" true (Txnmgr.nta_anchor anchor);
  Alcotest.(check bool) "its torn-stream bracket record did not" true
    (b2 >= Logmgr.end_offset (Logset.stream logs sb));
  let _, fences = Txnmgr.decode_nta_body anchor.Logrec.body in
  Alcotest.(check bool) "the torn bracket no longer validates" false
    (Logset.targets_valid logs anchor fences)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "multistream"
    [
      ( "equivalence",
        [ Alcotest.test_case "N=1 is byte-for-byte a bare Logmgr" `Quick test_n1_equivalence ]
      );
      ("codec", [ QCheck_alcotest.to_alcotest qcheck_v3_codec ]);
      ( "epoch-fence",
        [
          Alcotest.test_case "acks wait for every touched stream" `Quick
            test_epoch_fence_ack_ordering;
          Alcotest.test_case "stream-fence-skip fault trips R8" `Quick
            test_stream_fence_skip_trips_r8;
        ] );
      ( "cross-stream-undo",
        [
          Alcotest.test_case "total rollback spans streams" `Quick test_cross_stream_rollback;
          Alcotest.test_case "restart undoes a cross-stream loser" `Quick
            test_cross_stream_restart_undo;
          Alcotest.test_case "undecodable End keeps a loser" `Quick test_undecodable_end_is_invalid;
        ] );
      ( "crash-shapes",
        [ Alcotest.test_case "torn tail on one stream only" `Quick test_torn_tail_one_stream ]
      );
      ( "checkpoint",
        [
          Alcotest.test_case "checkpoint + truncation are per stream" `Quick
            test_checkpoint_truncation_per_stream;
          Alcotest.test_case "flush_to clamps archived pageLSNs" `Quick
            test_flush_to_archived_clamp;
        ] );
      ( "nta-anchor",
        [
          Alcotest.test_case "multi-stream bracket is one atomic fence" `Quick
            test_nta_anchor_atomicity;
          Alcotest.test_case "torn bracket invalidates the anchor" `Quick
            test_nta_anchor_torn_bracket;
        ] );
    ]
