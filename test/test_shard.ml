(* Sharded Db + presumed-abort 2PC: the Twopc wire codecs (round-trip and
   truncation rejection, 1000 seeded cases each), rule R10 end-to-end via
   the 2pc.early-decide meta-fault, presumed-abort in-doubt resolution
   after a crash, the coordinator decision scan, the cluster-wide
   in-doubt leak audit, the global deadlock detector breaking a cycle
   that spans two shards, and an allocation-free shard-down check. *)

open Aries_util
module Twopc = Aries_shard.Twopc
module Sharddb = Aries_shard.Sharddb
module Sched = Aries_sched.Sched
module Trace = Aries_trace.Trace
module Discipline = Aries_trace.Discipline
module Txnmgr = Aries_txn.Txnmgr
module Lockmgr = Aries_lock.Lockmgr

(* ------------------------------------------------------------------ *)
(* Codec round-trips *)

let gen_gid st = QCheck.Gen.int_range 0 1_000_000_000 st
let gen_shard st = QCheck.Gen.int_range 0 1023 st

let gen_parts : int list QCheck.Gen.t =
 fun st ->
  let n = QCheck.Gen.int_range 0 12 st in
  List.init n (fun _ -> gen_shard st)

let qcheck_prepare_meta =
  QCheck.Test.make ~name:"prepare meta codec roundtrip" ~count:1000
    (QCheck.make
       ~print:(fun (g, c) -> Printf.sprintf "gid=%d coord=%d" g c)
       QCheck.Gen.(pair gen_gid gen_shard))
    (fun (gid, coord) -> Twopc.decode_prepare_meta (Twopc.encode_prepare_meta ~gid ~coord) = (gid, coord))

let qcheck_decision =
  QCheck.Test.make ~name:"decision codec roundtrip" ~count:1000
    (QCheck.make
       ~print:(fun (g, ps) ->
         Printf.sprintf "gid=%d parts=[%s]" g (String.concat ";" (List.map string_of_int ps)))
       QCheck.Gen.(pair gen_gid gen_parts))
    (fun (gid, parts) -> Twopc.decode_decision (Twopc.encode_decision ~gid ~parts) = (gid, parts))

let qcheck_end =
  QCheck.Test.make ~name:"end codec roundtrip" ~count:1000
    (QCheck.make ~print:string_of_int gen_gid)
    (fun gid -> Twopc.decode_end (Twopc.encode_end ~gid) = gid)

(* Any strict prefix must be rejected with [Bytebuf.Corrupt], never decoded
   to a plausible value or crashed with an index error; trailing garbage
   (oversized input) likewise. *)
let rejects decode b =
  match decode b with
  | _ -> false
  | exception Bytebuf.Corrupt _ -> true

let truncation_prop encode decode st =
  let b = encode st in
  let len = Bytes.length b in
  let cut = QCheck.Gen.int_range 0 (len - 1) st in
  rejects decode (Bytes.sub b 0 cut)
  && rejects decode (Bytes.cat b (Bytes.make 1 '\x00'))

let qcheck_truncation name encode decode =
  QCheck.Test.make ~name ~count:1000
    (QCheck.make (fun st -> truncation_prop encode decode st))
    (fun ok -> ok)

let qcheck_prepare_meta_truncation =
  qcheck_truncation "prepare meta rejects truncation"
    (fun st -> Twopc.encode_prepare_meta ~gid:(gen_gid st) ~coord:(gen_shard st))
    Twopc.decode_prepare_meta

let qcheck_decision_truncation =
  qcheck_truncation "decision rejects truncation"
    (fun st -> Twopc.encode_decision ~gid:(gen_gid st) ~parts:(gen_parts st))
    Twopc.decode_decision

let qcheck_end_truncation =
  qcheck_truncation "end rejects truncation"
    (fun st -> Twopc.encode_end ~gid:(gen_gid st))
    Twopc.decode_end

let seeded_1000 test () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0x2FC10 |]) test

(* ------------------------------------------------------------------ *)
(* End-to-end rigs *)

let mk () = Sharddb.create ~shards:2 ~page_size:320 ~pool_capacity:12 ()

(* Two values the hash router sends to different shards — [v0] to the
   coordinator-to-be (first touch), [v1] to the other shard. *)
let cross_pair t =
  let v i = Printf.sprintf "val-%03d" i in
  let rec hunt i =
    if Sharddb.shard_of t (v i) <> Sharddb.shard_of t (v 0) then (v 0, v i) else hunt (i + 1)
  in
  hunt 1

let rid i = { Ids.rid_page = 300_000; rid_slot = i }

let run_ok t f =
  let r = Sharddb.run t ~policy:(Sched.Fifo) f in
  (match r.Sched.exns with
  | [] -> ()
  | (_, name, e) :: _ -> Alcotest.failf "fiber %s died: %s" name (Printexc.to_string e));
  match r.Sched.outcome with
  | Sched.Completed -> ()
  | Sched.Stalled ids -> Alcotest.failf "stalled with %d fiber(s)" (List.length ids)
  | Sched.Interrupted n -> Alcotest.failf "interrupted with %d live fiber(s)" n

let test_cross_shard_commit () =
  let t = mk () in
  run_ok t (fun () -> Sharddb.setup t);
  let a, b = cross_pair t in
  let stats = Stats.create () in
  Stats.with_sink stats (fun () ->
      run_ok t (fun () ->
          ignore
            (Sched.spawn ~name:"wl" (fun () ->
                 let g = Sharddb.begin_gtxn t in
                 Sharddb.insert t g ~value:a ~rid:(rid 1);
                 Sharddb.insert t g ~value:b ~rid:(rid 2);
                 Alcotest.(check int) "two participants" 2
                   (List.length (Sharddb.participants g));
                 Sharddb.commit t g;
                 let g2 = Sharddb.begin_gtxn t in
                 Alcotest.(check bool) "a visible" true (Sharddb.fetch t g2 a <> None);
                 Alcotest.(check bool) "b visible" true (Sharddb.fetch t g2 b <> None);
                 Sharddb.abort t g2))));
  Alcotest.(check int) "both branches prepared" 2 (Stats.get stats Stats.txn_prepares);
  (* the decision scan on the coordinator's log sees the durable commit *)
  let coord = Sharddb.shard_of t a in
  let ds = Twopc.decisions (Sharddb.db t coord) in
  Alcotest.(check bool) "one committed decision" true
    (Hashtbl.fold (fun _ d acc -> acc || d.Twopc.dc_commit) ds false);
  Alcotest.(check (list string)) "no leaks" [] (Sharddb.leak_report t);
  Sharddb.close t

(* A crash landing between phase 1 and phase 2: both branches voted yes
   (Prepare forced) but no decision record exists. The prepares survive
   as in-doubt branches, restart restores them with locks reacquired, and
   resolution aborts both by presumption — commit everywhere or abort
   everywhere, with nothing left holding locks. *)
let test_presumed_abort_after_crash () =
  let t = mk () in
  run_ok t (fun () -> Sharddb.setup t);
  let a, b = cross_pair t in
  let stats = Stats.create () in
  Stats.with_sink stats (fun () ->
      run_ok t (fun () ->
          ignore
            (Sched.spawn ~name:"wl" (fun () ->
                 let g = Sharddb.begin_gtxn t in
                 Sharddb.insert t g ~value:a ~rid:(rid 1);
                 Sharddb.insert t g ~value:b ~rid:(rid 2);
                 (* phase 1 by hand: every branch votes yes, then the
                    cluster dies before the coordinator decides *)
                 let coord = Sharddb.shard_of t a in
                 List.iter
                   (fun k ->
                     let tx = Sharddb.local t g k in
                     Txnmgr.prepare
                       ~meta:(Twopc.encode_prepare_meta ~gid:(Sharddb.gid g) ~coord)
                       (Sharddb.db t k).Aries_db.Db.mgr tx)
                   (Sharddb.participants g))));
      Sharddb.crash t;
      run_ok t (fun () ->
          ignore
            (Sched.spawn ~name:"restart" (fun () ->
                 let _, resolved = Sharddb.restart t in
                 Alcotest.(check int) "both branches resolved" 2 resolved;
                 let g = Sharddb.begin_gtxn t in
                 Alcotest.(check bool) "a rolled back" true (Sharddb.fetch t g a = None);
                 Alcotest.(check bool) "b rolled back" true (Sharddb.fetch t g b = None);
                 Sharddb.abort t g;
                 Alcotest.(check (list string)) "no in-doubt leaks" []
                   (Sharddb.leak_report t)))));
  Alcotest.(check int) "in-doubt restored" 2 (Stats.get stats Stats.txn_indoubt_restored);
  Alcotest.(check int) "in-doubt resolved" 2 (Stats.get stats Stats.txn_indoubt_resolved);
  Sharddb.close t

(* R10 end-to-end: with the online checker on, acknowledging a commit whose
   decision was never forced (the 2pc.early-decide meta-fault) must raise a
   Discipline violation at the decide/ack events. *)
let test_early_decide_caught () =
  Trace.set_mode Trace.Check;
  Trace.set_capacity 4096;
  Trace.reset ();
  Discipline.reset ();
  Fun.protect
    ~finally:(fun () ->
      Crashpoint.disable Crashpoint.Twopc_early_decide;
      Trace.set_mode Trace.Off;
      Trace.reset ();
      Discipline.reset ())
    (fun () ->
      let t = mk () in
      run_ok t (fun () -> Sharddb.setup t);
      let a, b = cross_pair t in
      Crashpoint.enable Crashpoint.Twopc_early_decide;
      let r =
        Sharddb.run t ~policy:Sched.Fifo (fun () ->
            ignore
              (Sched.spawn ~name:"wl" (fun () ->
                   let g = Sharddb.begin_gtxn t in
                   Sharddb.insert t g ~value:a ~rid:(rid 1);
                   Sharddb.insert t g ~value:b ~rid:(rid 2);
                   Sharddb.commit t g)))
      in
      let saw_violation =
        List.exists (fun (_, _, e) -> match e with Discipline.Violation (Discipline.R10, _) -> true | _ -> false)
          r.Sched.exns
      in
      Alcotest.(check bool) "R10 violation raised in the committing fiber" true saw_violation;
      Alcotest.(check bool) "violation counted" true (Discipline.violations () >= 1);
      Sharddb.close t)

(* The global deadlock detector, end to end. G1 locks a key on shard 0,
   then G2 locks a key on shard 1, then each requests the other's key.
   Each lock table holds one waiter and no cycle, so only the service
   daemon's union of the per-shard waits-for slices sees the deadlock. It
   must abort exactly one waiter, the youngest (G2, the larger gid); G1
   is then granted and commits. *)
let test_global_deadlock_victim () =
  let t = mk () in
  run_ok t (fun () -> Sharddb.setup t);
  let on k =
    let rec hunt i =
      let value = Printf.sprintf "dl-%03d" i in
      if Sharddb.shard_of t value = k then value else hunt (i + 1)
    in
    hunt 0
  in
  let lock g (shard, value) =
    Txnmgr.lock (Sharddb.db t shard).Aries_db.Db.mgr (Sharddb.local t g shard)
      (Lockmgr.Key_value (0, value)) Lockmgr.X Lockmgr.Commit
  in
  let outcomes = ref [] in
  let gids = ref (0, 0) in
  let stats = Stats.create () in
  let saved = Trace.mode () in
  Trace.set_mode Trace.Check;
  Trace.reset ();
  Discipline.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_mode saved;
      Trace.reset ();
      Discipline.reset ())
    (fun () ->
      Stats.with_sink stats (fun () ->
          run_ok t (fun () ->
              let g1 = Sharddb.begin_gtxn t in
              let g2 = Sharddb.begin_gtxn t in
              gids := (Sharddb.gid g1, Sharddb.gid g2);
              let first_locks = ref 0 in
              let cross g ~mine ~theirs =
                lock g mine;
                incr first_locks;
                while !first_locks < 2 do
                  Sched.yield ()
                done;
                let outcome =
                  match lock g theirs with
                  | () ->
                      Sharddb.commit t g;
                      "committed"
                  | exception Txnmgr.Aborted _ ->
                      Sharddb.abort t g;
                      "aborted"
                in
                outcomes := (Sharddb.gid g, outcome) :: !outcomes
              in
              let on0 = (0, on 0) and on1 = (1, on 1) in
              ignore (Sched.spawn ~name:"G1" (fun () -> cross g1 ~mine:on0 ~theirs:on1));
              ignore (Sched.spawn ~name:"G2" (fun () -> cross g2 ~mine:on1 ~theirs:on0))));
      let gid1, gid2 = !gids in
      Alcotest.(check bool) "G1 is the older gid" true (gid1 < gid2);
      Alcotest.(check (list (pair int string)))
        "the larger gid is the one victim; the other commits"
        [ (gid1, "committed"); (gid2, "aborted") ]
        (List.sort compare !outcomes);
      Alcotest.(check int) "one global victim" 1 (Stats.get stats Stats.deadlock_global_victims);
      Alcotest.(check int) "no local lock table saw a cycle" 0
        (Stats.get stats Stats.lock_deadlocks);
      Alcotest.(check (list int)) "the trace names the victim" [ gid2 ]
        (List.filter_map
           (fun e ->
             match e.Trace.ev_payload with
             | Trace.Global_victim { gid; _ } -> Some gid
             | _ -> None)
           (Trace.events ()));
      Alcotest.(check (list string)) "no leaks" [] (Sharddb.leak_report t);
      Sharddb.close t)

(* Every shard operation asks [is_up], so the check must not allocate:
   each shard builds its [Shard_down k] switch once, and the fault set is
   a plain list. Measured with no switch on and with another shard's on. *)
let test_is_up_allocates_nothing () =
  let t = mk () in
  let calls = 10_000 in
  let words_per_call () =
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sharddb.is_up t 0)
    done;
    (Gc.minor_words () -. w0) /. float_of_int calls
  in
  Alcotest.(check (float 0.0)) "no switch on: words per is_up" 0.0 (words_per_call ());
  Fun.protect ~finally:Crashpoint.clear (fun () ->
      Crashpoint.enable (Crashpoint.Shard_down 1);
      Alcotest.(check bool) "shard 1 is down" false (Sharddb.is_up t 1);
      Alcotest.(check bool) "shard 0 is up" true (Sharddb.is_up t 0);
      Alcotest.(check (float 0.0)) "shard 1 down: words per is_up" 0.0 (words_per_call ()));
  Sharddb.close t

let () =
  Alcotest.run "shard"
    [
      ( "codec",
        [
          Alcotest.test_case "prepare meta x1000 (seeded)" `Quick (seeded_1000 qcheck_prepare_meta);
          Alcotest.test_case "decision x1000 (seeded)" `Quick (seeded_1000 qcheck_decision);
          Alcotest.test_case "end x1000 (seeded)" `Quick (seeded_1000 qcheck_end);
          Alcotest.test_case "prepare meta truncation x1000 (seeded)" `Quick
            (seeded_1000 qcheck_prepare_meta_truncation);
          Alcotest.test_case "decision truncation x1000 (seeded)" `Quick
            (seeded_1000 qcheck_decision_truncation);
          Alcotest.test_case "end truncation x1000 (seeded)" `Quick
            (seeded_1000 qcheck_end_truncation);
        ] );
      ( "2pc",
        [
          Alcotest.test_case "cross-shard commit + decision scan" `Quick test_cross_shard_commit;
          Alcotest.test_case "presumed abort after crash" `Quick test_presumed_abort_after_crash;
          Alcotest.test_case "early-decide fault caught by R10" `Quick test_early_decide_caught;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "two-shard cycle broken by the global detector" `Quick
            test_global_deadlock_victim;
        ] );
      ( "faults",
        [ Alcotest.test_case "is_up allocates nothing" `Quick test_is_up_allocates_nothing ] );
    ]
