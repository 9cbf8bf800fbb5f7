(* Wall-clock micro-benchmarks (Bechamel): per-protocol operation latency,
   split-heavy insertion, scan throughput, and restart-recovery time as a
   function of log length. These quantify the paper's pathlength arguments
   (§5) on this substrate; the counter-based experiments (Q1-Q6) carry the
   protocol-level claims. *)

open Bechamel
open Workload
open Aries_figures.Figures
module Bufpool = Aries_buffer.Bufpool

(* one operation per run, on a pre-built tree; keys rotate so inserts do
   not collide *)
let op_test ~name ~locking ~op =
  let config = config_of locking in
  let db, tree = fresh ~page_size:4096 ~config () in
  seed_keys db tree 0 999;
  let counter = ref 0 in
  Test.make ~name (Staged.stage (fun () -> op db tree counter))

let insert_op db tree counter =
  incr counter;
  let i = 100_000 + !counter in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn -> Btree.insert tree txn ~value:(v i) ~rid:(rid i)))

let fetch_op db tree counter =
  incr counter;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn -> ignore (Btree.fetch tree txn (v (!counter mod 1000)))))

let delete_insert_op db tree counter =
  incr counter;
  let i = !counter mod 1000 in
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          Btree.delete tree txn ~value:(v i) ~rid:(rid i);
          Btree.insert tree txn ~value:(v i) ~rid:(rid i)))

let scan_op db tree counter =
  incr counter;
  Db.run_exn db (fun () ->
      Db.with_txn db (fun txn ->
          let c = Btree.open_scan tree txn ~comparison:`Ge (v 100) in
          let rec go n =
            if n >= 50 then ()
            else match Btree.fetch_next tree txn c () with Some _ -> go (n + 1) | None -> ()
          in
          go 0))

(* restart time as a function of log length *)
let recovery_test n_ops =
  Test.make
    ~name:(Printf.sprintf "restart after %d ops" n_ops)
    (Staged.stage (fun () ->
         let db, tree = fresh ~page_size:4096 () in
         Db.run_exn db (fun () ->
             Db.with_txn db (fun txn ->
                 for i = 0 to n_ops - 1 do
                   Btree.insert tree txn ~value:(v i) ~rid:(rid i)
                 done));
         let db' = Db.crash db in
         ignore (Db.run_exn db' (fun () -> Db.restart db'))))

let split_heavy_test =
  Test.make ~name:"1000 inserts on 384B pages (split-heavy)"
    (Staged.stage (fun () ->
         let db, tree = fresh ~page_size:384 () in
         seed_keys db tree 0 999))

let protocol_suite op_name op =
  List.map
    (fun locking ->
      op_test
        ~name:(Printf.sprintf "%s/%s" op_name (Protocol.locking_to_string locking))
        ~locking ~op)
    protocols

let suites : (string * Test.t list) list =
  [
    ("T1: insert latency by locking protocol", protocol_suite "insert" insert_op);
    ("T2: fetch latency by locking protocol", protocol_suite "fetch" fetch_op);
    ( "T3: structure modification and scan costs",
      [
        split_heavy_test;
        op_test ~name:"delete+insert/data-only" ~locking:Protocol.Data_only ~op:delete_insert_op;
        op_test ~name:"scan-50/data-only" ~locking:Protocol.Data_only ~op:scan_op;
      ] );
    ("T4: restart recovery vs log length", [ recovery_test 500; recovery_test 2000; recovery_test 8000 ]);
  ]

let run_suite ppf (title, tests) =
  section ppf title;
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
              if est > 1_000_000.0 then
                Format.fprintf ppf "  %-44s %10.2f ms/op@." name (est /. 1_000_000.0)
              else if est > 1_000.0 then
                Format.fprintf ppf "  %-44s %10.2f us/op@." name (est /. 1_000.0)
              else Format.fprintf ppf "  %-44s %10.0f ns/op@." name est
          | Some [] | None -> Format.fprintf ppf "  %-44s (no estimate)@." name)
        results)
    tests

let run_all ppf = List.iter (fun s -> run_suite ppf s) suites
