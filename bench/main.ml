(* The experiment harness: regenerates every figure-backed scenario (E series),
   every quantitative claim (Q series), and the Bechamel timing suites (T series).

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- e11 q1  # selected experiments
     dune exec bench/main.exe -- quick   # everything except timing
     dune exec bench/main.exe -- timing  # only the Bechamel suites

   An unknown experiment id fails the run before anything runs. Each
   Q-series entry records its numbers and acceptance gates in
   _bench/<id>.json (bench/record.ml) and exits 1 after writing it if a
   gate failed; each E-series entry does the same with its figure's
   checks (test/figures/figures.ml).

   Plus the full-budget simulation sweep (the CI-budget version runs in
   dune runtest; see EXPERIMENTS.md "Simulation harness"):

     dune exec bench/main.exe -- sim                      # default big sweep
     dune exec bench/main.exe -- sim 512 48 400           # seeds, crash seeds, budget
     dune exec bench/main.exe -- sim smoke all            # the whole CI matrix (see ci.sh)
     dune exec bench/main.exe -- sim smoke [flags]        # one row: no flags (fault-free),
                                          # --faults, --instant, --streams, --streams --instant,
                                          # --mvcc, --shards, --shards --instant
     dune exec bench/main.exe -- sim replay <workload> <seed> <mode>  # re-run a SIM-REPRO line
     dune exec bench/main.exe -- sim faults               # one "meta-fault <name>" line each
     ARIES_SIM_FAULT=wal.skip-flush dune exec bench/main.exe -- sim
                                          # demo: injected bug -> SIM-REPRO lines
                                          # (an unknown name exits 2)

   See DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
   the paper-vs-measured record. *)

let ppf = Format.std_formatter

module Sweep = Aries_sim.Sweep
module Shardsim = Aries_sim.Shardsim
module Wl = Aries_sim.Workload
module Crashpoint = Aries_util.Crashpoint
module Faultdisk = Aries_util.Faultdisk

(* One row of the `sim smoke` matrix. A row whose flags include
   "--instant" runs an instant sweep per seed; any other row runs plain
   runs over [seeds] and crash sweeps over [crash_seeds]. Every workload
   label is also the name [sim replay] looks up. *)
type row = {
  flags : string list;
  cfgs : (string * Wl.cfg) list;
  seeds : int list;
  crash_seeds : int list;
  budget : int;
}

let from base n = List.init n (fun i -> base + i)

let crash_row flags cfgs =
  { flags; cfgs; seeds = from 1 16; crash_seeds = from 1001 4; budget = 40 }

let instant_row flags cfgs = { flags; cfgs; seeds = from 2001 2; crash_seeds = []; budget = 24 }

let stock = [ ("default", Wl.default_cfg); ("group+cleaner", Wl.group_cfg) ]

let multistream =
  [ ("multistream", Wl.multistream_cfg); ("multistream+group", Wl.multistream_group_cfg) ]

let shards = [ ("shards", Wl.shards_cfg) ]

let smoke_rows =
  [
    (* A bounded slice of the full sweep over both commit modes (per-commit;
       group commit + cleaner), checkpoint daemon on in both. *)
    crash_row [] stock;
    (* The same slice over an adversarial disk (torn writes, bit-rot,
       transient EIO): every run must recover to the oracle or fail loudly
       with a typed Storage_error, which is tolerated. *)
    crash_row [ "--faults" ]
      [
        ("faults", Wl.fault_cfg);
        ("faults+group+cleaner", Wl.fault_group_cfg);
        ("eio-only+group", Wl.fault_eio_cfg);
      ];
    (* Recovery during recovery: cut each run mid-flight, restart with
       ~instant:true, and crash again inside the drain; every second crash
       must classic-restart to the oracle. *)
    instant_row [ "--instant" ] stock;
    (* The multi-stream WAL crash-order sweep: four log streams with the
       crash-time per-stream flush shuffle armed, under classic and then
       instant restart; recovery must converge to the fence-validated
       oracle with zero R1-R8 violations. *)
    crash_row [ "--streams" ] multistream;
    instant_row [ "--streams"; "--instant" ] multistream;
    (* Snapshot reads: hot writers, full-tree snapshot scans checked against
       the per-snapshot oracle, and the version-GC daemon racing both;
       every read obeys R9 and every crash restarts (version store rebuilt
       from the log) to the oracle. *)
    crash_row [ "--mvcc" ] [ ("mvcc", Wl.mvcc_cfg); ("mvcc+group", Wl.mvcc_group_cfg) ];
    (* Presumed-abort 2PC across a Sharddb cluster with the flush shuffle
       armed: whole-cluster crashes, single-shard fail-stops (coordinators
       and participants alike) and whole workloads with a shard down must
       match the cross-shard oracle (commit everywhere or abort everywhere)
       with zero R1-R10 violations and zero leaked in-doubt locks. *)
    {
      flags = [ "--shards" ];
      cfgs = shards;
      seeds = from 1 6;
      crash_seeds = from 1001 2;
      budget = 18;
    };
    (* Every shard restarts mid-recovery and serves a second workload phase
       while in-doubts resolve, and the whole cluster crashes again inside
       that phase; every second crash must classic-restart to the oracle. *)
    {
      flags = [ "--shards"; "--instant" ];
      cfgs = shards;
      seeds = from 2001 2;
      crash_seeds = [];
      budget = 12;
    };
  ]

(* Prints every reproducer, then the first one's trace and event window. *)
let print_failures = function
  | [] -> ()
  | first :: _ as rps ->
      List.iter (fun rp -> Format.fprintf ppf "%s@." (Sweep.reproducer_line rp)) rps;
      List.iter
        (fun l -> Format.fprintf ppf "    %s@." l)
        (first.Sweep.rp_trace @ first.Sweep.rp_event_dump)

(* Prints one summary line and its fatal reproducers; true iff none. Typed
   storage failures are tolerated only where the cfg arms a storage fault
   that can make a correct engine fail typed ([Faultdisk.damages_storage]). *)
let report_summary (cfg : Wl.cfg) scope (s : Sweep.summary) =
  let tolerate = match cfg.Wl.faults with Some f -> Faultdisk.damages_storage f | None -> false in
  let fatal = if tolerate then Sweep.fatal_failures s else s.Sweep.sm_failures in
  let tolerated = List.length s.Sweep.sm_failures - List.length fatal in
  Format.fprintf ppf
    "  %s%d runs (%d unarmed, %d armed), %d events, %d acked, %d in-doubt resolved, %d fatal \
     failure(s)%s@."
    scope s.Sweep.sm_runs
    (s.Sweep.sm_runs - s.Sweep.sm_armed)
    s.Sweep.sm_armed s.Sweep.sm_events s.Sweep.sm_acked s.Sweep.sm_resolved (List.length fatal)
    (if tolerated > 0 then Printf.sprintf " (+%d tolerated typed)" tolerated else "");
  print_failures fatal;
  fatal = []

let run_row row =
  let module Stats = Aries_util.Stats in
  let instant = List.mem "--instant" row.flags in
  let name = String.concat " " ("smoke" :: row.flags) in
  let stats = Stats.create () in
  let clean =
    Stats.with_sink stats @@ fun () ->
    List.fold_left
      (fun clean (workload, cfg) ->
        if instant then
          Format.fprintf ppf "%s [%s]: %d seeds x <=%d armed runs@." name workload
            (List.length row.seeds) row.budget
        else
          Format.fprintf ppf "%s [%s]: %d seeds, %d crash seeds x budget %d@." name workload
            (List.length row.seeds) (List.length row.crash_seeds) row.budget;
        let budget = row.budget in
        let summaries =
          if instant then
            List.map
              (fun seed ->
                (seed, Sweep.instant_sweep ~workload (Shardsim.run cfg) ~seed ~budget))
              row.seeds
          else
            [ (0, Shardsim.sweep ~workload cfg ~seeds:row.seeds ~crash_seeds:row.crash_seeds
                 ~crash_budget:budget) ]
        in
        List.fold_left
          (fun clean (seed, s) ->
            let scope = if instant then Printf.sprintf "seed %d: " seed else "" in
            report_summary cfg scope s && clean)
          clean summaries)
      true row.cfgs
  in
  if List.exists (fun (_, cfg) -> cfg.Wl.shards > 1) row.cfgs then
    Format.fprintf ppf "  2pc counters: %s@."
      (String.concat " "
         (List.map
            (fun c -> Printf.sprintf "%s=%d" c (Stats.get stats c))
            Stats.
              [
                txn_prepares;
                txn_indoubt_restored;
                txn_indoubt_resolved;
                shard_retries;
                shard_timeouts;
                deadlock_global_victims;
              ]));
  clean

let run_sim args =
  (match Sys.getenv_opt "ARIES_SIM_FAULT" with
  | Some name when name <> "" -> (
      match Crashpoint.of_string name with
      | Some f ->
          Crashpoint.enable f;
          Format.fprintf ppf "fault %S injected — the sweep should now fail loudly@." name
      | None ->
          Format.fprintf ppf "unknown ARIES_SIM_FAULT %S; meta-faults:@." name;
          List.iter
            (fun f -> Format.fprintf ppf "  %s@." (Crashpoint.to_string f))
            Crashpoint.meta_faults;
          exit 2)
  | _ -> ());
  match args with
  | [ "faults" ] ->
      List.iter
        (fun f -> Format.fprintf ppf "meta-fault %s@." (Crashpoint.to_string f))
        Crashpoint.meta_faults
  | [ "smoke"; "all" ] ->
      let clean = List.fold_left (fun clean row -> run_row row && clean) true smoke_rows in
      if not clean then exit 1;
      Format.fprintf ppf "smoke matrix clean@."
  | "smoke" :: flags -> (
      let same r = List.sort compare r.flags = List.sort compare flags in
      match List.find_opt same smoke_rows with
      | Some row ->
          if not (run_row row) then exit 1;
          Format.fprintf ppf "smoke sweep clean@."
      | None ->
          Format.fprintf ppf "no smoke row for %S; rows:@." (String.concat " " flags);
          List.iter
            (fun r -> Format.fprintf ppf "  sim smoke %s@." (String.concat " " r.flags))
            smoke_rows;
          exit 2)
  | [ "replay"; workload; seed; mode ] ->
      let cfg =
        match List.find_map (fun r -> List.assoc_opt workload r.cfgs) smoke_rows with
        | Some cfg -> cfg
        | None ->
            Format.fprintf ppf "unknown workload %S@." workload;
            exit 2
      in
      let r = Shardsim.run cfg ~seed:(int_of_string seed) (Sweep.mode_of_string mode) in
      Format.fprintf ppf "replay workload=%s seed=%s mode=%s: %d events, %d txns, %d acked@."
        workload seed mode r.Sweep.rr_events r.Sweep.rr_txns r.Sweep.rr_acked;
      List.iter (fun l -> Format.fprintf ppf "  %s@." l) (r.Sweep.rr_trace @ r.Sweep.rr_event_dump);
      if r.Sweep.rr_failures = [] then Format.fprintf ppf "run passed all checks@."
      else begin
        List.iter (fun f -> Format.fprintf ppf "FAILURE: %s@." f) r.Sweep.rr_failures;
        exit 1
      end
  | rest ->
      let geti i default =
        match List.nth_opt rest i with Some s -> int_of_string s | None -> default
      in
      let nseeds = geti 0 256 and ncrash = geti 1 24 and budget = geti 2 200 in
      Format.fprintf ppf
        "sim sweep: %d schedule seeds, %d crash seeds x <=%d crash points each@." nseeds
        ncrash budget;
      let t0 = Sys.time () in
      let s =
        Shardsim.sweep
          ~progress:(fun line -> Format.fprintf ppf "  %s@." line)
          ~workload:"default" Wl.default_cfg ~seeds:(from 1 nseeds)
          ~crash_seeds:(from 1001 ncrash) ~crash_budget:budget
      in
      Format.fprintf ppf "sim: %d durability events enumerated (%.2fs)@." s.Sweep.sm_events
        (Sys.time () -. t0);
      if not (report_summary Wl.default_cfg "" s) then exit 1

let run_experiments ids =
  match List.filter (fun id -> not (List.mem_assoc id Experiments.all)) ids with
  | [] -> List.iter (fun id -> List.assoc id Experiments.all ppf) ids
  | unknown ->
      List.iter (fun id -> Format.fprintf ppf "unknown experiment %S@." id) unknown;
      Format.fprintf ppf "known experiments: %s@."
        (String.concat " " (List.map fst Experiments.all));
      exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  Format.fprintf ppf "ARIES/IM experiment harness (see DESIGN.md, EXPERIMENTS.md)@.";
  (match args with
  | [] ->
      run_experiments (List.map fst Experiments.all);
      Timing.run_all ppf
  | [ "quick" ] -> run_experiments (List.map fst Experiments.all)
  | [ "timing" ] -> Timing.run_all ppf
  | "sim" :: rest -> run_sim rest
  | ids -> run_experiments ids);
  Format.fprintf ppf "@.done.@."
