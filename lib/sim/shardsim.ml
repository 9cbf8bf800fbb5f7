(* The simulation harness: the randomized {!Workload} over a [Sharddb]
   cluster, checked against the committed-state oracle. At [shards = 1]
   it is the single-Db harness: every transaction commits locally and the
   oracle reduces to the surviving Commit records.

   Every run is a pure function of (seed, cfg, mode), setup runs with the
   crash hook quiet, and every check reads the {e stable} state —
   per-shard committed transactions from the logs plus the coordinator
   decision tables — never the workload's bookkeeping.

   How each {!Sweep.mode} plays out:

   - [Run]: the workload runs to completion and is checked directly.
   - [Crash k]: a whole-cluster power failure at the k-th durability event
     — coordinator and participants cut {e at the same instant}, with a
     flush shuffle (when the cfg arms one) deciding which log tails
     survive on each shard independently. Classic restart + in-doubt
     resolution must recover every shard to the oracle.
   - [Instant (cut, k2)]: recovery during recovery. The same cut, then
     [restart ~instant:true] and a {e second} workload phase (disjoint
     fiber ids / key slices) admitted while the per-shard drain daemons
     are still redoing — in-doubt branches are restored and resolved
     mid-recovery. [k2 = None] quiesces and checks; [k2 = Some k] cuts the
     whole cluster again at event [k] of that phase — possibly mid-drain
     or mid-resolution — and a classic restart must converge.
   - [Kill (victim, at)]: a {e targeted} fail-stop of one shard at the
     [at]-th durability event while every other shard keeps running — the
     degrade-gracefully mode. The victim is revived mid-run, in-doubts
     resolve, parked deliveries drain, and the final state must match the
     oracle. [at = None] is the recording run (the killer never fires).
   - [Down k]: shard [k] is failed ({!Aries_util.Crashpoint.Shard_down})
     for the whole workload: transactions confined to healthy shards must
     still commit (progress is asserted), transactions touching the downed
     shard abort by presumption, and nothing hangs. *)

open Aries_util
module Btree = Aries_btree.Btree
module Bufpool = Aries_buffer.Bufpool
module Sched = Aries_sched.Sched
module Db = Aries_db.Db
module Txnmgr = Aries_txn.Txnmgr
module Sharddb = Aries_shard.Sharddb
module Twopc = Aries_shard.Twopc

(* ------------------------------------------------------------------ *)
(* The committed-state oracle *)

(* Committed-ness from the stable state alone. A single-branch gtxn is a
   plain local transaction: committed iff its (fence-validated) Commit
   record survives on its shard. A multi-branch gtxn ran 2PC: committed
   iff a durable Coord_commit for its gid survives on the {e coordinator}
   shard — presumed abort means absence {e is} the abort. This is exactly
   the test rule R10 makes sound: the decision is forced only after every
   participant's Prepare (and with it every update) is durable, so a
   surviving decision implies every branch is recoverable. *)
let committed_in t =
  let nshards = Sharddb.n t in
  let committed = Array.init nshards (fun k -> Oracle.committed_txns (Sharddb.db t k)) in
  let decisions = Array.init nshards (fun k -> Twopc.decisions (Sharddb.db t k)) in
  fun (gt : Workload.gtxn_trace) ->
    match gt.gt_fate with
    | Some c -> c
    | None -> (
        match gt.gt_branches with
        | [] -> false
        | [ (k, id) ] -> Hashtbl.mem committed.(k) id
        | (coord, _) :: _ -> (
            match Hashtbl.find_opt decisions.(coord) gt.gt_gid with
            | Some d -> d.Twopc.dc_commit
            | None -> false))

(* A crash fixes the fate of every transaction begun before it, and only
   the stable state at that instant can tell it: a fence target the crash
   lost leaves its offset to later appends, and once log truncation
   archives that offset, the validity test reads it as stable. So each
   crash records the verdict of every transaction it cut, and later checks
   use it. Call right after the crash, before restart appends anything. *)
let freeze t (trace : Workload.trace) =
  let is_committed = committed_in t in
  Vec.iter (fun (gt : Workload.gtxn_trace) -> gt.gt_fate <- Some (is_committed gt)) trace

let check_state t (trace : Workload.trace) ~phase failures =
  let fail fmt =
    Printf.ksprintf (fun s -> failures := (phase ^ ": " ^ s) :: !failures) fmt
  in
  let nshards = Sharddb.n t in
  let is_committed = committed_in t in
  (* the two log-vs-ack contract checks, globalised: an acked gtxn must be
     durably decided (and a committed multi-branch decision implies every
     branch's Prepare survived — R10); an aborted gtxn must not be *)
  Vec.iter
    (fun (gt : Workload.gtxn_trace) ->
      let in_log = is_committed gt in
      if gt.gt_acked && not in_log then
        fail
          "durability violation: G%d (fiber %d) was acked committed but no durable decision \
           survives"
          gt.gt_gid gt.gt_fiber;
      if gt.gt_aborted && in_log then
        fail
          "atomicity violation: G%d (fiber %d) was aborted yet resolves committed from the \
           stable state"
          gt.gt_gid gt.gt_fiber)
    trace;
  (* every committed gtxn must commit {e everywhere}, every other one
     {e nowhere}: fold the committed ops into per-shard expected states
     (the router fixes each value's home) and diff each shard's tree *)
  let expected = Array.make nshards Oracle.empty in
  Vec.iter
    (fun (gt : Workload.gtxn_trace) ->
      if is_committed gt then
        List.iter
          (fun op ->
            let v = match op with Oracle.Insert (v, _) | Oracle.Delete (v, _) -> v in
            let k = Sharddb.shard_of t v in
            expected.(k) <- Oracle.apply_op expected.(k) op)
          (List.rev gt.gt_ops))
    trace;
  for k = 0 to nshards - 1 do
    let tree = Sharddb.btree t k in
    (try Btree.check_invariants tree with
    | Failure m -> fail "shard %d tree invariant violated: %s" k m
    | e -> fail "shard %d check_invariants raised %s" k (Printexc.to_string e));
    let actual = Btree.to_list tree in
    List.iter
      (fun m -> fail "shard %d state mismatch: %s" k m)
      (Oracle.diff_lines expected.(k) actual)
  done;
  List.iter (fun m -> fail "leak: %s" m) (Sharddb.leak_report t)

(* ------------------------------------------------------------------ *)
(* The runner *)

let acked_count (trace : Workload.trace) =
  Vec.fold (fun acc gt -> if gt.Workload.gt_acked then acc + 1 else acc) 0 trace

let cluster (cfg : Workload.cfg) =
  Sharddb.create ~shards:cfg.shards ~page_size:cfg.page_size ~pool_capacity:cfg.pool_capacity
    ~config:{ Btree.default_config with locking = cfg.locking }
    ~commit_mode:cfg.commit_mode ?cleaner:cfg.cleaner ?checkpoint:cfg.checkpoint ?vgc:cfg.vgc
    ~segment_size:cfg.segment_size ~streams:cfg.streams ()

(* An unarmed cluster phase: setup, restart, oracle checks. *)
let checked t failures ~what f =
  Sweep.phase failures ~what (fun max_steps -> Sharddb.run t ~max_steps f)

(* A workload phase under the run's seeded random schedule, with the crash
   hook armed at [armed_at]. Returns the phase's durability events. *)
let workload_phase (cfg : Workload.cfg) t failures ~what ~seed ?armed_at main =
  Crashpoint.reset ();
  Option.iter (fun k -> Crashpoint.arm ~at:k) armed_at;
  Sweep.phase failures ~what ?armed_at (fun max_steps ->
      Sharddb.run t ~policy:(Sched.Random seed) ~yield_probability:cfg.yield_probability
        ~max_steps main);
  let events = Crashpoint.count () in
  Crashpoint.disarm ();
  events

let set_steal_hooks t (cfg : Workload.cfg) ~seed =
  for k = 0 to Sharddb.n t - 1 do
    if Sharddb.is_up t k then
      Bufpool.set_steal_hook (Sharddb.db t k).Db.pool ~seed:(seed + 0x51ea1 + k)
        ~probability:cfg.steal_probability
  done

let clear_steal_hooks t =
  for k = 0 to Sharddb.n t - 1 do
    if Sharddb.is_up t k then Bufpool.clear_steal_hook (Sharddb.db t k).Db.pool
  done

(* Power failure: the stable state is frozen at the trip, so a
   whole-cluster crash + classic restart + in-doubt resolution must
   recover exactly the oracle's committed state. *)
let restart_and_check t trace failures resolved ~what =
  Sharddb.crash t;
  freeze t trace;
  checked t failures ~what (fun () ->
      resolved := !resolved + snd (Sharddb.restart t);
      check_state t trace ~phase:what failures)

let run (cfg : Workload.cfg) ~seed (mode : Sweep.mode) : Sweep.report =
  let crash_at =
    match mode with
    | Sweep.Crash k | Sweep.Instant (k, _) -> Some k
    | Sweep.Run | Sweep.Kill _ | Sweep.Down _ -> None
  in
  (* Setup (environments + empty trees) happens with the hook quiet so
     crash indices enumerate only workload-phase durability events and
     every shard's tree anchor is always recoverable. Every simulated
     machine gets a fresh protocol tracer + discipline checker; a failing
     run dumps its event window into the reproducer. *)
  Sweep.fresh_machine ();
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let t = cluster cfg in
  let trace : Workload.trace = Vec.create () in
  let resolved = ref 0 in
  let events = ref 0 in
  checked t failures ~what:"setup" (fun () -> Sharddb.setup t);
  if !failures = [] then begin
    set_steal_hooks t cfg ~seed;
    (* Storage faults arm after setup (the empty trees' anchors are never
       fault-damaged, mirroring the quiet-setup rule for crash points) and
       stay armed through crash + restart, so recovery itself runs over
       the adversarial disk. The fault stream is seeded from the run seed,
       so a fault run is as replayable as a fault-free one. *)
    Option.iter (fun f -> Faultdisk.arm ~seed:(seed lxor 0xFA17) f) cfg.faults;
    let down_fault =
      match mode with Sweep.Down k -> Some (Crashpoint.Shard_down k) | _ -> None
    in
    Option.iter Crashpoint.enable down_fault;
    Fun.protect
      ~finally:(fun () ->
        Option.iter Crashpoint.disable down_fault;
        Faultdisk.disarm ())
    @@ fun () ->
    let revive_seq = ref 0 in
    let revive_now victim =
      incr revive_seq;
      match Sharddb.revive t victim with
      | Some _ ->
          (* a branch begun on the dead incarnation and never logged is
             invisible to restart, so its txn id could be reissued; the
             oracle keys the trace by (shard, txn id) — keep the revived
             shard's ids disjoint from every pre-kill id *)
          Txnmgr.note_txn_id (Sharddb.db t victim).Db.mgr (100_000 * !revive_seq)
      | None -> ()
    in
    let spawn_killer victim at =
      (* a daemon so a recording run (at = max_int, never fires) leaves the
         schedule identical to an armed run up to the kill instant *)
      ignore
        (Sched.spawn_daemon ~name:"shard-killer" (fun () ->
             while (not (Sched.shutting_down ())) && Crashpoint.count () < at do
               Sched.yield ()
             done;
             if (not (Sched.shutting_down ())) && Crashpoint.count () >= at then begin
               Sharddb.kill t victim;
               (* let the healthy shards make progress against the hole,
                  then bring the victim back: restart + in-doubt resolution
                  + parked-delivery drain, all while the workload runs *)
               for _ = 1 to 60 do
                 if not (Sched.shutting_down ()) then Sched.yield ()
               done;
               if not (Sched.shutting_down ()) then revive_now victim
             end))
    in
    events :=
      workload_phase cfg t failures ~what:"workload" ~seed ?armed_at:crash_at (fun () ->
          (match mode with
          | Sweep.Kill (victim, at) -> spawn_killer victim (Option.value at ~default:max_int)
          | _ -> ());
          Workload.spawn_fibers t cfg ~seed ~trace);
    clear_steal_hooks t;
    if !failures = [] then
      match mode with
      | Sweep.Run ->
          checked t failures ~what:"post-run" (fun () ->
              check_state t trace ~phase:"post-run" failures)
      | Sweep.Down k ->
          (* graceful degradation: healthy-shard transactions must commit,
             and nothing acked may have touched the downed shard *)
          if acked_count trace = 0 then
            fail "degrade run made no progress: zero transactions committed with shard %d down"
              k;
          Vec.iter
            (fun gt ->
              if gt.Workload.gt_acked && List.mem_assoc k gt.Workload.gt_branches then
                fail "G%d was acked committed despite holding a branch on downed shard %d"
                  gt.Workload.gt_gid k)
            trace;
          Option.iter Crashpoint.disable down_fault;
          if !failures = [] then
            checked t failures ~what:"post-degrade" (fun () ->
                check_state t trace ~phase:"post-degrade" failures)
      | Sweep.Kill (victim, _) ->
          (* an armed killer can lose the race when no workload fiber yields
             between the kill point and shutdown (only possible near the
             tail of the schedule); the run then degenerates to a plain
             checked run — not a failure *)
          checked t failures ~what:"post-kill" (fun () ->
              if not (Sharddb.is_up t victim) then revive_now victim;
              resolved := !resolved + Sharddb.resolve_indoubts t;
              check_state t trace ~phase:"post-kill" failures)
      | Sweep.Crash _ -> restart_and_check t trace failures resolved ~what:"post-restart"
      | Sweep.Instant (_, crash_at2) ->
          (* restart every shard [~instant]: each opens right after
             Analysis with its in-doubt branches restored (locks held),
             resolution runs against the drain, and a second workload phase
             (disjoint fiber ids, hence key slices) is admitted
             mid-recovery. [rr_events] then counts this phase, so
             [crash_at2] is swept like [crash_at]. *)
          Sharddb.crash t;
          freeze t trace;
          set_steal_hooks t cfg ~seed:(seed + 0x1000);
          events :=
            workload_phase cfg t failures ~what:"recovery phase" ~seed:(seed lxor 0x1257a2)
              ?armed_at:crash_at2 (fun () ->
                resolved := !resolved + snd (Sharddb.restart ~instant:true t);
                for k = 0 to Sharddb.n t - 1 do
                  (* phase-1 txn ids that never logged can be reissued;
                     the oracle keys the trace by (shard, txn id), so
                     phase 2 lives in a disjoint id range *)
                  Txnmgr.note_txn_id (Sharddb.db t k).Db.mgr 100_000
                done;
                Workload.spawn_fibers ~fiber_base:cfg.fibers t cfg ~seed ~trace);
          clear_steal_hooks t;
          if !failures = [] then
            if crash_at2 = None then
              checked t failures ~what:"post-instant" (fun () ->
                  check_state t trace ~phase:"post-instant" failures)
            else
              (* the second power failure may cut instant restart itself;
                 its partial work (CLRs, redone pages, resolutions, its
                 restart checkpoint) is just more history for a classic
                 restart *)
              restart_and_check t trace failures resolved ~what:"post-restart2"
  end;
  {
    Sweep.rr_events = !events;
    rr_txns = Vec.length trace;
    rr_acked = acked_count trace;
    rr_resolved = !resolved;
    rr_failures = List.rev !failures;
    rr_trace = Workload.trace_to_string trace;
    rr_event_dump = Sweep.dump_if_failed failures;
  }

(* Plain runs and whole-cluster crash sweeps; on a cluster also per-shard
   kill sweeps on the crash seeds and one seed with each shard down in
   turn (a lone shard has no healthy peer to degrade to). *)
let sweep ?progress ~workload (cfg : Workload.cfg) ~seeds ~crash_seeds ~crash_budget =
  let run = run cfg in
  let s = Sweep.sweep ?progress ~workload run ~seeds ~crash_seeds ~crash_budget in
  if cfg.shards = 1 then s
  else
    let s =
      List.fold_left
        (fun acc seed ->
          Sweep.merge acc
            (Sweep.kill_sweep ?progress ~workload run ~victims:cfg.shards ~seed
               ~budget:crash_budget))
        s crash_seeds
    in
    let down_seed = match seeds with s :: _ -> s | [] -> 1 in
    Sweep.merge s
      (Sweep.runs ?progress ~workload run
         (List.init cfg.shards (fun k -> (down_seed, Sweep.Down k))))
