(* The sharded simulation harness: the Sim rig over a [Sharddb] cluster.

   Same discipline as {!Sim}: every run is a pure function of (seed, cfg,
   mode), setup runs with the crash hook quiet, and every check reads the
   {e stable} state — per-shard committed transactions from the logs plus
   the coordinator decision tables — never the workload's bookkeeping.

   How each {!Sweep.mode} plays out on a cluster:

   - [Run]: the sharded workload runs to completion and is checked
     directly.
   - [Crash k]: a whole-cluster power failure at the k-th durability event
     — coordinator and participants cut {e at the same instant}, with the
     per-stream flush shuffle deciding which log tails survive on each
     shard independently. Classic restart + in-doubt resolution must
     recover every shard to the cross-shard oracle.
   - [Instant (cut, None)]: the same cut, then [restart ~instant:true] and
     a {e second} workload phase (disjoint fiber ids / key slices)
     admitted while the per-shard drain daemons are still redoing —
     in-doubt branches are restored and resolved mid-recovery.
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

type cfg = {
  shards : int;
  fibers : int;
  txns_per_fiber : int;
  max_ops_per_txn : int;
  keys_per_fiber : int;
  fetch_freq : int;  (** 1/n of ops are fetches (0 = never) *)
  rollback_freq : int;  (** 1/n of surviving gtxns explicitly abort (0 = never) *)
  yield_probability : float;
  steal_probability : float;
  page_size : int;
  pool_capacity : int;
  segment_size : int;
  streams : int;  (** WAL streams per shard *)
  shuffle : bool;  (** arm the crash-time per-stream flush shuffle *)
}

(* Small cluster, adversarial knobs: 3 shards so a 2-key transaction is
   usually cross-shard under the hash router, 2 WAL streams per shard plus
   the flush shuffle so crash survivorship is misaligned both across
   streams and across shards, tiny pages/pools for SMOs and steals. *)
let default_cfg =
  {
    shards = 3;
    fibers = 3;
    txns_per_fiber = 5;
    max_ops_per_txn = 3;
    keys_per_fiber = 24;
    fetch_freq = 5;
    rollback_freq = 6;
    yield_probability = 0.2;
    steal_probability = 0.1;
    page_size = 320;
    pool_capacity = 12;
    segment_size = 1024;
    streams = 2;
    shuffle = true;
  }

(* ------------------------------------------------------------------ *)
(* The sharded workload *)

type gtxn_trace = {
  gt_fiber : int;
  gt_gid : int;
  mutable gt_branches : (int * Ids.txn_id) list;  (* first-touch order; head = coordinator *)
  mutable gt_ops : Oracle.op list;  (* most recent first *)
  mutable gt_acked : bool;
  mutable gt_aborted : bool;
}

type trace = gtxn_trace Vec.t

let key_value ~fiber i = Printf.sprintf "g%02d-k%03d" fiber i

let key_rid ~fiber i = { Ids.rid_page = 200_000 + fiber; rid_slot = i }

(* The fiber's exact view of one of its own values: the in-flight gtxn's
   ops (most recent first) shadow the committed view. *)
let lookup view (gt : gtxn_trace) value =
  let rec go = function
    | [] -> Hashtbl.find_opt view value
    | Oracle.Insert (v, rid) :: _ when String.equal v value -> Some rid
    | Oracle.Delete (v, _) :: _ when String.equal v value -> None
    | _ :: rest -> go rest
  in
  go gt.gt_ops

let run_gtxn t cfg rng view (gt : gtxn_trace) g ~fiber =
  let nops = 1 + Rng.int rng cfg.max_ops_per_txn in
  for _ = 1 to nops do
    let i = Rng.int rng cfg.keys_per_fiber in
    let value = key_value ~fiber i in
    (if cfg.fetch_freq > 0 && Rng.int rng cfg.fetch_freq = 0 then
       ignore (Sharddb.fetch t g value)
     else
       match lookup view gt value with
       | None ->
           let rid = key_rid ~fiber i in
           Sharddb.insert t g ~value ~rid;
           gt.gt_ops <- Oracle.Insert (value, rid) :: gt.gt_ops
       | Some rid ->
           Sharddb.delete t g ~value ~rid;
           gt.gt_ops <- Oracle.Delete (value, rid) :: gt.gt_ops);
    (* record branches as they form, not at commit: a crash can cut the
       transaction at any op and the oracle still needs to know which
       shards held a branch (and who would have coordinated) *)
    gt.gt_branches <- Sharddb.branches g
  done

let spawn_fibers ?(fiber_base = 0) t cfg ~seed ~(trace : trace) =
  for f = 0 to cfg.fibers - 1 do
    let fiber = fiber_base + f in
    let rng = Rng.create ((seed * 1_000_003) + (fiber * 7919) + 23) in
    ignore
      (Sched.spawn
         ~name:(Printf.sprintf "swl-%d" fiber)
         (fun () ->
           let view : (string, Ids.rid) Hashtbl.t = Hashtbl.create 64 in
           try
             for _ = 1 to cfg.txns_per_fiber do
               if Crashpoint.tripped () then raise (Crashpoint.Crash (Crashpoint.count ()));
               let g = Sharddb.begin_gtxn t in
               let gt =
                 {
                   gt_fiber = fiber;
                   gt_gid = Sharddb.gid g;
                   gt_branches = [];
                   gt_ops = [];
                   gt_acked = false;
                   gt_aborted = false;
                 }
               in
               Vec.push trace gt;
               match run_gtxn t cfg rng view gt g ~fiber with
               | exception Txnmgr.Aborted _ ->
                   (* this branch was rolled back in place (deadlock victim,
                      global-detector victim, or a kill breaking its lock
                      wait); the other branches still need aborting *)
                   gt.gt_aborted <- true;
                   Sharddb.abort t g
               | exception Sharddb.Shard_down _ ->
                   (* fail-fast from a downed shard: abort by presumption
                      everywhere reachable, keep going on healthy shards *)
                   gt.gt_aborted <- true;
                   Sharddb.abort t g
               | () -> (
                   if cfg.rollback_freq > 0 && Rng.int rng cfg.rollback_freq = 0 then begin
                     gt.gt_aborted <- true;
                     Sharddb.abort t g
                   end
                   else
                     match Sharddb.commit t g with
                     | () ->
                         gt.gt_acked <- true;
                         List.iter
                           (fun op ->
                             match op with
                             | Oracle.Insert (v, rid) -> Hashtbl.replace view v rid
                             | Oracle.Delete (v, _) -> Hashtbl.remove view v)
                           (List.rev gt.gt_ops)
                     | exception Sharddb.Global_abort _ -> gt.gt_aborted <- true)
             done
           with
           | Crashpoint.Crash _ as c -> raise c
           | e when Crashpoint.tripped () ->
               (* the power failure tore volatile state under this fiber
                  mid-operation; the machine is dead, only the stable state
                  matters — count the fiber as crash-killed *)
               ignore e;
               raise (Crashpoint.Crash (Crashpoint.count ()))))
  done

let trace_to_string (trace : trace) =
  Vec.fold
    (fun acc gt ->
      let outcome =
        if gt.gt_acked then "committed" else if gt.gt_aborted then "aborted" else "in-flight"
      in
      let parts =
        String.concat ","
          (List.map (fun (k, id) -> Printf.sprintf "%d:T%d" k id) gt.gt_branches)
      in
      let ops = List.rev_map Oracle.op_to_string gt.gt_ops in
      Printf.sprintf "G%d f%d [%s] %s: %s" gt.gt_gid gt.gt_fiber parts outcome
        (if ops = [] then "(no updates)" else String.concat " " ops)
      :: acc)
    [] trace
  |> List.rev

(* ------------------------------------------------------------------ *)
(* The cross-shard committed-state oracle *)

(* Committed-ness from the stable state alone. A single-branch gtxn is a
   plain local transaction: committed iff its (fence-validated) Commit
   record survives on its shard. A multi-branch gtxn ran 2PC: committed
   iff a durable Coord_commit for its gid survives on the {e coordinator}
   shard — presumed abort means absence {e is} the abort. This is exactly
   the test rule R10 makes sound: the decision is forced only after every
   participant's Prepare (and with it every update) is durable, so a
   surviving decision implies every branch is recoverable. *)
let committed_gtxn committed decisions (gt : gtxn_trace) =
  match gt.gt_branches with
  | [] -> false
  | [ (k, id) ] -> Hashtbl.mem committed.(k) id
  | (coord, _) :: _ -> (
      match Hashtbl.find_opt decisions.(coord) gt.gt_gid with
      | Some d -> d.Twopc.dc_commit
      | None -> false)

let check_state t (trace : trace) ~phase failures =
  let fail fmt =
    Printf.ksprintf (fun s -> failures := (phase ^ ": " ^ s) :: !failures) fmt
  in
  let nshards = Sharddb.n t in
  let committed = Array.init nshards (fun k -> Oracle.committed_txns (Sharddb.db t k)) in
  let decisions = Array.init nshards (fun k -> Twopc.decisions (Sharddb.db t k)) in
  let is_committed = committed_gtxn committed decisions in
  (* the two log-vs-ack contract checks, globalised: an acked gtxn must be
     durably decided (and a committed multi-branch decision implies every
     branch's Prepare survived — R10); an aborted gtxn must not be *)
  Vec.iter
    (fun gt ->
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
    (fun gt ->
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

let acked_count (trace : trace) =
  Vec.fold (fun acc gt -> if gt.gt_acked then acc + 1 else acc) 0 trace

let mk_cluster cfg =
  Sharddb.create ~shards:cfg.shards ~page_size:cfg.page_size ~pool_capacity:cfg.pool_capacity
    ~segment_size:cfg.segment_size ~streams:cfg.streams ()


(* An unarmed cluster phase: setup, restart, oracle checks. *)
let checked t failures ~what ?policy ?yield_probability f =
  Sweep.phase failures ~what (fun max_steps ->
      Sharddb.run t ?policy ?yield_probability ~max_steps f)

let set_steal_hooks t cfg ~seed =
  for k = 0 to Sharddb.n t - 1 do
    if Sharddb.is_up t k then
      Bufpool.set_steal_hook (Sharddb.db t k).Db.pool ~seed:(seed + 0x51ea1 + k)
        ~probability:cfg.steal_probability
  done

let clear_steal_hooks t =
  for k = 0 to Sharddb.n t - 1 do
    if Sharddb.is_up t k then Bufpool.clear_steal_hook (Sharddb.db t k).Db.pool
  done

let run cfg ~seed (mode : Sweep.mode) : Sweep.report =
  let crash_at =
    match mode with
    | Sweep.Crash k | Sweep.Instant (k, None) -> Some k
    | Sweep.Run | Sweep.Kill _ | Sweep.Down _ -> None
    | Sweep.Instant (_, Some _) ->
        invalid_arg
          ("Shardsim.run: no second crash inside cluster recovery: " ^ Sweep.mode_to_string mode)
  in
  Sweep.fresh_machine ();
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let t = mk_cluster cfg in
  let trace : trace = Vec.create () in
  let resolved = ref 0 in
  let events = ref 0 in
  (* setup with the hook quiet: crash indices enumerate only workload-phase
     durability events, and every shard's tree anchor is recoverable *)
  checked t failures ~what:"setup" (fun () -> Sharddb.setup t);
  if !failures = [] then begin
    set_steal_hooks t cfg ~seed;
    if cfg.shuffle then Faultdisk.arm ~seed:(seed lxor 0xFA17) Faultdisk.shuffle_cfg;
    let down_fault =
      match mode with Sweep.Down k -> Some (Crashpoint.Shard_down k) | _ -> None
    in
    Option.iter Crashpoint.enable down_fault;
    Fun.protect
      ~finally:(fun () ->
        Option.iter Crashpoint.disable down_fault;
        Faultdisk.disarm ())
    @@ fun () ->
    Crashpoint.reset ();
    Option.iter (fun k -> Crashpoint.arm ~at:k) crash_at;
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
    Sweep.phase failures ~what:"workload" ?armed_at:crash_at (fun max_steps ->
        Sharddb.run t ~policy:(Sched.Random seed) ~yield_probability:cfg.yield_probability
          ~max_steps (fun () ->
            (match mode with
            | Sweep.Kill (victim, at) -> spawn_killer victim (Option.value at ~default:max_int)
            | _ -> ());
            spawn_fibers t cfg ~seed ~trace));
    events := Crashpoint.count ();
    Crashpoint.disarm ();
    clear_steal_hooks t;
    match mode with
    | Sweep.Run ->
        if !failures = [] then
          checked t failures ~what:"post-run" (fun () ->
              check_state t trace ~phase:"post-run" failures)
    | Sweep.Down k ->
        (* graceful degradation: healthy-shard transactions must commit,
           and nothing acked may have touched the downed shard *)
        if acked_count trace = 0 then
          fail "degrade run made no progress: zero transactions committed with shard %d down" k;
        Vec.iter
          (fun gt ->
            if gt.gt_acked && List.mem_assoc k gt.gt_branches then
              fail "G%d was acked committed despite holding a branch on downed shard %d"
                gt.gt_gid k)
          trace;
        Option.iter Crashpoint.disable down_fault;
        if !failures = [] then
          checked t failures ~what:"post-degrade" (fun () ->
              check_state t trace ~phase:"post-degrade" failures)
    | Sweep.Kill (victim, _) ->
        (* an armed killer can lose the race when no workload fiber yields
           between the kill point and shutdown (only possible near the tail
           of the schedule); the run then degenerates to a plain checked
           run — not a failure *)
        if !failures = [] then
          checked t failures ~what:"post-kill" (fun () ->
              if not (Sharddb.is_up t victim) then revive_now victim;
              resolved := !resolved + Sharddb.resolve_indoubts t;
              check_state t trace ~phase:"post-kill" failures)
    | Sweep.Crash _ ->
        if !failures = [] then begin
          Sharddb.crash t;
          checked t failures ~what:"post-restart" (fun () ->
              resolved := !resolved + snd (Sharddb.restart t);
              check_state t trace ~phase:"post-restart" failures)
        end
    | Sweep.Instant _ ->
        if !failures = [] then begin
          Sharddb.crash t;
          set_steal_hooks t cfg ~seed:(seed + 0x1000);
          (* restart every shard [~instant]: each opens right after Analysis
             with its in-doubt branches restored (locks held), resolution
             runs against the drain, and a second workload phase (disjoint
             fiber ids, hence key slices) is admitted mid-recovery *)
          checked t failures ~what:"instant recovery" ~policy:(Sched.Random (seed lxor 0x1257a2))
            ~yield_probability:cfg.yield_probability (fun () ->
              resolved := !resolved + snd (Sharddb.restart ~instant:true t);
              for k = 0 to Sharddb.n t - 1 do
                (* phase-1 txn ids that never logged can be reissued; the
                   oracle keys the trace by (shard, txn id), so phase 2
                   lives in a disjoint id range *)
                Txnmgr.note_txn_id (Sharddb.db t k).Db.mgr 100_000
              done;
              spawn_fibers ~fiber_base:cfg.fibers t cfg ~seed ~trace);
          clear_steal_hooks t;
          if !failures = [] then
            checked t failures ~what:"post-instant" (fun () ->
                check_state t trace ~phase:"post-instant" failures)
        end
  end;
  {
    Sweep.rr_events = !events;
    rr_txns = Vec.length trace;
    rr_acked = acked_count trace;
    rr_resolved = !resolved;
    rr_failures = List.rev !failures;
    rr_trace = trace_to_string trace;
    rr_event_dump = Sweep.dump_if_failed failures;
  }

(* The full sharded rig behind `sim smoke --shards`: plain runs and
   whole-cluster crash sweeps, per-shard kill sweeps on the crash seeds,
   and one seed with each shard down in turn. *)
let sweep ?progress ~workload cfg ~seeds ~crash_seeds ~crash_budget =
  let run = run cfg in
  let s = Sweep.sweep ?progress ~workload run ~seeds ~crash_seeds ~crash_budget in
  let s =
    List.fold_left
      (fun acc seed ->
        Sweep.merge acc
          (Sweep.kill_sweep ?progress ~workload run ~victims:cfg.shards ~seed ~budget:crash_budget))
      s crash_seeds
  in
  let down_seed = match seeds with s :: _ -> s | [] -> 1 in
  Sweep.merge s
    (Sweep.runs ?progress ~workload run (List.init cfg.shards (fun k -> (down_seed, Sweep.Down k))))

(* Crash at sampled cut points; each cut instant-restarts the whole
   cluster and serves a second workload phase while the drains run and
   in-doubts resolve mid-recovery. *)
let instant_sweep ?progress ~workload cfg ~seed ~budget =
  Sweep.sample ?progress ~workload (run cfg) ~seed ~record:Sweep.Run ~budget (fun cut ->
      Sweep.Instant (cut, None))
