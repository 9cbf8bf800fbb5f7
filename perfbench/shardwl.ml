(* The [shard-2pc] workload: a 4-shard [Sharddb] with the hash router,
   driven at the Btree level (no heap) by closed-loop client fibers. A
   quarter of the transactions touch two shards and commit through
   presumed-abort 2PC; the rest take the single-shard fast path. A round
   sets the cluster up, runs the clients until a fixed scheduler step,
   crashes the whole cluster and restarts it — classic on even rounds,
   instant plus one new committed transaction on odd ones ([Sharddb] has no
   save/load, so the two restarts cannot share one crash image). *)

open Aries_util
module Db = Aries_db.Db
module Sharddb = Aries_shard.Sharddb
module Txnmgr = Aries_txn.Txnmgr
module Group_commit = Aries_txn.Group_commit
module Restart = Aries_recovery.Restart
module Sched = Aries_sched.Sched
module Btree = Aries_btree.Btree
module Disk = Aries_page.Disk
module Key = Aries_page.Key

let shards = 4

let fibers = 4

let preload_per_shard = 500

let cross_pct = 25

let cut_steps = 25_000

let page_size = Tablewl.page_size

let commit_policy = Group_commit.default_policy

let describe () =
  Printf.sprintf
    "shards=%d router=hash pool_frames=128/shard page_size=%d fibers=%d cut_steps=%d \
     preload=%d/shard cross_pct=%d group_commit={max_batch=%d; max_delay_steps=%d} cleaner=off \
     checkpoint=off"
    shards page_size fibers cut_steps preload_per_shard cross_pct commit_policy.Group_commit.max_batch
    commit_policy.Group_commit.max_delay_steps

type op = Fetch of string | Insert of string * Ids.rid

type client = {
  fiber : int;
  rng : Rng.t;
  mutable next_key : int;
}

type env = {
  t : Sharddb.t;
  model : Ids.rid Model.t;
  acct : Round.acct;
  preloaded : string array array;  (** per shard *)
  mutable next_attempt : int;
  mutable cross_committed : int;
  mutable cross_calls : int;  (** cross-shard commit calls *)
  mutable cross_call_aborts : int;  (** of which raised [Global_abort] *)
  mutable cross_forces : int;  (** log forces observed across cross-shard commit calls *)
  mutable cross_pending : (int * string list) list;  (** cross attempts that called commit *)
}

let key_bytes k = String.length k + 8

(* A fresh key of this fiber that the router sends to shard [s]. *)
let fresh env c s =
  let rec go () =
    let k = Printf.sprintf "f%d-%07d" c.fiber c.next_key in
    c.next_key <- c.next_key + 1;
    if Sharddb.shard_of env.t k = s then (k, { Ids.rid_page = 500_000 + c.fiber; rid_slot = c.next_key })
    else go ()
  in
  go ()

let plan env c =
  let known s = Rng.pick c.rng env.preloaded.(s) in
  let a = Rng.int c.rng shards in
  if Rng.int c.rng 100 < cross_pct then begin
    let b = (a + 1 + Rng.int c.rng (shards - 1)) mod shards in
    let ka, ra = fresh env c a and kb, rb = fresh env c b in
    (true, [ Fetch (known a); Insert (ka, ra); Insert (kb, rb); Fetch (known b) ])
  end
  else begin
    let k1, r1 = fresh env c a and k2, r2 = fresh env c a in
    (false, [ Fetch (known a); Insert (k1, r1); Insert (k2, r2); Fetch (known a) ])
  end

let exec env g ~attempt op =
  env.acct.ops <- env.acct.ops + 1;
  match op with
  | Fetch k -> (
      match Span.wrap ~req:attempt "shard.fetch" (fun () -> Sharddb.fetch env.t g k) with
      | Some key when String.equal key.Key.value k -> 0
      | _ -> Round.fail "shard fetch %s: preloaded key not found" k)
  | Insert (k, rid) ->
      Span.wrap ~req:attempt "shard.insert" (fun () -> Sharddb.insert env.t g ~value:k ~rid);
      Model.write env.model attempt k (Some rid);
      key_bytes k

let forces () = Stats.get (Stats.current ()) Stats.log_forces

let run_attempt env (cross, ops) ~attempt =
  let g = Span.wrap ~req:attempt "shard.begin" (fun () -> Sharddb.begin_gtxn env.t) in
  Model.set env.model attempt Model.Open;
  match List.fold_left (fun acc op -> acc + exec env g ~attempt op) 0 ops with
  | exception (Txnmgr.Aborted _ as e) ->
      Span.wrap ~req:attempt "shard.abort" (fun () -> Sharddb.abort env.t g);
      raise e
  | written ->
      Model.set env.model attempt Model.Committing;
      if cross then begin
        env.cross_calls <- env.cross_calls + 1;
        env.cross_pending <-
          (attempt, List.filter_map (function Insert (k, _) -> Some k | Fetch _ -> None) ops)
          :: env.cross_pending;
        let f0 = forces () in
        (match Span.wrap ~req:attempt "shard.commit_cross" (fun () -> Sharddb.commit env.t g) with
        | () -> ()
        | exception (Sharddb.Global_abort _ as e) ->
            env.cross_call_aborts <- env.cross_call_aborts + 1;
            raise e);
        env.cross_forces <- env.cross_forces + (forces () - f0);
        env.cross_committed <- env.cross_committed + 1
      end
      else Span.wrap ~req:attempt "shard.commit_single" (fun () -> Sharddb.commit env.t g);
      Model.set env.model attempt Model.Acked;
      written

(* Stable footprint of the cluster: every shard's disk pages and live log. *)
let space t =
  List.fold_left
    (fun acc (db : Db.t) -> acc + (Disk.page_count db.Db.disk * page_size) + Tablewl.live_log_bytes db)
    0
    (List.init shards (Sharddb.db t))

let client env c () =
  let a = env.acct in
  while true do
    Round.mark a ~space:(fun () -> space env.t);
    let p = plan env c in
    let t0 = Span.now_ns () in
    a.in_flight <- a.in_flight + 1;
    let rec go tries =
      let attempt = env.next_attempt in
      env.next_attempt <- attempt + 1;
      a.attempts <- a.attempts + 1;
      match Span.wrap ~req:attempt "client.txn" (fun () -> run_attempt env p ~attempt) with
      | bytes ->
          a.committed <- a.committed + 1;
          a.user_bytes <- a.user_bytes + bytes;
          Vec.push a.lat_ms (Span.seconds_since t0 *. 1e3)
      | exception (Txnmgr.Aborted _ | Sharddb.Global_abort _) ->
          Model.set env.model attempt Model.Undone;
          a.aborts <- a.aborts + 1;
          Round.backoff c.rng tries;
          if tries < Round.max_retries then go (tries + 1) else a.gave_up <- a.gave_up + 1
    in
    go 0;
    a.in_flight <- a.in_flight - 1
  done

let run_ok what t f = Tablewl.run_ok what (Sharddb.run ~policy:Sched.Fifo t f)

(* Returns the cluster, each shard's preloaded keys and the ns stamps
   that cut setup into slices: start, trees created, one per shard's
   preload, services drained. *)
let setup model =
  let stamps = ref [ Span.now_ns () ] in
  let stamp () = stamps := Span.now_ns () :: !stamps in
  let t =
    Span.wrap "shard.create" (fun () ->
        Sharddb.create ~shards ~router:Sharddb.Hash ~page_size ~commit_mode:(Db.Group commit_policy) ())
  in
  let per = Array.make shards [] in
  let i = ref 0 in
  while Array.exists (fun l -> List.length l < preload_per_shard) per do
    let k = Printf.sprintf "k%07d" !i in
    let s = Sharddb.shard_of t k in
    if List.length per.(s) < preload_per_shard then per.(s) <- k :: per.(s);
    incr i
  done;
  run_ok "setup" t (fun () ->
      Span.wrap "shard.setup" (fun () -> Sharddb.setup t);
      stamp ();
      Array.iteri
        (fun s keys ->
          let g = Sharddb.begin_gtxn t in
          List.iteri
            (fun j k ->
              let rid = { Ids.rid_page = 400_000 + s; rid_slot = j } in
              Span.wrap "shard.preload_insert" (fun () -> Sharddb.insert t g ~value:k ~rid);
              Model.write model Model.preload_attempt k (Some rid))
            keys;
          Span.wrap "shard.preload_commit" (fun () -> Sharddb.commit t g);
          stamp ())
        per);
  stamp ();
  (t, Array.map Array.of_list per, List.rev !stamps)

let cluster_state t =
  let st = ref [] in
  run_ok "state read" t (fun () ->
      for s = 0 to shards - 1 do
        List.iter
          (fun (k, rid) ->
            Round.check (Sharddb.shard_of t k = s) "key %s found on shard %d, routed elsewhere" k s;
            st := (k, rid) :: !st)
          (Btree.to_list (Sharddb.btree t s))
      done);
  !st

let audit ~what env =
  let state = cluster_state env.t in
  Model.verify env.model ~what state;
  (* 2PC atomicity: a cross-shard transaction left in doubt by the crash is
     present on all its shards or on none *)
  let present = Hashtbl.create (List.length state) in
  List.iter (fun (k, _) -> Hashtbl.replace present k ()) state;
  List.iter
    (fun (attempt, keys) ->
      let n = List.length (List.filter (Hashtbl.mem present) keys) in
      Round.check
        (n = 0 || n = List.length keys)
        "%s: cross-shard transaction %d present on only %d of its %d shards" what attempt n
        (List.length keys))
    env.cross_pending;
  for s = 0 to shards - 1 do
    Btree.check_invariants (Sharddb.btree env.t s)
  done;
  match Sharddb.leak_report env.t with
  | [] -> ()
  | leaks -> Round.fail "%s: leak report: %s" what (String.concat "; " leaks)

let round ~index ~seed ~layers =
  let model = Model.create () in
  let t, preloaded, setup_stamps = setup model in
  let env =
    {
      t;
      model;
      acct = Round.acct ~cut_steps;
      preloaded;
      next_attempt = 1;
      cross_committed = 0;
      cross_calls = 0;
      cross_call_aborts = 0;
      cross_forces = 0;
      cross_pending = [];
    }
  in
  let r, run_segs, stats, minor, major =
    Round.measure env.acct (fun () ->
        Sharddb.run ~policy:(Sched.Random seed) ~max_steps:cut_steps t (fun () ->
            for f = 0 to fibers - 1 do
              let c = { fiber = f; rng = Rng.create ((seed * 1_000_003) + (f * 7919) + 29); next_key = 0 } in
              ignore (Sched.spawn ~name:(Printf.sprintf "client-%d" f) (client env c))
            done))
  in
  (match r.Sched.exns with
  | [] -> ()
  | (_, name, e) :: _ -> Round.fail "workload: fiber %s raised %s" name (Printexc.to_string e));
  (match r.Sched.outcome with
  | Sched.Interrupted _ -> ()
  | Sched.Completed | Sched.Stalled _ -> Round.fail "workload ended before the step cut");
  let a = env.acct in
  (* coverage self-checks *)
  let share = float_of_int env.cross_committed /. float_of_int (max 1 a.committed) in
  Round.check
    (Float.abs (share -. (float_of_int cross_pct /. 100.)) <= 0.05)
    "shard-2pc: cross-shard share %.3f is off its %d%% target" share cross_pct;
  (* every finished cross-shard commit prepared exactly its two branches;
     a commit the cut interrupted may have prepared fewer *)
  let prepares = Stats.get stats Stats.txn_prepares in
  let unfinished = env.cross_calls - env.cross_committed - env.cross_call_aborts in
  Round.check
    (prepares >= 2 * env.cross_committed && prepares <= 2 * env.cross_calls && unfinished <= fibers)
    "shard-2pc: %d prepares for %d cross-shard commits (%d acknowledged)" prepares env.cross_calls
    env.cross_committed;
  let dbs = List.init shards (Sharddb.db t) in
  let live_user = Model.fold_acked model (fun k _ acc -> acc + key_bytes k) 0 in
  let sum f = List.fold_left (fun acc db -> acc + f db) 0 dbs in
  let reclaimed_frac =
    1. -. (float_of_int (sum Tablewl.live_log_bytes) /. float_of_int (sum Tablewl.appended_log_bytes))
  in
  Span.wrap "shard.crash" (fun () -> Sharddb.crash t);
  let wal = if layers then Tablewl.wal_scan (Sharddb.db t 0) else [] in
  let classic = index mod 2 = 0 in
  let restart_s, first_ms, reports, layer =
    if classic then begin
      let reps = ref [||] in
      let (), secs =
        Span.timed (fun () ->
            run_ok "classic restart" t (fun () ->
                reps := fst (Span.wrap "recovery.restart" (fun () -> Sharddb.restart t))))
      in
      let totals = Round.restart_totals (Array.to_list !reps) in
      ([ secs ], [], Round.prefixed "classic" totals, Round.recovery_layer totals)
    end
    else begin
      let first_key = "z-first-commit" in
      let rid = { Ids.rid_page = 600_000; rid_slot = 0 } in
      let t0 = Span.now_ns () in
      let first_ms = ref nan and open_ms = ref nan and drain_ms = ref nan in
      run_ok "instant restart" t (fun () ->
          let _, o = Span.timed (fun () -> Span.wrap "recovery.instant_open" (fun () -> Sharddb.restart ~instant:true t)) in
          let t_open = Span.now_ns () in
          Span.wrap "shard.first_commit" (fun () ->
              let g = Sharddb.begin_gtxn t in
              Sharddb.insert t g ~value:first_key ~rid;
              Sharddb.commit t g);
          first_ms := Span.seconds_since t0 *. 1e3;
          List.iter
            (fun db ->
              match Db.restart_engine db with
              | Some en -> while not (Restart.finished en) do Sched.yield () done
              | None -> ())
            (List.init shards (Sharddb.db t));
          drain_ms := Span.seconds_since t_open *. 1e3;
          open_ms := o *. 1e3);
      let first_attempt = env.next_attempt in
      Model.set model first_attempt Model.Acked;
      Model.write model first_attempt first_key (Some rid);
      ( [],
        [ !first_ms ],
        [],
        [ ("recovery.instant_open_ms", !open_ms); ("recovery.instant_drain_ms", !drain_ms) ] )
    end
  in
  audit ~what:(if classic then "classic restart" else "instant restart") env;
  let layer =
    layer @ wal
    @ (if layers then Tablewl.page_codec (Sharddb.db t 0) else [])
    @ [
        ("wal.reclaimed_frac", reclaimed_frac);
        ( "shard.prepares_per_cross_txn",
          float_of_int prepares /. float_of_int (max 1 env.cross_calls) );
        ( "shard.forces_per_cross_commit",
          float_of_int env.cross_forces /. float_of_int (max 1 env.cross_committed) );
      ]
  in
  {
    Round.setup_segs = Round.segments setup_stamps;
    run_segs;
    acct = a;
    steps = r.Sched.steps;
    stats;
    gc_minor_words = minor;
    gc_major = major;
    write_bytes = Stats.get stats Stats.log_bytes + (Stats.get stats Stats.page_writes * page_size);
    space_amp = Round.mean_space a /. float_of_int live_user;
    restart_s;
    first_commit_ms = first_ms;
    layer;
    counts =
      Round.base_counts a stats ~steps:r.Sched.steps
      @ reports
      @ [
          ("cross_committed", env.cross_committed);
          ("prepares", prepares);
        ];
  }
