open Aries_util
module Btree = Aries_btree.Btree
module Protocol = Aries_btree.Protocol
module Key = Aries_page.Key
module Txnmgr = Aries_txn.Txnmgr
module Sched = Aries_sched.Sched
module Db = Aries_db.Db
module Sharddb = Aries_shard.Sharddb

type cfg = {
  shards : int;
  fibers : int;
  txns_per_fiber : int;
  max_ops_per_txn : int;
  keys_per_fiber : int;
  fetch_freq : int;
  rollback_freq : int;
  scan_freq : int;
  yield_probability : float;
  steal_probability : float;
  page_size : int;
  pool_capacity : int;
  commit_mode : Db.commit_mode;
  cleaner : Aries_buffer.Cleaner.cfg option;
  checkpoint : Aries_recovery.Ckptd.cfg option;
  locking : Protocol.locking;
  vgc : Aries_recovery.Vgcd.cfg option;
  segment_size : int;
  streams : int;
  faults : Faultdisk.cfg option;
}

let default_cfg =
  {
    shards = 1;
    fibers = 3;
    txns_per_fiber = 6;
    max_ops_per_txn = 4;
    keys_per_fiber = 48;
    fetch_freq = 4;
    rollback_freq = 5;
    scan_freq = 0;
    yield_probability = 0.2;
    steal_probability = 0.15;
    page_size = 320;
    pool_capacity = 12;
    commit_mode = Db.Per_commit;
    cleaner = None;
    (* the checkpoint daemon is ON by default: every sim run exercises
       fuzzy checkpoints and mid-run log truncation, with segments small
       enough (1 KiB) that whole segments actually fall below the safety
       point during a short workload *)
    checkpoint = Some { Aries_recovery.Ckptd.every_steps = 24; nudge_pages = 2; truncate = true };
    locking = Protocol.Data_only;
    vgc = None;
    segment_size = 1024;
    streams = 1;
    faults = None;
  }

(* The same adversarial workload with the full commit pipeline on: batched
   commit forces (small batch/window so batches actually close mid-run) and
   the background page cleaner trickling dirty pages between steals. *)
let group_cfg =
  {
    default_cfg with
    txns_per_fiber = 7;
    commit_mode =
      Db.Group { Aries_txn.Group_commit.max_batch = 4; max_delay_steps = 6 };
    cleaner = Some { Aries_buffer.Cleaner.interval_steps = 12; batch_pages = 2 };
  }

(* The storage-fault configurations: the same two workloads running over
   an adversarial disk. [fault_cfg] mixes everything — transient EIO on
   reads/writes/forces (exercising the bounded-retry paths), bit-rot on
   page writes (exercising CRC detection, quarantine and automatic media
   repair), and torn page/log images when a crash trips mid-write.
   [fault_group_cfg] runs the full commit pipeline over the same disk — a
   transient-EIO'd force must delay, never drop, its batch.
   [fault_eio_cfg] is the pure retry storm: higher EIO rates, no
   corruption, so every run must complete with zero data damage. *)
let fault_cfg = { default_cfg with faults = Some Faultdisk.default_cfg }

let fault_group_cfg = { group_cfg with faults = Some Faultdisk.default_cfg }

let fault_eio_cfg = { group_cfg with faults = Some Faultdisk.eio_only_cfg }

(* The multi-stream configurations: the same two workloads over a
   4-stream WAL with the crash-time per-stream flush shuffle armed — at
   every simulated power failure each stream independently keeps a
   shuffled number of its unflushed frames, so the surviving prefixes are
   deliberately misaligned across streams. Recovery must reconstruct the
   committed set from the epoch-fence vectors alone ([Logset.commit_valid]),
   and the oracle applies the identical test. [multistream_group_cfg] adds
   the batched commit pipeline, whose per-batch epoch fence (rule R8) is
   the actual commit-order constraint under test. *)
let multistream_cfg = { default_cfg with streams = 4; faults = Some Faultdisk.shuffle_cfg }

let multistream_group_cfg = { group_cfg with streams = 4; faults = Some Faultdisk.shuffle_cfg }

(* The MVCC configuration: the long-scan-vs-hot-writer mix under
   {!Protocol.Mvcc}. Writer slices shrink to 16 values, so the same txn
   count rewrites each key repeatedly and chains grow several versions
   deep; every third transaction is a full-tree snapshot scan crossing
   every hot slice mid-rewrite (and, with small pages, mid-SMO); the
   version-GC daemon runs every 32 steps, so reclamation races live
   snapshots and crash points land mid-collection. Every scan checks its
   own slice against the fiber's committed view at pin time — the
   per-snapshot oracle — and the online checker enforces R9 (zero reader
   key locks, zero reader lock waits) on every read. *)
let mvcc_cfg =
  {
    default_cfg with
    locking = Protocol.Mvcc;
    keys_per_fiber = 16;
    scan_freq = 3;
    fetch_freq = 3;
    vgc = Some { Aries_recovery.Vgcd.every_steps = 32 };
  }

(* The same mix over the batched commit pipeline: a committer parked on the
   group-commit queue has already stamped its versions (fate sealed at the
   Commit record), so snapshots pinned during the park must see them. *)
let mvcc_group_cfg =
  {
    group_cfg with
    locking = Protocol.Mvcc;
    keys_per_fiber = 16;
    scan_freq = 3;
    fetch_freq = 3;
    vgc = Some { Aries_recovery.Vgcd.every_steps = 32 };
  }

(* Small cluster, adversarial knobs: 3 shards so a 2-key transaction is
   usually cross-shard under the hash router, 2 WAL streams per shard plus
   the flush shuffle so crash survivorship is misaligned both across
   streams and across shards, tiny pages/pools for SMOs and steals, and no
   daemons, so a single shard can be killed mid-run. *)
let shards_cfg =
  {
    default_cfg with
    shards = 3;
    txns_per_fiber = 5;
    max_ops_per_txn = 3;
    keys_per_fiber = 24;
    fetch_freq = 5;
    rollback_freq = 6;
    steal_probability = 0.1;
    checkpoint = None;
    streams = 2;
    faults = Some Faultdisk.shuffle_cfg;
  }

type gtxn_trace = {
  gt_fiber : int;
  gt_gid : int;
  mutable gt_branches : (int * Ids.txn_id) list;
  mutable gt_ops : Oracle.op list;
  mutable gt_acked : bool;
  mutable gt_aborted : bool;
  mutable gt_fate : bool option;
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

(* A long scan: walk every shard's whole tree from the start. Under Mvcc
   this is a snapshot read — the pin happens at the first fetch_next, no
   key lock is ever requested and no lock wait ever entered (rule R9,
   enforced online by the discipline checker on every read) — and the
   slice of the result owned by this fiber is checked against the fiber's
   committed view at scan start: the per-snapshot oracle. The check is
   exact because the snapshot covers every commit this fiber has been
   acked for (versions are stamped at the Commit record, before the
   durability wait), no other fiber writes the slice, and the scanning
   transaction itself writes nothing — so concurrent writers, SMOs,
   rollbacks and GC rounds must all be invisible. Under the locking
   protocols the same scan S-locks its way across and the check still
   holds (2PL reads committed state; the fiber's slice can't change under
   its own S locks). *)
let scan_gtxn t view g ~fiber =
  let prefix = Printf.sprintf "g%02d-" fiber in
  let plen = String.length prefix in
  let expected =
    Hashtbl.fold (fun v rid acc -> (v, rid) :: acc) view [] |> List.sort compare
  in
  let seen = ref [] in
  for k = 0 to Sharddb.n t - 1 do
    let txn = Sharddb.local t g k and tree = Sharddb.btree t k in
    let cur = Btree.open_scan tree txn "" in
    let rec go () =
      match Btree.fetch_next tree txn cur () with
      | None -> ()
      | Some key ->
          let v = key.Key.value in
          if String.length v >= plen && String.sub v 0 plen = prefix then
            seen := (v, key.Key.rid) :: !seen;
          go ()
    in
    go ()
  done;
  let seen = List.sort compare !seen in
  if seen <> expected then
    failwith
      (Printf.sprintf
         "snapshot divergence (fiber %d): scan saw [%s] but the committed view at pin time \
          was [%s]"
         fiber
         (String.concat " " (List.map fst seen))
         (String.concat " " (List.map fst expected)))

let run_gtxn t cfg rng view (gt : gtxn_trace) g ~fiber =
  if cfg.scan_freq > 0 && Rng.int rng cfg.scan_freq = 0 then begin
    scan_gtxn t view g ~fiber;
    gt.gt_branches <- Sharddb.branches g
  end
  else
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
    (* [fiber_base] shifts the logical fiber ids (hence the private key
       slices and RNG streams): a recovery-phase workload spawned with
       [fiber_base = cfg.fibers] runs on a keyspace disjoint from the
       pre-crash phase, so both phases' oracles stay exact *)
    let fiber = fiber_base + f in
    let rng = Rng.create ((seed * 1_000_003) + (fiber * 7919) + 23) in
    ignore
      (Sched.spawn
         ~name:(Printf.sprintf "swl-%d" fiber)
         (fun () ->
           (* this fiber's committed view of its private values *)
           let view : (string, Ids.rid) Hashtbl.t = Hashtbl.create 64 in
           try
             for _ = 1 to cfg.txns_per_fiber do
               (* once the simulated power failure has tripped anywhere, the
                  machine is dead: stop promptly instead of running over a
                  volatile state another fiber's cut operation may have torn *)
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
                   gt_fate = None;
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
               (* the power failure cut some operation mid-flight (possibly
                  a rollback being performed in place in another fiber's
                  execution context), so this fiber tripped over torn
                  volatile state. The machine is dead; only the stable
                  state matters. Count this fiber as crash-killed. *)
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
