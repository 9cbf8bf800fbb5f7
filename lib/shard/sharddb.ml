(* A sharded database: K independent [Db] environments under one
   cooperative scheduler, a key router, and presumed-abort two-phase
   commit driven entirely through the shards' own write-ahead logs.

   Each shard is a full single-node engine (its own disk, logset, buffer
   pool, lock table, transaction manager, B-tree). A global transaction
   accumulates one local branch per shard its keys route to; commit runs
   the classic presumed-abort protocol:

     phase 1   prepare every branch (Prepare record carrying the fence
               targets, the branch's commit-duration locks, and the
               [Twopc] meta naming gid + coordinator), forced through the
               epoch fence;
     decision  the coordinator (the shard of the first branch) appends
               Coord_commit to its control stream and forces it — the
               global commit is acknowledged only after this force
               (rule R10); abort writes nothing mandatory;
     phase 2   deliver the outcome to every branch (commit_prepared /
               rollback) with bounded retry + backoff; a branch on a
               downed shard parks as in-doubt — its commit-duration locks
               are restored by that shard's restart and held until the
               coordinator's decision is re-read.

   A downed shard never blocks healthy ones: every operation routed to it
   fails fast with [Shard_down], phase-2 delivery parks after
   [retry_limit] attempts, and restart resolution skips branches whose
   coordinator is down (they stay in-doubt, locks held — exactly the
   paper's recovery contract). Cross-shard deadlocks, invisible to any
   single lock manager, are broken by a detector that unions the
   per-shard waits-for slices ([Lockmgr.waiting]) into a global graph. *)

open Aries_util
module Db = Aries_db.Db
module Btree = Aries_btree.Btree
module Txnmgr = Aries_txn.Txnmgr
module Lockmgr = Aries_lock.Lockmgr
module Logmgr = Aries_wal.Logmgr
module Logset = Aries_wal.Logset
module Logrec = Aries_wal.Logrec
module Lsn = Aries_wal.Lsn
module Sched = Aries_sched.Sched
module Trace = Aries_trace.Trace
module Discipline = Aries_trace.Discipline
module Restart = Aries_recovery.Restart

let c_shard_retries = Stats.counter Stats.shard_retries
let c_shard_timeouts = Stats.counter Stats.shard_timeouts
let c_txn_indoubt_resolved = Stats.counter Stats.txn_indoubt_resolved
let c_deadlock_global_victims = Stats.counter Stats.deadlock_global_victims

exception Shard_down of int
(** The operation routed to a shard that is down (fail-stop switch or
    {!kill}). Never blocks: degrade-gracefully means fail fast. *)

exception Global_abort of int * string
(** The global transaction was aborted (by presumption) during commit —
    every reachable branch has been rolled back when this is raised. *)

type router = Hash

(* Phase-2 delivery to a down shard: attempts before parking, and the
   scheduler steps yielded between attempts. *)
let retry_limit = 3

let retry_backoff = 8

(* Scheduler steps between two rounds of the service daemon (global
   deadlock detection, then parked-delivery draining). *)
let detect_every = 16

type shard = {
  sx_id : int;
  sx_fault : Crashpoint.fault;  (** [Shard_down sx_id], built once *)
  mutable sx_db : Db.t;
  mutable sx_tree : Btree.t option;
  mutable sx_index : Ids.index_id;
  mutable sx_down : bool;
  mutable sx_epoch : int;  (* incarnation counter: bumped by kill/crash *)
  mutable sx_inflight : int;  (* operations currently inside [with_shard] *)
}

type gtxn = {
  gid : int;
  mutable parts : (int * Txnmgr.txn) list;  (* first-touch order; head = coordinator *)
  mutable finished : bool;
}

(* phase-2 deliveries that exhausted their retries against a down shard *)
type parked = {
  mutable pk_pending : (int * Ids.txn_id) list;
  pk_coord : int;
  pk_commit : bool;
}

type t = {
  shards : shard array;
  mutable incarnation : int;  (* gid namespace: bumped on every crash/kill *)
  mutable next_seq : int;
  gtxns : (int, gtxn) Hashtbl.t;
  owners : (int * Ids.txn_id, int) Hashtbl.t;  (* (shard, local txn) -> gid *)
  parked : (int, parked) Hashtbl.t;
}

let create ?(shards = 2) ?router:(_ : router option) ?page_size ?pool_capacity ?commit_mode
    ?segment_size ?streams () =
  if shards < 1 then invalid_arg "Sharddb.create: need at least one shard";
  let mk k =
    {
      sx_id = k;
      sx_fault = Crashpoint.Shard_down k;
      sx_db = Db.create ?page_size ?pool_capacity ?commit_mode ?segment_size ?streams ();
      sx_tree = None;
      sx_index = 0;
      sx_down = false;
      sx_epoch = 0;
      sx_inflight = 0;
    }
  in
  {
    shards = Array.init shards mk;
    incarnation = 0;
    next_seq = 0;
    gtxns = Hashtbl.create 64;
    owners = Hashtbl.create 64;
    parked = Hashtbl.create 8;
  }

let n t = Array.length t.shards

let db t k = t.shards.(k).sx_db

let up s = (not s.sx_down) && not (Crashpoint.active s.sx_fault)

let is_up t k = up t.shards.(k)

let tree s =
  match s.sx_tree with
  | Some x -> x
  | None -> invalid_arg "Sharddb: shard tree not open (setup not run / shard down)"

(* Every shard access funnels through here: fail fast when the shard is
   down, and count the operation so [kill] can quiesce before cutting. *)
let with_shard t k f =
  let s = t.shards.(k) in
  if not (up s) then raise (Shard_down k);
  s.sx_inflight <- s.sx_inflight + 1;
  Fun.protect ~finally:(fun () -> s.sx_inflight <- s.sx_inflight - 1) (fun () -> f s)

(* Is this branch handle still the live transaction object of the shard's
   current incarnation? After a kill + revive, the shard's table holds
   {e restored} objects (same ids, different identity) — or, for a branch
   that never logged, nothing at all; a stale handle must never be driven
   through prepare/commit against the new incarnation. *)
let live_branch s (tx : Txnmgr.txn) =
  match Txnmgr.find s.sx_db.Db.mgr tx.Txnmgr.txn_id with
  | Some tx' -> tx' == tx
  | None -> false

let setup t =
  Array.iter
    (fun s ->
      let mgr = s.sx_db.Db.mgr in
      let tx = Txnmgr.begin_txn mgr in
      let tr =
        Btree.create s.sx_db.Db.benv tx
          ~name:(Printf.sprintf "shard%d" s.sx_id)
          ~unique:true
      in
      Txnmgr.commit mgr tx;
      s.sx_tree <- Some tr;
      s.sx_index <- Btree.index_id tr)
    t.shards

let shard_of t value = Hashtbl.hash value mod Array.length t.shards

(* ------------------------------------------------------------------ *)
(* Global transactions *)

let fresh_gid t =
  t.next_seq <- t.next_seq + 1;
  (t.incarnation * 1_000_000) + t.next_seq

let begin_gtxn t =
  let g = { gid = fresh_gid t; parts = []; finished = false } in
  Hashtbl.replace t.gtxns g.gid g;
  g

let gid g = g.gid

let participants g = List.map fst g.parts

let branches g = List.map (fun (k, tx) -> (k, tx.Txnmgr.txn_id)) g.parts

let local t g k =
  if g.finished then invalid_arg "Sharddb: global transaction already finished";
  match List.assoc_opt k g.parts with
  | Some tx ->
      (* the shard may have been killed and revived since this branch was
         begun: the handle is then an orphan of the dead incarnation — the
         global transaction cannot continue there *)
      if not (up t.shards.(k)) || not (live_branch t.shards.(k) tx) then raise (Shard_down k);
      tx
  | None ->
      with_shard t k (fun s ->
          let tx = Txnmgr.begin_txn s.sx_db.Db.mgr in
          g.parts <- g.parts @ [ (k, tx) ];
          Hashtbl.replace t.owners (k, tx.Txnmgr.txn_id) g.gid;
          tx)

let insert t g ~value ~rid =
  let k = shard_of t value in
  let tx = local t g k in
  with_shard t k (fun s -> Btree.insert (tree s) tx ~value ~rid)

let delete t g ~value ~rid =
  let k = shard_of t value in
  let tx = local t g k in
  with_shard t k (fun s -> Btree.delete (tree s) tx ~value ~rid)

let fetch t g ?comparison ?isolation value =
  let k = shard_of t value in
  let tx = local t g k in
  with_shard t k (fun s -> Btree.fetch (tree s) tx ?comparison ?isolation value)

let forget t g =
  g.finished <- true;
  List.iter (fun (k, tx) -> Hashtbl.remove t.owners (k, tx.Txnmgr.txn_id)) g.parts;
  Hashtbl.remove t.gtxns g.gid

(* ------------------------------------------------------------------ *)
(* Presumed-abort 2PC *)

let coord_record t ~coord ~kind ~body =
  let s = t.shards.(coord) in
  Logset.append s.sx_db.Db.logs ~stream:0
    (Logrec.make ~body ~txn:Ids.nil_txn ~prev_lsn:Lsn.nil kind)

let abort t g =
  if not g.finished then begin
    List.iter
      (fun (k, tx) ->
        let s = t.shards.(k) in
        (* physical equality: a kill + revive may have reissued this txn id
           to an unrelated transaction of the new incarnation *)
        if up s && live_branch s tx then
          match tx.Txnmgr.state with
          | Txnmgr.Active | Txnmgr.Prepared ->
              Txnmgr.rollback s.sx_db.Db.mgr ~reason:"2pc abort" tx
          | Txnmgr.Committing | Txnmgr.Rolling_back -> ())
      g.parts;
    (* optional hint, never forced: presumed abort needs no record — a
       branch on a down shard resolves to abort from the record's absence
       just as well, this only spares live resolution the retry wait *)
    (match g.parts with
    | (c, _) :: _ :: _ when up t.shards.(c) ->
        ignore
          (coord_record t ~coord:c ~kind:Logrec.Coord_abort
             ~body:(Twopc.encode_decision ~gid:g.gid ~parts:(participants g)))
    | _ -> ());
    if Trace.enabled () then Trace.emit (Trace.Twopc_ack { gid = g.gid; committed = false });
    forget t g
  end

let prepare_branch t ~gid ~coord k tx =
  with_shard t k (fun s ->
      if not (live_branch s tx) then raise (Shard_down k);
      Txnmgr.prepare ~meta:(Twopc.encode_prepare_meta ~gid ~coord) s.sx_db.Db.mgr tx;
      if Trace.enabled () then
        Trace.emit
          (Trace.Twopc_prepared
             {
               gid;
               shard = k;
               txn = tx.Txnmgr.txn_id;
               targets =
                 List.map
                   (fun (si, l) ->
                     let m = Logset.stream s.sx_db.Db.logs si in
                     (Logmgr.id m, Logmgr.record_end m l))
                   (Txnmgr.touched tx);
             }))

let decide_commit t ~gid ~coord ~parts =
  with_shard t coord (fun s ->
      let lsn =
        coord_record t ~coord ~kind:Logrec.Coord_commit
          ~body:(Twopc.encode_decision ~gid ~parts)
      in
      let wal = Logset.control s.sx_db.Db.logs in
      (* R10's acknowledgement point: the decision force. The early-decide
         meta-fault skips it and acknowledges anyway — the discipline
         checker must flag the decide/ack. *)
      if not (Crashpoint.active Crashpoint.Twopc_early_decide) then
        Logmgr.flush_to wal lsn;
      if Trace.enabled () then begin
        Trace.emit
          (Trace.Twopc_decide
             { gid; commit = true; log = Logmgr.id wal; lsn_end = Logmgr.record_end wal lsn });
        Trace.emit (Trace.Twopc_ack { gid; committed = true })
      end)

let backoff steps =
  if steps > 0 && Sched.in_fiber () then
    for _ = 1 to steps do
      Sched.yield ()
    done

(* Deliver the outcome to one branch, re-finding the local transaction by
   id: the shard may have crashed and restarted since prepare, in which
   case the branch is the restored in-doubt transaction — or is already
   gone because restart resolution read the decision itself. *)
let deliver_one t ~commit k txn_id =
  let rec go attempt =
    let s = t.shards.(k) in
    if up s then begin
      (match Txnmgr.find s.sx_db.Db.mgr txn_id with
      | Some tx when tx.Txnmgr.state = Txnmgr.Prepared ->
          with_shard t k (fun s ->
              if commit then Txnmgr.commit_prepared s.sx_db.Db.mgr tx
              else Txnmgr.rollback s.sx_db.Db.mgr ~reason:"2pc abort" tx)
      | Some _ | None -> ());
      true
    end
    else if attempt >= retry_limit then false
    else begin
      Stats.incr c_shard_retries;
      backoff retry_backoff;
      go (attempt + 1)
    end
  in
  go 0

let coord_end t ~gid ~coord =
  if up t.shards.(coord) then
    ignore (coord_record t ~coord ~kind:Logrec.Coord_end ~body:(Twopc.encode_end ~gid))

let commit t g =
  if g.finished then invalid_arg "Sharddb.commit: global transaction already finished";
  match g.parts with
  | [] -> forget t g
  | [ (k, tx) ] ->
      (* single-shard fast path: plain local commit, no 2PC records *)
      (try
         with_shard t k (fun s ->
             if not (live_branch s tx) then raise (Shard_down k);
             Txnmgr.commit s.sx_db.Db.mgr tx)
       with
      | (Crashpoint.Crash _ | Discipline.Violation _) as e ->
          (* a power failure mid-commit must surface as the crash, never as
             an abort: the commit record may already be durable, and a
             client told "aborted" while the stable state says committed is
             exactly the atomicity lie the oracle checks for *)
          raise e
      | e ->
          abort t g;
          raise (Global_abort (g.gid, Printexc.to_string e)));
      forget t g
  | parts -> (
      let coord = fst (List.hd parts) in
      (try
         List.iter (fun (k, tx) -> prepare_branch t ~gid:g.gid ~coord k tx) parts;
         decide_commit t ~gid:g.gid ~coord ~parts:(participants g)
       with
      | (Crashpoint.Crash _ | Discipline.Violation _) as e -> raise e
      | e ->
          (* no durable decision: abort by presumption everywhere we can
             reach; unreachable branches resolve the same way on restart *)
          abort t g;
          raise (Global_abort (g.gid, Printexc.to_string e)));
      let undelivered =
        List.filter
          (fun (k, tx) -> not (deliver_one t ~commit:true k tx.Txnmgr.txn_id))
          parts
      in
      match undelivered with
      | [] ->
          coord_end t ~gid:g.gid ~coord;
          forget t g
      | _ ->
          Stats.incr c_shard_timeouts;
          Hashtbl.replace t.parked g.gid
            {
              pk_pending = List.map (fun (k, tx) -> (k, tx.Txnmgr.txn_id)) undelivered;
              pk_coord = coord;
              pk_commit = true;
            };
          if Trace.enabled () then
            List.iter
              (fun (k, _) ->
                Trace.emit (Trace.Shard_event { shard = k; what = Trace.Parked { gid = g.gid } }))
              undelivered;
          forget t g)

(* Retry parked phase-2 deliveries whose shard has come back. *)
let drain_parked t =
  let closed = ref [] in
  Hashtbl.iter
    (fun gid pk ->
      pk.pk_pending <-
        List.filter
          (fun (k, id) ->
            if up t.shards.(k) then begin
              ignore (deliver_one t ~commit:pk.pk_commit k id);
              false
            end
            else true)
          pk.pk_pending;
      if pk.pk_pending = [] then closed := (gid, pk.pk_coord) :: !closed)
    t.parked;
  List.iter
    (fun (gid, coord) ->
      Hashtbl.remove t.parked gid;
      coord_end t ~gid ~coord)
    !closed

(* ------------------------------------------------------------------ *)
(* In-doubt resolution (restart) *)

(* Walk the restored transaction's control-stream chain back to its
   Prepare record and decode the 2PC meta. [None]: not a 2PC branch. *)
let prepare_meta_of mgr (tx : Txnmgr.txn) =
  let cs = Txnmgr.txn_stream mgr tx.Txnmgr.txn_id in
  let m = Logset.stream (Txnmgr.logs mgr) cs in
  let rec walk lsn =
    if Lsn.is_nil lsn then None
    else
      let r = Logmgr.read m lsn in
      if r.Logrec.kind = Logrec.Prepare then
        let _, _, meta = Txnmgr.decode_prepare_body r.Logrec.body in
        if Bytes.length meta = 0 then None else Some (Twopc.decode_prepare_meta meta)
      else walk r.Logrec.prev_lsn
  in
  walk tx.Txnmgr.lasts.(cs)

(* Lazy per-coordinator decision tables: one log-history scan per
   coordinator per resolution pass, shared across all its gids. *)
let decision_lookup t =
  let tables = Hashtbl.create 4 in
  fun coord gid ->
    let tbl =
      match Hashtbl.find_opt tables coord with
      | Some tbl -> tbl
      | None ->
          let tbl = Twopc.decisions t.shards.(coord).sx_db in
          Hashtbl.replace tables coord tbl;
          tbl
    in
    Hashtbl.find_opt tbl gid

let resolve_indoubts t =
  let decision = decision_lookup t in
  (* a surviving-but-never-acknowledged Coord_commit (possible under the
     per-stream flush shuffle) is still THE decision — before committing on
     its strength, re-announce it so rule R10 sees a durable decide *)
  let redecided = Hashtbl.create 8 in
  let resolved = ref 0 in
  Array.iter
    (fun s ->
      if up s then
        let mgr = s.sx_db.Db.mgr in
        List.iter
          (fun (tx : Txnmgr.txn) ->
            if tx.Txnmgr.state = Txnmgr.Prepared then
              match prepare_meta_of mgr tx with
              | None -> ()
              | Some (gid, coord) ->
                  if up t.shards.(coord) then begin
                    let committed =
                      match decision coord gid with
                      | Some d when d.Twopc.dc_commit ->
                          if not (Hashtbl.mem redecided gid) then begin
                            Hashtbl.replace redecided gid ();
                            if Trace.enabled () then
                              Trace.emit
                                (Trace.Twopc_decide
                                   {
                                     gid;
                                     commit = true;
                                     log =
                                       Logmgr.id (Logset.control t.shards.(coord).sx_db.Db.logs);
                                     lsn_end = d.Twopc.dc_end;
                                   })
                          end;
                          true
                      | Some _ | None -> false
                    in
                    if committed then Txnmgr.commit_prepared mgr tx
                    else Txnmgr.rollback mgr ~reason:"presumed abort" tx;
                    incr resolved;
                    Stats.incr c_txn_indoubt_resolved;
                    if Trace.enabled () then
                      Trace.emit
                        (Trace.Twopc_resolve
                           { gid; shard = s.sx_id; txn = tx.Txnmgr.txn_id; committed })
                  end
                  else if Trace.enabled () then
                    Trace.emit
                      (Trace.Shard_event
                         { shard = s.sx_id; what = Trace.Indoubt_waiting { gid; coord } }))
          (Txnmgr.active_txns mgr))
    t.shards;
  drain_parked t;
  !resolved

(* ------------------------------------------------------------------ *)
(* Crash / restart / fail-stop *)

let crash t =
  Array.iter
    (fun s ->
      s.sx_db <- Db.crash s.sx_db;
      s.sx_tree <- None;
      s.sx_epoch <- s.sx_epoch + 1;
      s.sx_down <- false)
    t.shards;
  t.incarnation <- t.incarnation + 1;
  t.next_seq <- 0;
  Hashtbl.reset t.gtxns;
  Hashtbl.reset t.owners;
  Hashtbl.reset t.parked

let reopen_tree s =
  s.sx_tree <- Some (Btree.open_existing s.sx_db.Db.benv s.sx_index)

let restart ?instant t =
  let reports =
    Array.map
      (fun s ->
        let rep = Db.restart ?instant s.sx_db in
        reopen_tree s;
        rep)
      t.shards
  in
  let resolved = resolve_indoubts t in
  (reports, resolved)

(* Targeted fail-stop: quiesce (break lock waiters so in-flight fibers
   unwind with [Shard_down]/[Aborted]), then cut — the shard's volatile
   state is discarded exactly like a power failure, while every other
   shard keeps running. Requires daemon-less shards (Per_commit, no
   cleaner/checkpointer): a daemon of the killed incarnation would keep
   running against the dead handle. *)
let kill t k =
  let s = t.shards.(k) in
  if not s.sx_down then begin
    s.sx_down <- true;
    if Trace.enabled () then Trace.emit (Trace.Shard_event { shard = k; what = Trace.Killed });
    let guard = ref 0 in
    while s.sx_inflight > 0 && !guard < 100_000 do
      incr guard;
      List.iter
        (fun (txn, _) -> ignore (Lockmgr.abort_waiter s.sx_db.Db.locks ~txn))
        (Lockmgr.waiting s.sx_db.Db.locks);
      if Sched.in_fiber () then Sched.yield ()
    done;
    assert (s.sx_inflight = 0);
    s.sx_db <- Db.crash s.sx_db;
    s.sx_tree <- None;
    s.sx_epoch <- s.sx_epoch + 1;
    t.incarnation <- t.incarnation + 1
  end

let revive ?instant t k =
  let s = t.shards.(k) in
  if not s.sx_down then None
  else begin
    let rep = Db.restart ?instant s.sx_db in
    reopen_tree s;
    s.sx_down <- false;
    if Trace.enabled () then Trace.emit (Trace.Shard_event { shard = k; what = Trace.Revived });
    (* this shard's in-doubts read their coordinators; other shards'
       in-doubts parked on THIS coordinator resolve now too *)
    ignore (resolve_indoubts t);
    Some rep
  end

(* ------------------------------------------------------------------ *)
(* Global deadlock detection *)

(* Node key: gids are positive; a local (non-2PC) waiter gets a negative
   per-shard synthetic id so it can still appear in (and break) a cycle. *)
let node t k txn =
  match Hashtbl.find_opt t.owners (k, txn) with
  | Some g -> g
  | None -> -(((k + 1) * 1_000_000) + txn)

(* One detection pass over the union of the up shards' waits-for slices:
   abort the youngest waiter of every cycle found. *)
let detect_once t =
  let edges = Hashtbl.create 16 in
  let waiters = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      if up s then
        List.iter
          (fun (txn, blockers) ->
            let v = node t s.sx_id txn in
            Hashtbl.replace waiters v (s.sx_id, txn);
            let cur = match Hashtbl.find_opt edges v with Some l -> l | None -> [] in
            Hashtbl.replace edges v (List.map (node t s.sx_id) blockers @ cur))
          (Lockmgr.waiting s.sx_db.Db.locks))
    t.shards;
  let color = Hashtbl.create 16 in
  let victims = ref [] in
  let rec dfs stack v =
    match Hashtbl.find_opt color v with
    | Some `Done -> ()
    | Some `Active ->
        (* back edge: the cycle is [v] plus the stack prefix above it;
           victim = the youngest (largest-gid) waiter in the cycle *)
        let rec upto = function
          | [] -> []
          | x :: rest -> if x = v then [] else x :: upto rest
        in
        let cyc = v :: upto stack in
        let cands = List.filter (fun m -> Hashtbl.mem waiters m) cyc in
        (match List.sort (fun a b -> compare b a) cands with
        | victim :: _ when not (List.mem victim !victims) -> victims := victim :: !victims
        | _ -> ())
    | None ->
        Hashtbl.replace color v `Active;
        (match Hashtbl.find_opt edges v with
        | Some succs -> List.iter (fun m -> dfs (v :: stack) m) succs
        | None -> ());
        Hashtbl.replace color v `Done
  in
  Hashtbl.iter (fun v _ -> dfs [] v) edges;
  List.iter
    (fun v ->
      match Hashtbl.find_opt waiters v with
      | Some (k, txn) ->
          if Lockmgr.abort_waiter t.shards.(k).sx_db.Db.locks ~txn then begin
            Stats.incr c_deadlock_global_victims;
            if Trace.enabled () then Trace.emit (Trace.Global_victim { gid = v; shard = k; txn })
          end
      | None -> ())
    !victims

let service t () =
  while not (Sched.shutting_down ()) do
    for _ = 1 to detect_every do
      if not (Sched.shutting_down ()) then Sched.yield ()
    done;
    if not (Sched.shutting_down ()) then begin
      detect_once t;
      drain_parked t
    end
  done

let start_services t =
  Array.iter (fun s -> if up s then Db.start_daemons s.sx_db) t.shards;
  ignore (Sched.spawn_daemon ~name:"shard-globald" (service t))

let run ?policy ?max_steps ?yield_probability t main =
  Sched.run ?policy ?max_steps ?yield_probability (fun () ->
      start_services t;
      main ())

(* ------------------------------------------------------------------ *)
(* Quiescence audit *)

let leak_report t =
  let out = ref [] in
  Array.iter
    (fun s ->
      if up s then
        List.iter
          (fun line -> out := Printf.sprintf "shard %d: %s" s.sx_id line :: !out)
          (Db.leak_report s.sx_db))
    t.shards;
  (* an in-doubt branch still holding locks while its coordinator is up is
     a missed resolution: either a durable decision exists (commit it) or
     none does (presumed abort) — both were decidable *)
  let decision = decision_lookup t in
  Array.iter
    (fun s ->
      if up s then
        List.iter
          (fun (tx : Txnmgr.txn) ->
            if tx.Txnmgr.state = Txnmgr.Prepared then
              match prepare_meta_of s.sx_db.Db.mgr tx with
              | Some (gid, coord) when up t.shards.(coord) ->
                  let verdict =
                    match decision coord gid with
                    | Some d when d.Twopc.dc_commit -> "durable commit decision"
                    | Some _ | None -> "decidable presumed abort"
                  in
                  out :=
                    Printf.sprintf
                      "shard %d: in-doubt txn %d of G%d still holds %d lock(s) despite %s"
                      s.sx_id tx.Txnmgr.txn_id gid
                      (Lockmgr.held_count s.sx_db.Db.locks ~txn:tx.Txnmgr.txn_id)
                      verdict
                    :: !out
              | Some _ | None -> ())
          (Txnmgr.active_txns s.sx_db.Db.mgr))
    t.shards;
  List.rev !out

let btree t k = tree t.shards.(k)

let close t = Array.iter (fun s -> if up s then Db.close s.sx_db) t.shards
