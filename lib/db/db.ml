module Disk = Aries_page.Disk
module Logmgr = Aries_wal.Logmgr
module Logset = Aries_wal.Logset
module Bufpool = Aries_buffer.Bufpool
module Cleaner = Aries_buffer.Cleaner
module Lockmgr = Aries_lock.Lockmgr
module Txnmgr = Aries_txn.Txnmgr
module Group_commit = Aries_txn.Group_commit
module Btree = Aries_btree.Btree
module Mvstore = Aries_btree.Mvstore
module Restart = Aries_recovery.Restart
module Checkpoint = Aries_recovery.Checkpoint
module Ckptd = Aries_recovery.Ckptd
module Vgcd = Aries_recovery.Vgcd
module Media = Aries_recovery.Media
module Sched = Aries_sched.Sched
module Stats = Aries_util.Stats
module Trace = Aries_trace.Trace

type commit_mode = Per_commit | Group of Group_commit.policy

type t = {
  disk : Disk.t;
  logs : Logset.t;
  wal : Logmgr.t;  (* the control stream: Logset.control logs *)
  pool : Bufpool.t;
  locks : Lockmgr.t;
  mgr : Txnmgr.t;
  benv : Btree.env;
  commit_mode : commit_mode;
  cleaner : Cleaner.cfg option;
  checkpoint_cfg : Ckptd.cfg option;
  vgc_cfg : Vgcd.cfg option;
  archive : Media.Archive.t;
  gc : Group_commit.t option;
  mutable closing : bool;
  mutable running_daemons : int;
  mutable restart_engine : Restart.engine option;
      (* the instant-restart engine of the most recent [restart ~instant:true] *)
}

let build ?pool_capacity ?config ?(commit_mode = Per_commit) ?cleaner ?checkpoint ?vgc ~archive
    disk logs =
  let pool = Bufpool.create ?capacity:pool_capacity disk logs in
  let locks = Lockmgr.create () in
  let mgr = Txnmgr.create logs locks in
  let benv = Btree.env ?config mgr pool in
  Recmgr.rm_install mgr pool;
  let gc =
    match commit_mode with
    | Per_commit -> None
    | Group policy -> Some (Group_commit.create ~policy logs)
  in
  Txnmgr.set_group_commit mgr gc;
  (* the archive models stable storage: it survives crashes and receives
     every segment any live stream reclaims, so media recovery and the
     committed-state oracle always see the full record history *)
  Media.Archive.attach_set archive logs;
  (* automatic media repair (PR 5): a page image that fails its CRC or does
     not decode is quarantined by the pool and rebuilt here from the log
     archive plus the page's own live stream — the full history from the
     format record. Returning [true] tells the pool to re-read the healed
     image. *)
  Bufpool.set_repairer pool (fun pid ->
      ignore (Media.auto_repair ~archive mgr pool pid);
      true);
  { disk; logs; wal = Logset.control logs; pool; locks; mgr; benv; commit_mode; cleaner;
    checkpoint_cfg = checkpoint; vgc_cfg = vgc; archive; gc; closing = false; running_daemons = 0;
    restart_engine = None }

let create ?(page_size = 4096) ?pool_capacity ?config ?commit_mode ?cleaner ?checkpoint ?vgc
    ?segment_size ?streams () =
  let disk = Disk.create ~page_size () in
  let logs = Logset.create ?segment_size ?streams () in
  build ?pool_capacity ?config ?commit_mode ?cleaner ?checkpoint ?vgc
    ~archive:(Media.Archive.create ()) disk logs

let crash ?config t =
  Logset.crash t.logs;
  Bufpool.crash t.pool;
  Txnmgr.clear t.mgr;
  (* die-on-crash: daemon state is volatile. The fresh environment gets a
     fresh (empty) commit queue under the same policy; committers that were
     suspended on the old queue were never acknowledged, and restart decides
     their fate purely from the stable log. The archive and the surviving
     segments are stable state and carry over. The version store is volatile
     too — the new environment's store starts empty ([restart] rebuilds the
     in-flight transactions' chains from the log). The pool keeps its
     frame count: a restart runs in the memory the system had. *)
  build ~pool_capacity:(Bufpool.capacity t.pool) ?config ~commit_mode:t.commit_mode
    ?cleaner:t.cleaner ?checkpoint:t.checkpoint_cfg ?vgc:t.vgc_cfg ~archive:t.archive t.disk t.logs

(* Classic restart drains the restart engine to completion before
   returning ([Restart.run]). With [~instant:true] only Analysis (plus lock
   reacquisition and the undo no lock fences) runs up front:
   the Db is open for new transactions when [restart] returns, redo
   happens per page on demand, and a "restartd" daemon drains the
   remaining work in the background (synchronously when no scheduler is
   running). The returned report is a snapshot — [Restart.report] on
   {!restart_engine} observes the counters growing as the drain
   proceeds. *)
let restart ?(instant = false) ?(drain = Restart.default_drain) t =
  if not instant then begin
    let report = Restart.run t.mgr t.pool in
    (* MVCC: redo and undo are done, so only in-doubt prepared
       transactions survive in the table — rebuild their pending version
       chains (losers were rolled back; committed history needs no chains). *)
    Btree.rebuild_versions t.benv;
    report
  end
  else begin
    let en = Restart.start ~archive:t.archive t.mgr t.pool in
    t.restart_engine <- Some en;
    (* MVCC: Analysis has rebuilt the transaction table, and the Db is about
       to serve snapshot readers while losers are still being undone — their
       uncommitted versions must be back in the store {e before} the first
       read, or a reader would trust the physical tree and see loser data.
       Undo then drains the rebuilt pending versions record by record. *)
    Btree.rebuild_versions t.benv;
    if Restart.finished en then ()
    else if Sched.in_fiber () then begin
      t.running_daemons <- t.running_daemons + 1;
      ignore
        (Sched.spawn_daemon ~name:"restartd"
           ~on_shutdown:(fun () -> ())
           (fun () ->
             Fun.protect
               ~finally:(fun () -> t.running_daemons <- t.running_daemons - 1)
               (fun () -> Restart.run_daemon ~cfg:drain en ~stop:(fun () -> t.closing))))
    end
    else Restart.drain en;
    Restart.report en
  end

let restart_engine t = t.restart_engine

let checkpoint t = ignore (Checkpoint.take t.mgr t.pool)

let safety_point t = Ckptd.safety_point t.mgr t.pool

let trim_log t = Ckptd.reclaim t.mgr t.pool

(* One MVCC version-collection round: reclaim below the oldest-active-
   snapshot horizon (the current log position when nothing is pinned).
   The Vgcd daemon calls this on its cadence; tests call it directly. *)
let vgc_once t =
  let store = Btree.env_mvstore t.benv in
  let horizon =
    Mvstore.horizon store
      ~current:
        { Mvstore.cs_epoch = Logset.current_epoch t.logs; cs_gsn = Logset.current_gsn t.logs }
  in
  let reclaimed = Mvstore.gc store ~horizon in
  if Trace.enabled () then
    Trace.emit
      (Trace.Vgc_round
         { reclaimed; epoch = horizon.Mvstore.cs_epoch; gsn = horizon.Mvstore.cs_gsn });
  reclaimed

let iter_log_history t ~from f =
  Logset.iteri t.logs (fun _ wal -> Media.Archive.iter_history t.archive wal ~from f)

let with_txn t f =
  let txn = Txnmgr.begin_txn t.mgr in
  match f txn with
  | v ->
      Txnmgr.commit t.mgr txn;
      v
  | exception (Txnmgr.Aborted _ as e) -> raise e
  | exception e ->
      (match txn.Txnmgr.state with
      | Txnmgr.Active | Txnmgr.Prepared -> Txnmgr.rollback t.mgr txn
      | Txnmgr.Committing | Txnmgr.Rolling_back -> ());
      raise e

(* Snapshot format v4: the WAL became a multi-stream set (records carry
   stream/epoch/gsn stamps and the image serializes every stream plus the
   global counters), so v3 snapshots no longer decode. *)
let snapshot_magic = "ARIESIM4"

let save t path =
  let disk_img = Disk.serialize t.disk in
  let logs_img = Logset.serialize t.logs in
  let arch_img = Media.Archive.serialize t.archive in
  let total =
    24 + String.length snapshot_magic + Bytes.length disk_img + Bytes.length logs_img
    + Bytes.length arch_img
  in
  let w = Aries_util.Bytebuf.W.create ~size:total () in
  Aries_util.Bytebuf.W.string w snapshot_magic;
  Aries_util.Bytebuf.W.bytes w disk_img;
  Aries_util.Bytebuf.W.bytes w logs_img;
  Aries_util.Bytebuf.W.bytes w arch_img;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (Aries_util.Bytebuf.W.contents w))

let load ?pool_capacity ?config ?commit_mode ?cleaner ?checkpoint ?vgc path =
  let ic = open_in_bin path in
  let b =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let disk, logs, archive =
    try
      let r = Aries_util.Bytebuf.R.of_string b in
      let magic = Aries_util.Bytebuf.R.string r in
      if not (String.equal magic snapshot_magic) then
        invalid_arg
          (Printf.sprintf "Db.load: %s is not an ariesim %s snapshot (magic %S)" path
             snapshot_magic magic);
      let disk = Disk.deserialize (Aries_util.Bytebuf.R.bytes r) in
      let logs = Logset.deserialize (Aries_util.Bytebuf.R.bytes r) in
      let archive = Media.Archive.deserialize (Aries_util.Bytebuf.R.bytes r) in
      Aries_util.Bytebuf.R.expect_end r;
      (disk, logs, archive)
    with Aries_util.Bytebuf.Corrupt msg ->
      (* a snapshot that does not even frame is a typed storage error, not a
         bare parser crash *)
      raise (Aries_util.Storage_error.of_corrupt (Printf.sprintf "snapshot %s: %s" path msg))
  in
  build ?pool_capacity ?config ?commit_mode ?cleaner ?checkpoint ?vgc ~archive disk logs

let leak_report t =
  let leaks = ref [] in
  let add fmt = Printf.ksprintf (fun s -> leaks := s :: !leaks) fmt in
  let fixed = Bufpool.fixed_count t.pool in
  if fixed > 0 then add "%d buffer frame(s) still fixed" fixed;
  let latched = Bufpool.latched_count t.pool in
  if latched > 0 then add "%d page latch hold(s) leaked" latched;
  let locks = Lockmgr.total_held t.locks in
  if locks > 0 then add "%d lock holder(s)/waiter(s) left in the lock table" locks;
  (match Txnmgr.active_txns t.mgr with
  | [] -> ()
  | txns ->
      add "%d transaction(s) still in the table: %s" (List.length txns)
        (String.concat "," (List.map (fun (x : Txnmgr.txn) -> string_of_int x.Txnmgr.txn_id) txns)));
  let violations = Aries_trace.Discipline.violations () in
  if violations > 0 then add "%d latch/lock discipline violation(s) detected" violations;
  (* a clean frame whose page_lsn moved changed without
     [Bufpool.mark_dirty]: an unlogged mutation *)
  let unlogged = Bufpool.unlogged_mutations t.pool in
  if unlogged > 0 then add "%d clean frame(s) changed without mark_dirty (unlogged mutation?)" unlogged;
  (* MVCC version-store audits. A pending (unstamped) version whose writer
     is no longer in the transaction table can never be stamped or dropped;
     a snapshot pin with no transaction behind it blocks the GC horizon
     forever; and the created/reclaimed counters must balance the store's
     live census (versions neither stamped-and-kept nor accounted reclaimed
     have leaked). *)
  let store = Btree.env_mvstore t.benv in
  let active_ids =
    List.map (fun (x : Txnmgr.txn) -> x.Txnmgr.txn_id) (Txnmgr.active_txns t.mgr)
  in
  (match
     List.filter (fun id -> not (List.mem id active_ids)) (Mvstore.pending_txns store)
   with
  | [] -> ()
  | stale ->
      add "%d finished transaction(s) still own pending MVCC versions: %s" (List.length stale)
        (String.concat "," (List.map string_of_int stale)));
  let snaps = Mvstore.live_snapshots store in
  if active_ids = [] && snaps > 0 then add "%d MVCC snapshot pin(s) leaked" snaps;
  let created = Mvstore.created_total store
  and reclaimed = Mvstore.reclaimed_total store in
  let live = Mvstore.live_versions store in
  if created - reclaimed <> live then
    add "MVCC version census mismatch: %d created - %d reclaimed but %d live in the store"
      created reclaimed live;
  List.rev !leaks

(* Spawn the configured daemons into the current scheduler run. Called from
   the run's main fiber before any user work, so the commit queue is
   attached (and stale state from a previous run discarded) before the
   first commit can enqueue. *)
let start_daemons t =
  t.running_daemons <- 0;  (* daemons of any previous run are dead *)
  if not t.closing then begin
    let spawn_counted name body =
      t.running_daemons <- t.running_daemons + 1;
      ignore
        (Sched.spawn_daemon ~name
           ~on_shutdown:(match t.gc with
             | Some gc when String.equal name "group-commit" ->
                 fun () -> Group_commit.nudge gc
             | _ -> fun () -> ())
           (fun () ->
             Fun.protect
               ~finally:(fun () -> t.running_daemons <- t.running_daemons - 1)
               body))
    in
    (match t.gc with
    | Some gc ->
        Group_commit.attach gc;
        spawn_counted "group-commit" (fun () ->
            Group_commit.run_daemon gc ~stop:(fun () -> t.closing))
    | None -> ());
    (match t.cleaner with
    | Some cfg ->
        spawn_counted "page-cleaner" (fun () ->
            Cleaner.run_daemon t.pool cfg ~stop:(fun () -> t.closing))
    | None -> ());
    (match t.checkpoint_cfg with
    | Some cfg ->
        spawn_counted "checkpointer" (fun () ->
            Ckptd.run_daemon t.mgr t.pool cfg ~stop:(fun () -> t.closing))
    | None -> ());
    match t.vgc_cfg with
    | Some cfg ->
        spawn_counted "version-gc" (fun () ->
            Vgcd.run_daemon cfg ~gc:(fun () -> vgc_once t) ~stop:(fun () -> t.closing))
    | None -> ()
  end

let daemons_running t = t.running_daemons

let close t =
  t.closing <- true;
  if Sched.in_fiber () then begin
    (* wake the commit daemon so it drains its pending batch without
       waiting out the accumulation window, then join both daemons *)
    (match t.gc with Some gc -> Group_commit.nudge gc | None -> ());
    while t.running_daemons > 0 do
      Sched.yield ()
    done
  end;
  (* clean shutdown: everything appended on every stream is made stable *)
  Logset.flush_all t.logs

let run ?policy ?max_steps ?yield_probability t main =
  Sched.run ?policy ?max_steps ?yield_probability (fun () ->
      start_daemons t;
      main ())

let run_exn ?policy t f =
  Sched.run_value ?policy (fun () ->
      start_daemons t;
      f ())
