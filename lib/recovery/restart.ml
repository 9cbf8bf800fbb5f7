open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logmgr = Aries_wal.Logmgr
module Logset = Aries_wal.Logset
module Lockmgr = Aries_lock.Lockmgr
module Txnmgr = Aries_txn.Txnmgr
module Lockcodec = Aries_txn.Lockcodec
module Bufpool = Aries_buffer.Bufpool
module Disk = Aries_page.Disk
module Trace = Aries_trace.Trace

let c_txn_indoubt_restored = Stats.counter Stats.txn_indoubt_restored
let c_instant_ondemand_redos = Stats.counter Stats.instant_ondemand_redos
let c_instant_preemptions = Stats.counter Stats.instant_preemptions
let c_instant_locks_reacquired = Stats.counter Stats.instant_locks_reacquired
let c_instant_locks_skipped = Stats.counter Stats.instant_locks_skipped
let c_instant_drain_rounds = Stats.counter Stats.instant_drain_rounds

type report = {
  rp_redo_lsn : Lsn.t;
  rp_records_analyzed : int;
  rp_records_redo_scanned : int;
  rp_redos_applied : int;
  rp_redos_skipped : int;
  rp_redo_traversals : int;
  rp_undo_records : int;
  rp_losers : Ids.txn_id list;
  rp_indoubt : Ids.txn_id list;
  rp_locks_reacquired : int;
}

type txn_track = {
  mutable tk_state : Txnmgr.state;
  tk_firsts : Lsn.t array;  (** per stream, oldest LSN the txn wrote (bounds truncation) *)
  tk_lasts : Lsn.t array;
  tk_undo_nxts : Lsn.t array;
  mutable tk_prepare_body : bytes option;
  mutable tk_ended : bool;  (** saw a *valid* Commit or End: not a loser *)
  mutable tk_locks : (Lockmgr.name * Lockmgr.mode) list;
      (** locks derived from the scanned records (instant restart only) *)
  mutable tk_ck_locks : bytes option;
      (** checkpointed lock list: covers updates before the scan window *)
}

let fresh_track nn =
  {
    tk_state = Txnmgr.Active;
    tk_firsts = Array.make nn Lsn.nil;
    tk_lasts = Array.make nn Lsn.nil;
    tk_undo_nxts = Array.make nn Lsn.nil;
    tk_prepare_body = None;
    tk_ended = false;
    tk_locks = [];
    tk_ck_locks = None;
  }

(* ---------- Analysis pass ---------- *)

type analysis = {
  an_start : Lsn.t array;
      (** per stream, where the merged scan began (the anchoring
          checkpoint's ck_scan; all-nil when there is no checkpoint) *)
  an_redo_lsn : Lsn.t;  (** control-stream redo start (for the report) *)
  an_dpt : (Ids.page_id, Lsn.t) Hashtbl.t;
  an_txns : (Ids.txn_id, txn_track) Hashtbl.t;
  an_records : int;
  an_next_txn : Ids.txn_id;
      (** checkpointed txn-id high-water mark: covers transactions that
          ended before the scan window and so appear nowhere in [an_txns] *)
  an_chains : (Ids.page_id, Lsn.t list) Hashtbl.t;
      (** the anchoring checkpoint's per-page log chains: the record LSNs
          a dirty page accumulated before the scan window *)
}

let index_record ix (r : Logrec.t) =
  if Media.redoable r && r.Logrec.page <> Ids.nil_page then
    match Hashtbl.find_opt ix r.Logrec.page with
    | Some l -> l := r.Logrec.lsn :: !l
    | None -> Hashtbl.replace ix r.Logrec.page (ref [ r.Logrec.lsn ])

(* Scan every stream from the anchoring checkpoint's per-stream horizons,
   merged in (epoch, gsn) order — the only pass that needs the cross-stream
   merge (redo is per page, and a page's records live on one stream).

   Cross-stream survivorship is where multi-stream analysis earns its keep:
   a stream's survivors are always a hole-free prefix, but *between*
   streams a shuffled crash can keep a Commit / End_txn / Prepare record
   while dropping records it logically follows on other streams. Each of
   those records therefore carries its fence-target vector, and analysis
   believes it only if every named record actually survived
   ({!Logset.targets_valid}); otherwise the transaction stays a loser. *)
let analysis ?locks_of ~index logs =
  let nn = Logset.n logs in
  let vec v = if Array.length v = nn then Array.copy v else Array.make nn Lsn.nil in
  let anchor = Checkpoint.last_complete (Logset.control logs) in
  let starts =
    match anchor with
    | Some (_begin_lsn, _end_lsn, body) -> vec body.Checkpoint.ck_scan
    | None -> Array.make nn Lsn.nil
  in
  (* the End_ckpt LSN of the checkpoint the master record anchors: only
     {e that} checkpoint is known to have flushed every stream before
     publishing, which is what makes its Committing entries durable *)
  let anchor_end = match anchor with Some (_b, e, _) -> e | None -> Lsn.nil in
  let dpt : (Ids.page_id, Lsn.t) Hashtbl.t = Hashtbl.create 64 in
  let chains : (Ids.page_id, Lsn.t list) Hashtbl.t = Hashtbl.create 32 in
  let txns : (Ids.txn_id, txn_track) Hashtbl.t = Hashtbl.create 32 in
  let records = ref 0 in
  let next_txn = ref 0 in
  let track id =
    match Hashtbl.find_opt txns id with
    | Some tk -> tk
    | None ->
        let tk = fresh_track nn in
        Hashtbl.replace txns id tk;
        tk
  in
  Logset.iter_merged logs ~starts (fun r ->
      incr records;
      let lsn = r.Logrec.lsn in
      let s = r.Logrec.stream in
      (if r.Logrec.txn <> Ids.nil_txn then begin
         let tk = track r.Logrec.txn in
         if Lsn.is_nil tk.tk_firsts.(s) then tk.tk_firsts.(s) <- lsn;
         tk.tk_lasts.(s) <- lsn;
         (* instant restart: derive the lock names this record's change is
            protected by, so a loser's locks can be reacquired before the
            Db reopens. Over-approximation is safe (a lock the loser did
            not hold merely delays a new transaction until undo drops it);
            under-approximation is the hazard. *)
         (match locks_of with
         | Some f when r.Logrec.rm_id <> 0 -> (
             match r.Logrec.kind with
             | Logrec.Update | Logrec.Clr -> tk.tk_locks <- f r @ tk.tk_locks
             | _ -> ())
         | Some _ | None -> ());
         (* jump-target clamp: mirror the live driver's rule that a fence
            jump never rewinds a cursor upward — except that an analysis
            cursor still [nil] may mean "unknown yet" (the txn's cursor
            state predates the scan window), where the jump must land *)
         let clamp cur l = if Lsn.is_nil cur then l else Lsn.min cur l in
         match r.Logrec.kind with
         | Logrec.Update -> if r.Logrec.undoable then tk.tk_undo_nxts.(s) <- lsn
         | Logrec.Clr ->
             if Txnmgr.nta_anchor r then begin
               (* multi-stream NTA fence: honor the anchor's jump vector
                  only if the whole bracket survived on every moved
                  stream; otherwise leave the cursors where the scan put
                  them — on the bracket's own records — so the surviving
                  half of the SMO is physically rolled back *)
               (match Txnmgr.nta_jumps logs r with
               | Some jumps ->
                   (* clamped, like live rollback ([Txnmgr.undo_one]): never rewind a
                      cursor that already advanced past the target *)
                   List.iter
                     (fun (js, jl) -> tk.tk_undo_nxts.(js) <- clamp tk.tk_undo_nxts.(js) jl)
                     jumps
               | None -> ());
               (* keep the anchor on the undo path (mirrors the live
                  cursor state after nta_end): a later record's undo may
                  re-expose a bracket record, and only the anchor's own
                  reverse-gsn turn re-fences it *)
               tk.tk_undo_nxts.(s) <- lsn
             end
             else begin
               (* the cursor jump lands on the *compensated* record's
                  stream, which a cross-stream logical undo makes distinct
                  from the CLR's own; the CLR's own cursor then falls back
                  to the CLR itself so that stream's walk stays sound
                  (undo steps through non-undoable records harmlessly) *)
               tk.tk_undo_nxts.(r.Logrec.undo_nxt_stream) <-
                 clamp tk.tk_undo_nxts.(r.Logrec.undo_nxt_stream) r.Logrec.undo_nxt_lsn;
               if r.Logrec.undo_nxt_stream <> s then tk.tk_undo_nxts.(s) <- lsn
             end
         | Logrec.Prepare ->
             (* believe the prepare only if its fence vector survived: an
                in-doubt txn with updates lost on another stream must be
                rolled back, not parked awaiting a coordinator that would
                commit a hole. A damaged body or a fence naming a reused
                offset raises one of the three exceptions caught here;
                anything else (a crash point, a discipline violation)
                propagates. *)
             let valid =
               try
                 let targets, _, _ = Txnmgr.decode_prepare_body r.Logrec.body in
                 Logset.targets_valid logs r targets
               with Bytebuf.Corrupt _ | Storage_error.Error _ | Invalid_argument _ -> false
             in
             if valid then begin
               tk.tk_state <- Txnmgr.Prepared;
               tk.tk_prepare_body <- Some r.Logrec.body
             end
         | Logrec.Rollback -> tk.tk_state <- Txnmgr.Rolling_back
         | Logrec.Commit -> if Logset.commit_valid logs r then tk.tk_ended <- true
         | Logrec.End_txn ->
             (* across streams, "the End survived" does not imply "every
                CLR before it survived" — validate the End's own vector;
                an invalid End turns the rollback back into a loser (the
                per-stream WAL rule makes re-undo sound: any page image
                that reached disk has its own stream's records stable) *)
             let valid =
               try Logset.targets_valid logs r (Logset.decode_commit_targets r.Logrec.body)
               with Bytebuf.Corrupt _ | Storage_error.Error _ | Invalid_argument _ -> false
             in
             if valid then tk.tk_ended <- true
         | Logrec.Begin_ckpt | Logrec.End_ckpt | Logrec.Coord_commit | Logrec.Coord_abort
         | Logrec.Coord_end ->
             ()
       end);
      (match r.Logrec.kind with
      | Logrec.End_ckpt ->
          (* merge checkpointed state: scan-derived knowledge wins *)
          let body = Checkpoint.decode_body r.Logrec.body in
          if body.Checkpoint.ck_next_txn > !next_txn then
            next_txn := body.Checkpoint.ck_next_txn;
          List.iter
            (fun (ct : Checkpoint.ck_txn) ->
              match Hashtbl.find_opt txns ct.Checkpoint.ct_id with
              | None ->
                  let tk = fresh_track nn in
                  tk.tk_state <- ct.Checkpoint.ct_state;
                  Array.blit (vec ct.Checkpoint.ct_firsts) 0 tk.tk_firsts 0 nn;
                  Array.blit (vec ct.Checkpoint.ct_lasts) 0 tk.tk_lasts 0 nn;
                  Array.blit (vec ct.Checkpoint.ct_undo_nxts) 0 tk.tk_undo_nxts 0 nn;
                  tk.tk_ck_locks <- Some ct.Checkpoint.ct_locks;
                  (* a checkpointed Committing txn had appended its Commit
                     record before End_ckpt was written; Checkpoint.take
                     forces every stream before publishing the master, so
                     when *the anchoring* checkpoint says Committing the
                     Commit and its whole fence vector are stable —
                     committed, even though the scan never saw the Commit
                     record. A later End_ckpt that survived without its
                     master (crash mid-take, between the control stream's
                     flush and the others') carries no such guarantee: its
                     Committing txns count only if the scan finds their
                     Commit record and validates its fence. *)
                  if
                    ct.Checkpoint.ct_state = Txnmgr.Committing
                    && Lsn.compare lsn anchor_end = 0
                  then tk.tk_ended <- true;
                  Hashtbl.replace txns ct.Checkpoint.ct_id tk
              | Some tk ->
                  (* scan-derived knowledge wins for everything except the
                     first LSNs: the checkpoint can know about records from
                     before the analysis window *)
                  Array.iteri
                    (fun i f ->
                      if
                        (not (Lsn.is_nil f))
                        && (Lsn.is_nil tk.tk_firsts.(i) || Lsn.( < ) f tk.tk_firsts.(i))
                      then tk.tk_firsts.(i) <- f)
                    (vec ct.Checkpoint.ct_firsts);
                  (* the checkpointed lock list covers updates from before
                     the scan window; the latest checkpoint's is the most
                     complete *)
                  tk.tk_ck_locks <- Some ct.Checkpoint.ct_locks;
                  if
                    ct.Checkpoint.ct_state = Txnmgr.Committing
                    && Lsn.compare lsn anchor_end = 0
                  then tk.tk_ended <- true)
            body.Checkpoint.ck_txns;
          List.iter
            (fun (pid, rec_lsn) ->
              (* the checkpointed recLSN can predate anything the scan saw;
                 keep the minimum so redo starts early enough *)
              match Hashtbl.find_opt dpt pid with
              | Some seen -> Hashtbl.replace dpt pid (Lsn.min seen rec_lsn)
              | None -> Hashtbl.replace dpt pid rec_lsn)
            body.Checkpoint.ck_dpt;
          (* chains only from the anchoring checkpoint, for the reason its
             Committing entries alone count: a later End_ckpt that survived
             without its master can name records the crash lost *)
          if Lsn.compare lsn anchor_end = 0 then
            List.iter
              (fun (pid, chain) -> Hashtbl.replace chains pid chain)
              body.Checkpoint.ck_chains
      | Logrec.Update | Logrec.Clr ->
          if r.Logrec.page <> Ids.nil_page && not (Hashtbl.mem dpt r.Logrec.page) then
            Hashtbl.replace dpt r.Logrec.page lsn;
          (* index the scan's redoable records by page, so per-page redo
             replays exactly its own history instead of rescanning the
             whole log once per pending page *)
          index_record index r
      | Logrec.Commit | Logrec.Prepare | Logrec.Rollback | Logrec.End_txn | Logrec.Begin_ckpt
      | Logrec.Coord_commit | Logrec.Coord_abort | Logrec.Coord_end ->
          ()));
  (* the control stream's redo start: a page's recLSN is an offset on its
     own stream, so only per-stream minima are meaningful *)
  let an_redo_lsn =
    Hashtbl.fold
      (fun pid rec_lsn acc -> if Logset.route_page logs pid = 0 then Lsn.min acc rec_lsn else acc)
      dpt
      (Logmgr.end_offset (Logset.control logs))
  in
  { an_start = starts; an_redo_lsn; an_dpt = dpt; an_txns = txns; an_records = !records;
    an_next_txn = !next_txn; an_chains = chains }

(* ---------- In-doubt transactions: reacquire locks ---------- *)

let reacquire_indoubt mgr an =
  let locks = Txnmgr.locks mgr in
  let count = ref 0 in
  let indoubt = ref [] in
  Hashtbl.iter
    (fun id tk ->
      if (not tk.tk_ended) && tk.tk_state = Txnmgr.Prepared then begin
        ignore
          (Txnmgr.restore_txn mgr ~firsts:tk.tk_firsts ~id ~state:Txnmgr.Prepared
             ~lasts:tk.tk_lasts ~undo_nxts:tk.tk_undo_nxts ());
        indoubt := id :: !indoubt;
        Stats.incr c_txn_indoubt_restored;
        (* if the txn prepared before the analysis window, fetch the
           Prepare record through the prev-LSN chain of its control stream
           (pageless records route by txn id, so the Prepare is there) *)
        let body =
          match tk.tk_prepare_body with
          | Some b -> Some b
          | None ->
              let cs = Txnmgr.txn_stream mgr id in
              let wal = Logset.stream (Txnmgr.logs mgr) cs in
              let rec walk lsn =
                if Lsn.is_nil lsn then None
                else
                  let r = Logmgr.read wal lsn in
                  match r.Logrec.kind with
                  | Logrec.Prepare -> Some r.Logrec.body
                  | Logrec.Update | Logrec.Clr | Logrec.Commit | Logrec.Rollback
                  | Logrec.End_txn | Logrec.Begin_ckpt | Logrec.End_ckpt | Logrec.Coord_commit
                  | Logrec.Coord_abort | Logrec.Coord_end ->
                      walk r.Logrec.prev_lsn
              in
              walk tk.tk_lasts.(cs)
        in
        match body with
        | None -> ()
        | Some body ->
            let _, locks_blob, _ = Txnmgr.decode_prepare_body body in
            List.iter
              (fun (name, mode) ->
                match Lockmgr.lock locks ~txn:id name mode Lockmgr.Commit with
                | Lockmgr.Granted -> incr count
                | Lockmgr.Denied | Lockmgr.Deadlock ->
                    (* restart is single-threaded: always grantable *)
                    assert false)
              (Lockcodec.decode_list locks_blob)
      end)
    an.an_txns;
  (!count, List.sort compare !indoubt)

let trace_phase phase =
  if Trace.enabled () then Trace.emit (Trace.Restart_phase { phase })

(* ---------- The restart engine: resumable and incremental ----------

   The analysis DPT becomes a "needs redo" set, and redo is per page: a
   fix of a pending page triggers single-page redo on demand (through the
   Bufpool hook), and a drain repeats the rest. Undo is one reverse-gsn
   sweep over a set of losers. Classic restart runs both to completion
   before returning. Instant restart opens the Db right after Analysis: a
   background daemon drains the pending pages, and loser undo is
   lock-driven — a new transaction that requests a name held by a
   restored loser preempts exactly that loser's undo instead of waiting
   behind a bulk undo pass. Repeating history per page is sound because a
   pending page, by construction, has no post-crash log records: any
   post-crash touch goes through [fix], and the hook de-pends the page
   (replaying its history) before the toucher can log against it. *)

module Sched = Aries_sched.Sched

type drain_cfg = {
  dr_every_steps : int;  (** scheduler steps between background rounds *)
  dr_redo_pages : int;  (** pending pages redone per round *)
  dr_undo_txns : int;  (** losers fully undone per round *)
}

let default_drain = { dr_every_steps = 48; dr_redo_pages = 2; dr_undo_txns = 1 }

let validate_drain cfg =
  if cfg.dr_every_steps <= 0 then invalid_arg "Restart: dr_every_steps must be positive";
  if cfg.dr_redo_pages <= 0 then invalid_arg "Restart: dr_redo_pages must be positive";
  if cfg.dr_undo_txns <= 0 then invalid_arg "Restart: dr_undo_txns must be positive"

type engine = {
  en_mgr : Txnmgr.t;
  en_pool : Bufpool.t;
  en_archive : Media.Archive.t option;
  en_redo_lsn : Lsn.t;
  en_records_analyzed : int;
  en_pending : (Ids.page_id, Lsn.t) Hashtbl.t;  (* the needs-redo set *)
  en_history : (Ids.page_id, Lsn.t list) Hashtbl.t;
      (* each pending page's redoable record LSNs on its own stream,
         oldest first: the checkpoint-carried chain (records predating the
         analysis window) merged with the window's own per-page index, so
         per-page redo reads exactly its records instead of scanning the
         log. Entries are dropped as pages are replayed; a page absent
         here (recLSN below the window with no checkpointed chain) falls
         back to a scan of its stream. *)
  en_redoing : (Ids.page_id, Sched.fiber_id) Hashtbl.t;  (* replay in flight *)
  en_losers : (Ids.txn_id, Txnmgr.txn) Hashtbl.t;  (* undo still owed *)
  en_undoing : (Ids.txn_id, Sched.fiber_id) Hashtbl.t;  (* undo in flight *)
  mutable en_finished : bool;
  mutable en_losers_all : Ids.txn_id list;
  mutable en_indoubt : Ids.txn_id list;
  mutable en_locks_reacquired : int;
  (* report counters: aggregated across on-demand redos, background drain
     rounds and preempted undos — never reset per pass *)
  mutable en_redo_scanned : int;
  mutable en_redos_applied : int;
  mutable en_redos_skipped : int;
  mutable en_redo_traversals : int;
  mutable en_undo_records : int;
}

let current_fiber () = if Sched.in_fiber () then Sched.current () else -1

(* The page's redoable history from its recLSN on — read from the page's
   own stream (all its records live there). The common path is the
   prebuilt [en_history] index; the fallback rescans that stream's
   archived segments first (the live prefix may have been reclaimed),
   then its live log. Either way the records are materialized as a list
   before applying — a redo application may yield (transient-I/O backoff),
   and the log must not be iterated across a yield that can append to
   it. *)
let page_history en ~from pid =
  let wal = Logset.page_stream (Txnmgr.logs en.en_mgr) pid in
  match Hashtbl.find_opt en.en_history pid with
  | Some lsns ->
      (* direct reads: everything a pending page owes sits above its
         stream's reclamation safety point (which floors at the last
         checkpoint's redo point), so the live log still holds it *)
      List.map (Logmgr.read wal) lsns
  | None -> Media.page_history ?archive:en.en_archive wal ~from pid

let redo_page ?(on_demand = false) en pid =
  match Hashtbl.find_opt en.en_pending pid with
  | None -> ()
  | Some rec_lsn ->
      (* de-pend before replaying, so the roll-forward's own fixes of this
         page pass the hook; [en_redoing] lets other fibers wait out a
         replay already in flight instead of seeing a half-replayed page *)
      Hashtbl.remove en.en_pending pid;
      if Crashpoint.active Crashpoint.Instant_skip_redo then
        (* deliberately broken engine: drop the page from the pending set
           without repeating its history. No Restart_page_done is emitted,
           so the discipline checker's needs-redo table still lists the
           page and the very next fix is a deterministic R7 violation. *)
        Bufpool.clear_restart_page en.en_pool pid
      else begin
        Hashtbl.replace en.en_redoing pid (current_fiber ());
        Fun.protect
          ~finally:(fun () -> Hashtbl.remove en.en_redoing pid)
          (fun () ->
            if on_demand then Stats.incr c_instant_ondemand_redos;
            if Trace.enabled () then
              Trace.emit
                (Trace.Restart_redo_page { pool = Bufpool.id en.en_pool; pid; on_demand });
            let tr0 = Stats.get (Stats.current ()) Stats.tree_traversals in
            let history = page_history en ~from:rec_lsn pid in
            let applied, skipped = Media.replay en.en_mgr en.en_pool pid history in
            en.en_redo_scanned <- en.en_redo_scanned + List.length history;
            en.en_redos_applied <- en.en_redos_applied + applied;
            en.en_redos_skipped <- en.en_redos_skipped + skipped;
            Hashtbl.remove en.en_history pid;
            en.en_redo_traversals <-
              en.en_redo_traversals + (Stats.get (Stats.current ()) Stats.tree_traversals - tr0);
            (* only a fully replayed page may leave the checkpoint-visible
               needs-redo overlay: a checkpoint taken mid-replay must still
               cover the not-yet-redone suffix of the page's history *)
            Bufpool.clear_restart_page en.en_pool pid;
            if Trace.enabled () then
              Trace.emit
                (Trace.Restart_page_done { pool = Bufpool.id en.en_pool; pid; applied }))
      end

(* The Bufpool fix hook: pending page -> redo it now, on demand; page being
   replayed by another fiber -> wait the replay out. *)
let on_fix en pid =
  if Hashtbl.mem en.en_pending pid then redo_page ~on_demand:true en pid
  else
    match Hashtbl.find_opt en.en_redoing pid with
    | Some f when f <> current_fiber () ->
        while Hashtbl.mem en.en_redoing pid do
          Sched.yield ()
        done
    | Some _ | None -> ()

let finish_loser en (txn : Txnmgr.txn) =
  (* emitted before the locks are released: a waiter woken by the release
     must find the name already disowned in the checker's tables *)
  if Trace.enabled () then Trace.emit (Trace.Restart_loser_done { txn = txn.Txnmgr.txn_id });
  Hashtbl.remove en.en_losers txn.Txnmgr.txn_id;
  Txnmgr.finish en.en_mgr txn

(* The one undo: a single interleaved backward sweep over the given
   losers — always compensate the globally highest owed record next (by
   gsn, the original append order; {!Txnmgr.undo_candidate} merges each
   loser's per-stream cursors), so it reproduces the single-log
   reverse-LSN sweep exactly. A loser is finished (its End written, its
   locks dropped) as soon as it owes nothing more. Per-transaction order
   is not enough: a loser cut inside an SMO is rolled back
   {e physically}, and a sweep that fully undoes some other loser first
   can logically remove a key from the page the SMO moved it to, only for
   the later physical rollback of the half-open split to restore the
   pre-move source page — key included — resurrecting the undone insert.
   Reverse-gsn order undoes the structure change before any record that
   predates it. Deferred (lock-fenced, purely logical) undo — a sweep over
   one loser — is immune: it runs after the eager sweep has restored
   structural consistency, and logical undos under locks commute. *)
let undo_sweep ?(preempted = false) en txns =
  List.iter
    (fun (txn : Txnmgr.txn) ->
      Hashtbl.replace en.en_undoing txn.Txnmgr.txn_id (current_fiber ());
      if Trace.enabled () then
        Trace.emit (Trace.Restart_undo_txn { txn = txn.Txnmgr.txn_id; preempted }))
    txns;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (txn : Txnmgr.txn) -> Hashtbl.remove en.en_undoing txn.Txnmgr.txn_id)
        txns)
    (fun () ->
      let owes txn = Txnmgr.undo_candidate en.en_mgr txn <> None in
      let idle, owing = List.partition (fun txn -> not (owes txn)) txns in
      List.iter (finish_loser en) idle;
      let live = ref owing in
      let rec loop () =
        let next =
          List.fold_left
            (fun best (txn : Txnmgr.txn) ->
              match Txnmgr.undo_candidate en.en_mgr txn with
              | None -> best
              | Some ((_, r) as c) -> (
                  match best with
                  | Some (_, (_, (rb : Logrec.t))) when rb.Logrec.gsn >= r.Logrec.gsn -> best
                  | Some _ | None -> Some (txn, c)))
            None !live
        in
        match next with
        | Some (txn, c) ->
            en.en_undo_records <- en.en_undo_records + 1;
            Txnmgr.undo_one en.en_mgr txn c;
            if not (owes txn) then begin
              finish_loser en txn;
              live := List.filter (fun t -> t != txn) !live
            end;
            loop ()
        | None -> ()
      in
      loop ())

let undo_loser ?(preempted = false) en id =
  (* wait out a fiber already driving this loser's undo *)
  (match Hashtbl.find_opt en.en_undoing id with
  | Some f when f <> current_fiber () ->
      while Hashtbl.mem en.en_undoing id do
        Sched.yield ()
      done
  | Some _ | None -> ());
  match Hashtbl.find_opt en.en_losers id with
  | None -> ()
  | Some txn ->
      if preempted then Stats.incr c_instant_preemptions;
      undo_sweep ~preempted en [ txn ]

(* The Txnmgr lock hook: before a new transaction waits on a name, any
   restored loser holding it is rolled back — the requester's own fiber
   drives exactly the conflicting loser's undo (Sauer & Härder's lazy,
   lock-driven undo), so lock waits are only ever against live txns. *)
let on_lock en name =
  let locks = Txnmgr.locks en.en_mgr in
  let rec loop () =
    let conflicting =
      List.find_opt
        (fun (id, _) -> Hashtbl.mem en.en_losers id || Hashtbl.mem en.en_undoing id)
        (Lockmgr.holders locks name)
    in
    match conflicting with
    | None -> ()
    | Some (id, _) ->
        undo_loser ~preempted:true en id;
        loop ()
  in
  loop ()

(* May this loser's undo be deferred until the drain daemon (or a lock
   conflict) gets to it? Only if {e every} record it still owes — on every
   stream — is fenced by a lock this engine actually reacquired: otherwise
   a new transaction could observe the loser's uncommitted change (a
   deleted key's real protection, for instance, is the commit-duration X
   on the {e next} key, which no Delete_key record body can name). Each
   stream's walk follows the undo chain exactly as lazy undo will:
   prev-LSN links, with CLR undoNxtLSN jumps skipping completed nested top
   actions (their structure records are never owed, so they never force
   eagerness). The walks run the {e whole} chains, including records older
   than the analysis scan start: the checkpoint lock list restores a
   loser's runtime {e locks}, but a half-open SMO's structure updates were
   protected by latches, which die with the crash — no lock in any blob
   fences them, so a loser cut mid-SMO must be compensated eagerly no
   matter where its records fall (its record reads stay cheap: log
   reclamation never truncates past an active transaction's first LSN on
   any stream). *)
let undo_deferrable en (txn : Txnmgr.txn) =
  let logs = Txnmgr.logs en.en_mgr in
  let locks = Txnmgr.locks en.en_mgr in
  let holds name =
    List.exists (fun (id, _) -> id = txn.Txnmgr.txn_id) (Lockmgr.holders locks name)
  in
  let check_stream s cursor =
    let wal = Logset.stream logs s in
    let rec check lsn =
      Lsn.is_nil lsn
      ||
      let r = Logmgr.read wal lsn in
      match r.Logrec.kind with
      | Logrec.Update when r.Logrec.undoable ->
          r.Logrec.rm_id <> 0
          && (match Txnmgr.rm_locks en.en_mgr r with
             | [] -> false
             | names -> List.for_all (fun (name, _) -> holds name) names)
          && check r.Logrec.prev_lsn
      | Logrec.Clr ->
          if Txnmgr.nta_anchor r then
            (* a valid anchor fences this stream's bracket records only if
               its jump vector names this stream. The *other* moved
               streams' walks never meet the anchor (it lives on the
               control stream alone), so they see the bracket's structure
               records as unfenced and force eagerness — conservative but
               safe: eager undo still honors the anchor's fence when it
               reaches it in reverse-gsn order. *)
            match Option.bind (Txnmgr.nta_jumps logs r) (List.assoc_opt s) with
            | Some jump -> check jump
            | None -> check r.Logrec.prev_lsn
          else if r.Logrec.undo_nxt_stream = s then check r.Logrec.undo_nxt_lsn
          else
            (* a cross-stream logical CLR's jump belongs to the compensated
               record's stream — here just step to the previous record (the
               compensated record is walked by its own stream's check) *)
            check r.Logrec.prev_lsn
      | _ -> check r.Logrec.prev_lsn
    in
    check cursor
  in
  let ok = ref true in
  Array.iteri (fun s cursor -> if not (check_stream s cursor) then ok := false) txn.Txnmgr.undo_nxts;
  !ok

let complete en =
  Hashtbl.length en.en_pending = 0
  && Hashtbl.length en.en_redoing = 0
  && Hashtbl.length en.en_losers = 0

let finished en = en.en_finished

let pending_redo en =
  Hashtbl.fold (fun pid _ acc -> pid :: acc) en.en_pending [] |> List.sort compare

let losers_remaining en =
  Hashtbl.fold (fun id _ acc -> id :: acc) en.en_losers [] |> List.sort compare

let finish en =
  if not en.en_finished then begin
    en.en_finished <- true;
    Txnmgr.set_preempt_hook en.en_mgr None;
    Bufpool.clear_redo_hook en.en_pool;
    trace_phase Trace.Checkpoint;
    ignore (Checkpoint.take en.en_mgr en.en_pool);
    trace_phase Trace.Done
  end

let report en =
  {
    rp_redo_lsn = en.en_redo_lsn;
    rp_records_analyzed = en.en_records_analyzed;
    rp_records_redo_scanned = en.en_redo_scanned;
    rp_redos_applied = en.en_redos_applied;
    rp_redos_skipped = en.en_redos_skipped;
    rp_redo_traversals = en.en_redo_traversals;
    rp_undo_records = en.en_undo_records;
    rp_losers = en.en_losers_all;
    rp_indoubt = en.en_indoubt;
    rp_locks_reacquired = en.en_locks_reacquired;
  }

(* [~instant] decides whether loser undo may be deferred past the return.
   Without it nothing is: every page is redone, then every loser goes
   through one sweep, and the engine is finished on return. *)
let open_engine ~instant ?archive mgr pool =
  let logs = Txnmgr.logs mgr in
  trace_phase Trace.Analysis;
  let index : (Ids.page_id, Lsn.t list ref) Hashtbl.t = Hashtbl.create 64 in
  (* only a deferred undo needs the losers' locks back: it runs while new
     transactions do *)
  let locks_of = if instant then Some (Txnmgr.rm_locks mgr) else None in
  let an = analysis ?locks_of ~index logs in
  (* Each pending page's history: the checkpoint-carried chain (records
     that predate the analysis window) merged with the window's own
     per-page index. The two can overlap — the chain runs to its
     checkpoint's snapshot, the window starts at the page's stream's
     ck_scan horizon — so the merge deduplicates; a stale chain (page
     cleaned after the checkpoint, then re-dirtied) can only add records
     the page-LSN test skips. A recLSN below the window with no
     checkpointed chain means the history is not fully known here: no
     entry, and [page_history] falls back to a scan of the page's
     stream. *)
  let history : (Ids.page_id, Lsn.t list) Hashtbl.t =
    Hashtbl.create (Hashtbl.length an.an_dpt)
  in
  Hashtbl.iter
    (fun pid rec_lsn ->
      let chain = Option.value ~default:[] (Hashtbl.find_opt an.an_chains pid) in
      let window =
        match Hashtbl.find_opt index pid with Some l -> List.rev !l | None -> []
      in
      if chain <> [] || Lsn.( >= ) rec_lsn an.an_start.(Logset.route_page logs pid) then
        Hashtbl.replace history pid
          (List.sort_uniq Lsn.compare (chain @ window)
          |> List.filter (fun lsn -> Lsn.( >= ) lsn rec_lsn)))
    an.an_dpt;
  (* keep txn ids monotonic across the crash — including ids of
     transactions that ended before the scan window, known only through
     the checkpointed high-water mark *)
  Hashtbl.iter (fun id _ -> Txnmgr.note_txn_id mgr id) an.an_txns;
  if an.an_next_txn > 0 then Txnmgr.note_txn_id mgr (an.an_next_txn - 1);
  let en =
    {
      en_mgr = mgr;
      en_pool = pool;
      en_archive = archive;
      en_redo_lsn = an.an_redo_lsn;
      en_records_analyzed = an.an_records;
      en_pending = Hashtbl.copy an.an_dpt;
      en_history = history;
      en_redoing = Hashtbl.create 4;
      en_losers = Hashtbl.create 8;
      en_undoing = Hashtbl.create 4;
      en_finished = false;
      en_losers_all = [];
      en_indoubt = [];
      en_locks_reacquired = 0;
      en_redo_scanned = 0;
      en_redos_applied = 0;
      en_redos_skipped = 0;
      en_redo_traversals = 0;
      en_undo_records = 0;
    }
  in
  (* publish the needs-redo set before anything can fix a page: the
     Bufpool overlay makes checkpoints and the log-reclamation safety
     point account for pages whose disk image is still stale, and the
     fix hook turns any touch of such a page into a single-page redo *)
  let dpt_entries =
    Hashtbl.fold
      (fun pid rec_lsn acc ->
        let chain =
          Option.value ~default:[] (Hashtbl.find_opt history pid)
        in
        (pid, rec_lsn, chain) :: acc)
      an.an_dpt []
    |> List.sort compare
  in
  List.iter
    (fun (pid, rec_lsn, _) ->
      Disk.note_pid (Bufpool.disk pool) pid;
      if Trace.enabled () then
        Trace.emit (Trace.Restart_dpt { pool = Bufpool.id pool; pid; rec_lsn }))
    dpt_entries;
  Bufpool.set_restart_dpt pool dpt_entries;
  Bufpool.set_redo_hook pool (fun pid -> on_fix en pid);
  trace_phase Trace.Reacquire_locks;
  let locks_reacquired, indoubt = reacquire_indoubt mgr an in
  en.en_locks_reacquired <- locks_reacquired;
  en.en_indoubt <- indoubt;
  (* restore losers: Rolling_back, deadlock-immune, and (instant) holding
     their locks again so new transactions conflict with their uncommitted
     state instead of reading it *)
  let locks = Txnmgr.locks mgr in
  let loser_ids = ref [] in
  Hashtbl.iter
    (fun id tk ->
      if (not tk.tk_ended) && tk.tk_state <> Txnmgr.Prepared then begin
        let txn =
          Txnmgr.restore_txn mgr ~firsts:tk.tk_firsts ~id ~state:Txnmgr.Rolling_back
            ~lasts:tk.tk_lasts ~undo_nxts:tk.tk_undo_nxts ()
        in
        Lockmgr.set_no_victim locks id;
        if Trace.enabled () then Trace.emit (Trace.Restart_loser { txn = id });
        Hashtbl.replace en.en_losers id txn;
        loser_ids := id :: !loser_ids;
        (* scan-derived names first (all X, the strongest), then the
           checkpointed list for updates predating the scan window *)
        let seen : (Lockmgr.name, unit) Hashtbl.t = Hashtbl.create 8 in
        let reacquire (name, mode) =
          if not (Hashtbl.mem seen name) then begin
            Hashtbl.replace seen name ();
            match Lockmgr.lock locks ~txn:id ~cond:true name mode Lockmgr.Commit with
            | Lockmgr.Granted ->
                Stats.incr c_instant_locks_reacquired;
                en.en_locks_reacquired <- en.en_locks_reacquired + 1;
                (* R7 bookkeeping is X-only and post-grant: two losers may
                   legitimately share an S name (duplicate-check locks) *)
                if mode = Lockmgr.X && Trace.enabled () then
                  Trace.emit (Trace.Restart_lock { txn = id; name; mode })
            | Lockmgr.Denied | Lockmgr.Deadlock ->
                (* [start] is single-threaded: a denial only means another
                   restored txn already covers the name *)
                Stats.incr c_instant_locks_skipped
          end
        in
        if instant then begin
          List.iter reacquire tk.tk_locks;
          match tk.tk_ck_locks with
          | Some b -> List.iter reacquire (Lockcodec.decode_list b)
          | None -> ()
        end
      end)
    an.an_txns;
  en.en_losers_all <- List.sort compare !loser_ids;
  let losers = List.map (Hashtbl.find en.en_losers) en.en_losers_all in
  if instant then
    (* triage the losers while still single-threaded: nothing owed -> End
       it now; every owed record fenced by a reacquired lock -> leave it
       for lazy, lock-driven undo; anything unfenced -> the eager sweep,
       which interleaves all such losers in global reverse-gsn order
       before the Db opens *)
    undo_sweep en
      (List.filter
         (fun txn -> Array.for_all Lsn.is_nil txn.Txnmgr.undo_nxts || not (undo_deferrable en txn))
         losers)
  else begin
    trace_phase Trace.Redo;
    List.iter (redo_page en) (pending_redo en);
    trace_phase Trace.Undo;
    undo_sweep en losers
  end;
  Txnmgr.set_preempt_hook mgr (Some (fun name -> on_lock en name));
  if complete en then finish en else trace_phase Trace.Open;
  en

let start ?archive mgr pool = open_engine ~instant:true ?archive mgr pool

let drain_step ?(cfg = default_drain) en =
  if not en.en_finished then begin
    Stats.incr c_instant_drain_rounds;
    (let redone = ref 0 in
     let more = ref true in
     while !more && !redone < cfg.dr_redo_pages do
       match pending_redo en with
       | pid :: _ ->
           redo_page en pid;
           incr redone
       | [] -> more := false
     done);
    (let undone = ref 0 in
     let more = ref true in
     while !more && !undone < cfg.dr_undo_txns do
       match losers_remaining en with
       | id :: _ ->
           undo_loser en id;
           incr undone
       | [] -> more := false
     done);
    if complete en then finish en
  end

let drain en =
  while not (en.en_finished || Crashpoint.tripped ()) do
    (match pending_redo en with
    | pid :: _ -> redo_page en pid
    | [] -> (
        match losers_remaining en with
        | id :: _ -> undo_loser en id
        | [] ->
            (* work in flight on another fiber: wait it out *)
            if Sched.in_fiber () then Sched.yield ()));
    if complete en then finish en
  done

let run_daemon ?(cfg = default_drain) en ~stop =
  validate_drain cfg;
  let stopping () = stop () || Sched.shutting_down () || Crashpoint.tripped () in
  while not (en.en_finished || Crashpoint.tripped ()) do
    if stopping () then
      (* clean shutdown with the drain incomplete: finish synchronously so
         the quiesced post-run state holds (no restored losers, no orphan
         locks). A tripped crash instead aborts the loop — the machine is
         dead, and the next restart repeats whatever work remains. *)
      drain en
    else begin
      drain_step ~cfg en;
      let t0 = Sched.steps_now () in
      while
        (not (stopping ())) && (not en.en_finished) && Sched.steps_now () - t0 < cfg.dr_every_steps
      do
        Sched.yield ()
      done
    end
  done

let run mgr pool = report (open_engine ~instant:false mgr pool)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>redo point        %a@,analyzed          %d records@,redo scanned      %d records@,redos applied     %d@,redos skipped     %d@,undo processed    %d records@,losers            %s@,in-doubt          %s@,locks reacquired  %d@]"
    Lsn.pp r.rp_redo_lsn r.rp_records_analyzed r.rp_records_redo_scanned r.rp_redos_applied
    r.rp_redos_skipped r.rp_undo_records
    (String.concat "," (List.map string_of_int r.rp_losers))
    (String.concat "," (List.map string_of_int r.rp_indoubt))
    r.rp_locks_reacquired
