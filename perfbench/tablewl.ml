(* The two Table-layer workloads, [read-spill] and [write-hot]: closed-loop
   client fibers on one table (unique primary index [pk], non-unique
   secondary index [sk]) under ARIES/IM data-only locking, 4 KiB pages,
   group commit, the page cleaner and the checkpoint daemon. A round sets
   the table up, runs the clients until a fixed scheduler step, saves the
   stable image the cut leaves, and restarts it from [Db.load]: classic,
   then instant with one new committed transaction, [restart_reps] times
   each. *)

open Aries_util
module Db = Aries_db.Db
module Table = Aries_db.Table
module Recmgr = Aries_db.Recmgr
module Txnmgr = Aries_txn.Txnmgr
module Group_commit = Aries_txn.Group_commit
module Cleaner = Aries_buffer.Cleaner
module Ckptd = Aries_recovery.Ckptd
module Restart = Aries_recovery.Restart
module Sched = Aries_sched.Sched
module Logmgr = Aries_wal.Logmgr
module Logset = Aries_wal.Logset
module Lsn = Aries_wal.Lsn
module Disk = Aries_page.Disk
module Page = Aries_page.Page
module Btree = Aries_btree.Btree

let page_size = 4096

let commit_policy = Group_commit.default_policy

let cleaner = Cleaner.default_cfg

let checkpoint = Ckptd.default_cfg

let specs =
  [
    { Table.sp_name = "pk"; sp_unique = true; sp_key = (fun r -> r.(0)) };
    { Table.sp_name = "sk"; sp_unique = false; sp_key = (fun r -> r.(1)) };
  ]

(* Preloaded keys sort below every client-inserted key ("k" < "p"), so a
   scan over preloaded keys never meets a concurrent insert or delete. *)
let pk i = Printf.sprintf "k%07d" i

let sk i = Printf.sprintf "s%05d" (i mod 10_000)

let payload tag = Printf.sprintf "%-48s" tag

(* [Table.encode_row] size: a u32 field count, then u32 length + bytes each. *)
let row_bytes row = Array.fold_left (fun acc s -> acc + 4 + String.length s) 4 row

type op =
  | Fetch of string
  | Scan of int * int  (** first preloaded key index, length *)
  | Update of string * string option  (** pk, new secondary key ([None]: keep) *)
  | Insert of string
  | Delete of string

type plan = { ops : op list; rollback : bool }

type client = {
  fiber : int;
  rng : Rng.t;
  mine : string Vec.t;  (** this fiber's inserted keys, as of its last ack *)
  mutable next_private : int;
}

type cfg = {
  name : string;
  rows : int;  (** preloaded rows *)
  pool_frames : int;
  fibers : int;
  cut_steps : int;  (** scheduler steps of the measured phase *)
  plan : cfg -> client -> plan;
}

(* read-spill: 90% read-only (point fetches or a short pk scan), 10%
   payload updates; keys uniform over the whole table. *)
let read_spill_plan cfg c =
  let key () = pk (Rng.int c.rng cfg.rows) in
  let r = Rng.int c.rng 100 in
  let ops =
    if r < 70 then List.init 4 (fun _ -> Fetch (key ()))
    else if r < 90 then
      let len = 8 in
      [ Scan (Rng.int c.rng (cfg.rows - len), len) ]
    else List.init 2 (fun _ -> Update (key (), None))
  in
  { ops; rollback = false }

let hot_keys = 32

(* write-hot: 80% write transactions of three writes each — updates that
   re-key [sk] (mostly on a 32-key hot set), inserts of fresh keys and
   deletes of the fiber's own earlier inserts — and 3% of them roll back
   voluntarily. The rest read two keys. *)
let write_hot_plan cfg c =
  let stride = cfg.rows / hot_keys in
  let target () =
    if Rng.int c.rng 100 < 80 then pk (Rng.int c.rng hot_keys * stride) else pk (Rng.int c.rng cfg.rows)
  in
  if Rng.int c.rng 100 < 20 then { ops = [ Fetch (target ()); Fetch (target ()) ]; rollback = false }
  else begin
    let deleted = ref [] in
    let insert () =
      let k = Printf.sprintf "p%d-%07d" c.fiber c.next_private in
      c.next_private <- c.next_private + 1;
      Insert k
    in
    let op () =
      let q = Rng.int c.rng 100 in
      if q < 60 then Update (target (), Some (sk (Rng.int c.rng 10_000)))
      else if q < 80 || Vec.is_empty c.mine then insert ()
      else
        let k = Vec.get c.mine (Rng.int c.rng (Vec.length c.mine)) in
        if List.mem k !deleted then insert ()
        else begin
          deleted := k :: !deleted;
          Delete k
        end
    in
    let ops = List.init 3 (fun _ -> op ()) in
    { ops; rollback = Rng.int c.rng 100 < 3 }
  end

let read_spill =
  { name = "read-spill"; rows = 6_000; pool_frames = 32; fibers = 4; cut_steps = 25_000; plan = read_spill_plan }

let write_hot =
  { name = "write-hot"; rows = 2_000; pool_frames = 4_096; fibers = 4; cut_steps = 30_000; plan = write_hot_plan }

let describe cfg =
  Printf.sprintf
    "table rows=%d pool_frames=%d page_size=%d fibers=%d cut_steps=%d group_commit={max_batch=%d; \
     max_delay_steps=%d} cleaner={interval_steps=%d; batch_pages=%d} \
     checkpoint={every_steps=%d; nudge_pages=%d; truncate=%b}"
    cfg.rows cfg.pool_frames page_size cfg.fibers cfg.cut_steps commit_policy.Group_commit.max_batch
    commit_policy.Group_commit.max_delay_steps cleaner.Cleaner.interval_steps
    cleaner.Cleaner.batch_pages checkpoint.Ckptd.every_steps checkpoint.Ckptd.nudge_pages
    checkpoint.Ckptd.truncate

type env = {
  cfg : cfg;
  db : Db.t;
  tbl : Table.t;
  model : Table.row Model.t;
  acct : Round.acct;
  mutable next_attempt : int;
}

let fetch env txn ~req key = Span.wrap ~req "db.fetch" (fun () -> Table.fetch env.tbl txn ~index:"pk" key)

(* Run one operation; returns the user bytes it wrote. *)
let exec env txn ~attempt op =
  env.acct.ops <- env.acct.ops + 1;
  let req = attempt in
  let found key =
    match fetch env txn ~req key with
    | Some (rid, row) when String.equal row.(0) key -> (rid, row)
    | Some _ -> Round.fail "fetch %s returned another key" key
    | None -> Round.fail "fetch %s: key not found" key
  in
  match op with
  | Fetch key ->
      ignore (found key);
      0
  | Scan (first, len) ->
      let rows =
        Span.wrap ~req "db.scan" (fun () ->
            Table.scan env.tbl txn ~index:"pk" (pk first) ~stop:(pk (first + len - 1), `Le) ())
      in
      Round.check (List.length rows = len) "scan from %s returned %d rows, expected %d" (pk first)
        (List.length rows) len;
      List.iteri
        (fun j (_, row) ->
          Round.check (String.equal row.(0) (pk (first + j))) "scan from %s out of order at %d"
            (pk first) j)
        rows;
      0
  | Update (key, new_sk) ->
      let rid, row = found key in
      let row' =
        [| key; Option.value new_sk ~default:row.(1); payload (Printf.sprintf "u%d.%s" attempt key) |]
      in
      Span.wrap ~req "db.update" (fun () -> Table.update env.tbl txn rid row');
      Model.write env.model attempt key (Some row');
      row_bytes row'
  | Insert key ->
      let row = [| key; sk attempt; payload (Printf.sprintf "i%d" attempt) |] in
      ignore (Span.wrap ~req "db.insert" (fun () -> Table.insert env.tbl txn row));
      Model.write env.model attempt key (Some row);
      row_bytes row
  | Delete key ->
      let rid, _ = found key in
      Span.wrap ~req "db.delete" (fun () -> Table.delete env.tbl txn rid);
      Model.write env.model attempt key None;
      String.length key

let run_attempt env plan ~attempt =
  let mgr = env.db.Db.mgr in
  let txn = Span.wrap ~req:attempt "txn.begin" (fun () -> Txnmgr.begin_txn mgr) in
  Model.set env.model attempt Model.Open;
  let written = List.fold_left (fun acc op -> acc + exec env txn ~attempt op) 0 plan.ops in
  if plan.rollback then begin
    Span.wrap ~req:attempt "txn.rollback" (fun () -> Txnmgr.rollback mgr txn);
    Model.set env.model attempt Model.Undone;
    None
  end
  else begin
    Model.set env.model attempt Model.Committing;
    Span.wrap ~req:attempt "txn.commit" (fun () -> Txnmgr.commit mgr txn);
    Model.set env.model attempt Model.Acked;
    Some written
  end

let note_ack c plan =
  List.iter
    (function
      | Insert k -> Vec.push c.mine k
      | Delete k -> (
          match Vec.find_index (String.equal k) c.mine with
          | Some i -> ignore (Vec.swap_remove c.mine i)
          | None -> ())
      | Fetch _ | Scan _ | Update _ -> ())
    plan.ops

let live_log_bytes (db : Db.t) =
  let n = ref 0 in
  Logset.iteri db.Db.logs (fun _ wal -> n := !n + Logmgr.size_bytes wal);
  !n

(* Stable footprint: disk pages and live log. *)
let space (db : Db.t) = (Disk.page_count db.Db.disk * page_size) + live_log_bytes db

(* Log bytes ever appended (offsets are absolute, so reclaimed segments
   still count). *)
let appended_log_bytes (db : Db.t) =
  let n = ref 0 in
  Logset.iteri db.Db.logs (fun _ wal -> n := !n + Logmgr.end_offset wal);
  !n

(* A closed-loop client: the next transaction starts when the previous one
   finished; a deadlock victim backs off and is retried with the same plan.
   Runs until the scheduler cuts the run. *)
let client env c () =
  let a = env.acct in
  while true do
    Round.mark a ~space:(fun () -> space env.db);
    let plan = env.cfg.plan env.cfg c in
    let t0 = Span.now_ns () in
    a.in_flight <- a.in_flight + 1;
    let rec go tries =
      let attempt = env.next_attempt in
      env.next_attempt <- attempt + 1;
      a.attempts <- a.attempts + 1;
      match Span.wrap ~req:attempt "client.txn" (fun () -> run_attempt env plan ~attempt) with
      | Some bytes ->
          a.committed <- a.committed + 1;
          a.user_bytes <- a.user_bytes + bytes;
          Vec.push a.lat_ms (Span.seconds_since t0 *. 1e3);
          note_ack c plan
      | None -> a.rollbacks <- a.rollbacks + 1
      | exception Txnmgr.Aborted _ ->
          Model.set env.model attempt Model.Undone;
          a.aborts <- a.aborts + 1;
          Round.backoff c.rng tries;
          if tries < Round.max_retries then go (tries + 1) else a.gave_up <- a.gave_up + 1
    in
    go 0;
    a.in_flight <- a.in_flight - 1
  done

let run_ok what (r : Sched.result) =
  (match r.Sched.exns with
  | [] -> ()
  | (_, name, e) :: _ -> Round.fail "%s: fiber %s raised %s" what name (Printexc.to_string e));
  match r.Sched.outcome with
  | Sched.Completed -> ()
  | Sched.Stalled ids -> Round.fail "%s stalled with %d suspended fiber(s)" what (List.length ids)
  | Sched.Interrupted _ -> Round.fail "%s did not finish" what

let create_db cfg =
  Db.create ~page_size ~pool_capacity:cfg.pool_frames ~commit_mode:(Db.Group commit_policy) ~cleaner
    ~checkpoint ()

let load cfg img =
  Db.load ~pool_capacity:cfg.pool_frames ~commit_mode:(Db.Group commit_policy) ~cleaner ~checkpoint img

let preload_batch = 500

(* Returns the database, the table and the ns stamps that cut setup into
   slices: start, table created, one per preload batch, daemons drained. *)
let setup cfg model =
  let stamps = ref [ Span.now_ns () ] in
  let stamp () = stamps := Span.now_ns () :: !stamps in
  let db = Span.wrap "db.create" (fun () -> create_db cfg) in
  let tbl = ref None in
  run_ok "setup"
    (Db.run db (fun () ->
         let t =
           Span.wrap "db.table_create" (fun () ->
               Db.with_txn db (fun txn -> Table.create db txn ~id:1 specs))
         in
         tbl := Some t;
         stamp ();
         let i = ref 0 in
         while !i < cfg.rows do
           Span.wrap "db.preload_txn" (fun () ->
               Db.with_txn db (fun txn ->
                   for j = !i to min cfg.rows (!i + preload_batch) - 1 do
                     let row = [| pk j; sk j; payload (Printf.sprintf "pre%d" j) |] in
                     ignore (Span.wrap "db.preload_insert" (fun () -> Table.insert t txn row));
                     Model.write model Model.preload_attempt (pk j) (Some row)
                   done));
           stamp ();
           i := !i + preload_batch
         done));
  stamp ();
  (db, Option.get !tbl, List.rev !stamps)

(* The whole table through the pk index, read unlocked on the quiesced
   database (a locked scan would hold one lock per row). *)
let table_state db tbl =
  let rows = ref [] in
  run_ok "state read"
    (Db.run db (fun () ->
         rows :=
           List.map
             (fun (key, rid) ->
               match Recmgr.read (Table.heap tbl) rid with
               | Some b -> (key, Table.decode_row b)
               | None -> Round.fail "pk entry %s points at no record" key)
             (Btree.to_list (Table.index tbl "pk"))));
  !rows

let audit ~what db tbl model =
  Model.verify model ~what (table_state db tbl);
  run_ok (what ^ " consistency") (Db.run db (fun () -> Table.check_consistency tbl));
  match Db.leak_report db with
  | [] -> ()
  | leaks -> Round.fail "%s: leak report: %s" what (String.concat "; " leaks)

(* Repeat [f] until at least 20 ms have passed; seconds per call. *)
let per_call f =
  let t0 = Span.now_ns () in
  let n = ref 0 in
  while !n = 0 || Span.seconds_since t0 < 0.02 do
    f ();
    incr n
  done;
  Span.seconds_since t0 /. float_of_int !n

(* Page codec cost over the final page images, µs per page. The pool is
   flushed first so the disk holds every page. *)
let page_codec (db : Db.t) =
  run_ok "flush" (Db.run db (fun () -> Aries_buffer.Bufpool.flush_all db.Db.pool));
  let disk = db.Db.disk in
  let pages = List.filter_map (Disk.read_with_image disk) (Disk.pids disk) in
  let n = float_of_int (max 1 (List.length pages)) in
  let decode =
    per_call (fun () -> List.iter (fun (_, img) -> ignore (Page.decode ~psize:page_size img)) pages)
  in
  let encode = per_call (fun () -> List.iter (fun (p, _) -> ignore (Page.encode p)) pages) in
  [ ("page.decode_us", decode /. n *. 1e6); ("page.encode_us", encode /. n *. 1e6) ]

(* Log scan rate over every stream of the crash image. *)
let wal_scan (db : Db.t) =
  let bytes = live_log_bytes db in
  let secs =
    per_call (fun () -> Logset.iteri db.Db.logs (fun _ wal -> Logmgr.iter_from wal Lsn.nil ignore))
  in
  [ ("wal.scan_mb_s", float_of_int bytes /. 1e6 /. secs) ]

(* Db.load + classic restart. *)
let classic_restart cfg img =
  let t0 = Span.now_ns () in
  let db = Span.wrap "db.load" (fun () -> load cfg img) in
  let rep = ref None in
  run_ok "classic restart"
    (Db.run ~policy:Sched.Fifo db (fun () ->
         rep := Some (Span.wrap "recovery.restart" (fun () -> Db.restart db))));
  (db, Option.get !rep, Span.seconds_since t0)

type instant = {
  in_db : Db.t;
  in_tbl : Table.t;
  in_first_ms : float;  (** load + instant restart + reopen + one committed txn *)
  in_open_ms : float;
  in_reopen_ms : float;
  in_drain_ms : float;  (** reopen done to drain finished *)
}

(* Known engine defect (README.md, "Checks"): [Table.open_existing] during
   the instant-restart drain looks for heap pages on the disk and in the
   pool only, so it misses a never-flushed page still pending redo. The
   reopen first redoes exactly those pages on demand, the work a fixed
   [Recmgr.open_heaps] would have to do; its time counts towards
   [db.reopen] and [first_commit_ms]. *)
let redo_unseen db =
  match Db.restart_engine db with
  | None -> ()
  | Some en ->
      let seen = Hashtbl.create 1024 in
      List.iter (fun pid -> Hashtbl.replace seen pid ()) (Disk.pids (Aries_buffer.Bufpool.disk db.Db.pool));
      List.iter (fun pid -> Hashtbl.replace seen pid ()) (Aries_buffer.Bufpool.resident_pids db.Db.pool);
      List.iter
        (fun pid -> if not (Hashtbl.mem seen pid) then Restart.redo_page ~on_demand:true en pid)
        (Restart.pending_redo en)

let reopen db =
  redo_unseen db;
  Table.open_existing db ~id:1 specs

(* Db.load + instant restart + Table.open_existing + one committed insert,
   then wait for the background drain. *)
let instant_restart cfg img first_row =
  let t0 = Span.now_ns () in
  let db = Span.wrap "db.load" (fun () -> load cfg img) in
  let res = ref None in
  run_ok "instant restart"
    (Db.run ~policy:Sched.Fifo db (fun () ->
         let _, o = Span.timed (fun () -> Span.wrap "recovery.instant_open" (fun () -> Db.restart ~instant:true db)) in
         let t, ro = Span.timed (fun () -> Span.wrap "db.reopen" (fun () -> reopen db)) in
         let t_open = Span.now_ns () in
         Span.wrap "db.first_commit" (fun () ->
             Db.with_txn db (fun txn -> ignore (Table.insert t txn first_row)));
         let first = Span.seconds_since t0 *. 1e3 in
         (match Db.restart_engine db with
         | Some en -> while not (Restart.finished en) do Sched.yield () done
         | None -> ());
         res :=
           Some
             {
               in_db = db;
               in_tbl = t;
               in_first_ms = first;
               in_open_ms = o *. 1e3;
               in_reopen_ms = ro *. 1e3;
               in_drain_ms = Span.seconds_since t_open *. 1e3;
             }));
  Option.get !res

(* Each restart is repeated on the crash image so its timing has more than
   one sample per round; only the first of each kind is audited. *)
let restart_reps = 5

let round cfg ~seed ~layers ~workdir =
  let model = Model.create () in
  let setup_stats = Stats.create () in
  let db, tbl, setup_stamps = Stats.with_sink setup_stats (fun () -> setup cfg model) in
  let table_pages =
    List.length (Recmgr.page_ids (Table.heap tbl))
    + List.fold_left (fun acc (_, bt) -> acc + Btree.page_count bt) 0 (Table.indexes tbl)
  in
  let env = { cfg; db; tbl; model; acct = Round.acct ~cut_steps:cfg.cut_steps; next_attempt = 1 } in
  let clients =
    Array.init cfg.fibers (fun f ->
        { fiber = f; rng = Rng.create ((seed * 1_000_003) + (f * 7919) + 17); mine = Vec.create (); next_private = 0 })
  in
  let r, run_segs, stats, minor, major =
    Round.measure env.acct (fun () ->
        Db.run ~policy:(Sched.Random seed) ~max_steps:cfg.cut_steps db (fun () ->
            Array.iter
              (fun c -> ignore (Sched.spawn ~name:(Printf.sprintf "client-%d" c.fiber) (client env c)))
              clients))
  in
  (match r.Sched.exns with
  | [] -> ()
  | (_, name, e) :: _ -> Round.fail "workload: fiber %s raised %s" name (Printexc.to_string e));
  (match r.Sched.outcome with
  | Sched.Interrupted _ -> ()
  | Sched.Completed | Sched.Stalled _ -> Round.fail "workload ended before the step cut");
  let a = env.acct in
  (* coverage self-checks *)
  if cfg.name = read_spill.name then begin
    Round.check (table_pages >= 4 * cfg.pool_frames)
      "read-spill: %d data+index pages, fewer than 4x the %d pool frames" table_pages cfg.pool_frames;
    Round.check (Stats.get stats Stats.page_reads > 0) "read-spill: no buffer misses"
  end;
  if cfg.name = write_hot.name then begin
    let reads = Stats.get setup_stats Stats.page_reads + Stats.get stats Stats.page_reads in
    Round.check (reads = 0) "write-hot: %d page reads before the crash" reads;
    Round.check (a.in_flight > 0) "write-hot: no transaction in flight at the cut"
  end;
  let live_user = Model.fold_acked model (fun _ row acc -> acc + row_bytes row) 0 in
  let reclaimed_frac = 1. -. (float_of_int (live_log_bytes db) /. float_of_int (appended_log_bytes db)) in
  let img = Filename.concat workdir (cfg.name ^ ".img") in
  Span.wrap "db.save" (fun () -> Db.save db img);
  Fun.protect ~finally:(fun () -> Sys.remove img) @@ fun () ->
  let db1, rep1, classic_s = classic_restart cfg img in
  let classic_s =
    classic_s :: List.init (restart_reps - 1) (fun _ -> (fun (_, _, secs) -> secs) (classic_restart cfg img))
  in
  let tbl1 = Db.run_exn db1 (fun () -> Table.open_existing db1 ~id:1 specs) in
  audit ~what:"classic restart" db1 tbl1 model;
  if cfg.name = write_hot.name then
    Round.check (rep1.Restart.rp_redos_applied > 0) "write-hot: classic restart applied no redo";
  let first_key = "z-first-commit" in
  let first_row = [| first_key; sk 0; payload "first" |] in
  let i1 = instant_restart cfg img first_row in
  let first_ms =
    i1.in_first_ms
    :: List.init (restart_reps - 1) (fun _ -> (instant_restart cfg img first_row).in_first_ms)
  in
  let first_attempt = env.next_attempt in
  Model.set model first_attempt Model.Acked;
  Model.write model first_attempt first_key (Some first_row);
  (* the handle opened while restart was still draining must know every
     heap page a handle opened afterwards finds *)
  let later = Db.run_exn i1.in_db (fun () -> Table.open_existing i1.in_db ~id:1 specs) in
  let early = Recmgr.page_ids (Table.heap i1.in_tbl) in
  (match List.filter (fun p -> not (List.mem p early)) (Recmgr.page_ids (Table.heap later)) with
  | [] -> ()
  | missed ->
      Round.fail
        "instant restart: Table.open_existing during the drain missed heap page(s) %s that a \
         reopen after the drain finds (Recmgr.open_heaps scans disk and resident pages, not \
         pages still pending redo)"
        (String.concat "," (List.map string_of_int missed)));
  audit ~what:"instant restart" i1.in_db i1.in_tbl model;
  let classic_totals = Round.restart_totals [ rep1 ] in
  let rep2 = Restart.report (Option.get (Db.restart_engine i1.in_db)) in
  let layer =
    [
      ("db.reopen_ms", i1.in_reopen_ms);
      ("wal.reclaimed_frac", reclaimed_frac);
      ("recovery.instant_open_ms", i1.in_open_ms);
      ("recovery.instant_drain_ms", i1.in_drain_ms);
    ]
    @ Round.recovery_layer classic_totals
    @ if layers then page_codec db1 @ wal_scan (load cfg img) else []
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
    restart_s = classic_s;
    first_commit_ms = first_ms;
    layer;
    counts =
      Round.base_counts a stats ~steps:r.Sched.steps
      @ Round.prefixed "classic" classic_totals
      @ Round.prefixed "instant" (Round.restart_totals [ rep2 ])
      @ [ ("table_pages", table_pages) ];
  }
