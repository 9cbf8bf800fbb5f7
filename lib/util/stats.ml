type counter = int

(* The registry: counter id -> name, and name -> id. Ids are dense and
   never reused, so a sink is just an int array indexed by id. *)
let names : string Vec.t = Vec.create ()

let ids : (string, counter) Hashtbl.t = Hashtbl.create 128

type t = {
  mutable vals : int array;
  mutable zero_added : counter list;
      (* counters bumped only by [add c 0]: they hold 0 but, like any
         bumped counter, still appear in [to_alist] *)
}

let create () = { vals = Array.make (max 64 (Vec.length names)) 0; zero_added = [] }

(* Make room for every registered counter. The current sink grows at
   registration; any other sink grows when [with_sink] installs it, so the
   bump path never needs a bounds fix-up. *)
let ensure t =
  let n = Vec.length names in
  let len = Array.length t.vals in
  if len < n then begin
    let a = Array.make (max n (2 * len)) 0 in
    Array.blit t.vals 0 a 0 len;
    t.vals <- a
  end

let reset t =
  Array.fill t.vals 0 (Array.length t.vals) 0;
  t.zero_added <- []

let copy t = { vals = Array.copy t.vals; zero_added = t.zero_added }

let value t c = if c < Array.length t.vals then t.vals.(c) else 0

let get t name = match Hashtbl.find_opt ids name with Some c -> value t c | None -> 0

let diff later earlier =
  let n = max (Array.length later.vals) (Array.length earlier.vals) in
  { vals = Array.init n (fun c -> value later c - value earlier c); zero_added = [] }

let sink = ref (create ())

let current () = !sink

let with_sink t f =
  let prev = !sink in
  ensure t;
  sink := t;
  Fun.protect ~finally:(fun () -> sink := prev) f

let counter name =
  match Hashtbl.find_opt ids name with
  | Some c -> c
  | None ->
      let c = Vec.length names in
      Vec.push names name;
      Hashtbl.replace ids name c;
      ensure !sink;
      c

let incr c =
  let a = (!sink).vals in
  a.(c) <- a.(c) + 1

let add c n =
  let t = !sink in
  t.vals.(c) <- t.vals.(c) + n;
  if n = 0 && not (List.mem c t.zero_added) then t.zero_added <- c :: t.zero_added

let to_alist t =
  let acc = ref [] in
  Vec.iteri
    (fun c name ->
      let v = value t c in
      if v <> 0 || List.mem c t.zero_added then acc := (name, v) :: !acc)
    names;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%-28s %d@," k v) (to_alist t);
  Format.fprintf ppf "@]"

let lock_requests = "lock.requests"
let lock_waits = "lock.waits"
let lock_deadlocks = "lock.deadlocks"
let latch_acquires = "latch.acquires"
let latch_waits = "latch.waits"
let tree_latch_acquires = "tree_latch.acquires"
let tree_latch_waits = "tree_latch.waits"
let log_records = "log.records"
let log_bytes = "log.bytes"
let log_forces = "log.forces"
let page_reads = "page.reads"
let page_writes = "page.writes"
let page_fixes = "page.fixes"
let tree_traversals = "tree.traversals"
let logical_undos = "undo.logical"
let page_oriented_undos = "undo.page_oriented"
let redos_applied = "redo.applied"
let redo_pages_examined = "redo.pages_examined"
let smo_splits = "smo.splits"
let smo_page_deletes = "smo.page_deletes"
let fiber_yields = "fiber.yields"
let fiber_spawns = "fiber.spawns"
let daemon_spawns = "daemon.spawns"
let commit_batches = "commit.batches"
let commit_batch_size = "commit.batch_size"
let commit_group_waits = "commit.group_waits"
let cleaner_pages_written = "cleaner.pages_written"
let cleaner_rounds = "cleaner.rounds"
let log_seals = "log.seals"
let log_truncations = "log.truncations"
let log_segments_reclaimed = "log.segments_reclaimed"
let log_bytes_reclaimed = "log.bytes_reclaimed"
let ckpt_taken = "ckpt.taken"
let ckptd_rounds = "ckptd.rounds"
let ckptd_nudges = "ckptd.nudges"
let trace_events = "trace.events"
let trace_violations = "trace.violations"
let trace_dumps = "trace.dumps"
let disk_retries = "disk.retries"
let disk_repairs = "disk.repairs"
let disk_eio_injected = "disk.eio_injected"
let disk_torn_writes = "disk.torn_writes"
let disk_bit_flips = "disk.bit_flips"
let disk_quarantines = "disk.quarantines"
let bufpool_image_hits = "bufpool.image_hits"
let bufpool_image_misses = "bufpool.image_misses"
let log_tail_truncated_bytes = "log.tail_truncated_bytes"
let log_tail_truncations = "log.tail_truncations"
let instant_ondemand_redos = "instant.ondemand_redos"
let instant_drain_rounds = "instant.drain_rounds"
let instant_preemptions = "instant.preemptions"
let instant_locks_reacquired = "instant.locks_reacquired"
let instant_locks_skipped = "instant.locks_skipped"
let mvcc_versions_created = "mvcc.versions_created"
let mvcc_versions_reclaimed = "mvcc.versions_reclaimed"
let mvcc_snapshot_reads = "mvcc.snapshot_reads"
let vgcd_rounds = "vgcd.rounds"
let txn_prepares = "txn.prepares"
let txn_indoubt_restored = "txn.indoubt_restored"
let txn_indoubt_resolved = "txn.indoubt_resolved"
let shard_retries = "shard.retries"
let shard_timeouts = "shard.timeouts"
let deadlock_global_victims = "deadlock.global_victims"

let commit_batch_bucket n = Printf.sprintf "commit.batch_hist.%02d" n

let lock_label ~mode ~duration = Printf.sprintf "lock.%s.%s" mode duration
