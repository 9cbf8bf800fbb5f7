open Aries_util
module Lsn = Aries_wal.Lsn
module Logmgr = Aries_wal.Logmgr
module Logset = Aries_wal.Logset
module Page = Aries_page.Page
module Disk = Aries_page.Disk
module Trace = Aries_trace.Trace
module Sched = Aries_sched.Sched

let c_disk_retries = Stats.counter Stats.disk_retries
let c_disk_quarantines = Stats.counter Stats.disk_quarantines
let c_page_fixes = Stats.counter Stats.page_fixes
let c_bufpool_overflow = Stats.counter "bufpool.overflow"
let c_bufpool_evict_dirty = Stats.counter "bufpool.evict_dirty"
let c_bufpool_evict_clean = Stats.counter "bufpool.evict_clean"
let c_bufpool_stolen = Stats.counter "bufpool.stolen"
let cp_bufpool_write = Crashpoint.point "bufpool.write"

exception Page_vanished of Ids.page_id

type frame = {
  page : Page.t;
  mutable fix_count : int;
  mutable dirty : bool;
  mutable rec_lsn : Lsn.t;  (* meaningful iff dirty *)
  mutable chain : Lsn.t list;
      (* the page's log chain since it became dirty, newest first: every
         record LSN applied to the frame. Checkpoints persist it so instant
         restart can repeat a page's history by direct record reads instead
         of scanning the log once per pending page. Cleared on write-out:
         records at or below a flushed image's page_lsn are never redone. *)
  mutable last_use : int;  (* LRU clock *)
  mutable clean_lsn : Lsn.t;
      (* the page_lsn when the frame was installed or last written back:
         a clean frame whose page has moved past it was changed without
         [mark_dirty] (see [unlogged_mutations]) *)
}

type t = {
  id : int;  (* process-unique; disambiguates pools (shards) in trace events *)
  dsk : Disk.t;
  logs : Logset.t;
  capacity : int;
  frames : (Ids.page_id, frame) Hashtbl.t;
  enc : Bytebuf.W.t;  (* shared page-size-hinted encode arena *)
  mutable tick : int;
  mutable steal_rng : Rng.t option;
  mutable steal_probability : float;
  mutable repairer : (Ids.page_id -> bool) option;
  mutable repairing : bool;  (* re-entrancy guard: no repair inside a repair *)
  mutable redo_hook : (Ids.page_id -> unit) option;
  (* instant restart's needs-redo set, overlaid on the dirty-page table:
     pages whose stable image is stale but whose frames are not (yet)
     resident, each with its recLSN and not-yet-replayed log chain.
     Checkpoints and the log-reclamation safety point must keep covering
     them until their history has been repeated. *)
  restart_dpt : (Ids.page_id, Lsn.t * Lsn.t list) Hashtbl.t;
}

let next_id = ref 0

let create ?(capacity = 128) dsk logs =
  incr next_id;
  {
    id = !next_id;
    dsk;
    logs;
    capacity;
    frames = Hashtbl.create 64;
    enc = Bytebuf.W.create ~size:(Disk.page_size dsk + 16) ();
    tick = 0;
    steal_rng = None;
    steal_probability = 0.0;
    repairer = None;
    repairing = false;
    redo_hook = None;
    restart_dpt = Hashtbl.create 8;
  }

let capacity t = t.capacity

let disk t = t.dsk

let id t = t.id

let page_size t = Disk.page_size t.dsk

let touch t f =
  t.tick <- t.tick + 1;
  f.last_use <- t.tick

(* Bounded retry with deterministic backoff for transient I/O errors: inside
   a fiber each retry yields a scheduler step first, so the retry happens
   later in simulated time and a transient-EIO storm can pass; outside a
   fiber retries are immediate. Exhaustion surfaces as a typed
   [Storage_error] with cause [Retry_exhausted] — never a silent drop. *)
let max_io_retries = 4

let retrying ~pid ~target f =
  let rec go attempt =
    try f () with
    | Storage_error.Error { cause = Storage_error.Io_transient; _ } ->
        if attempt >= max_io_retries then
          Storage_error.raise_err ~pid Storage_error.Retry_exhausted
            "%s on page %d still failing after %d retries" target pid attempt;
        Stats.incr c_disk_retries;
        if Trace.enabled () then
          Trace.emit (Trace.Io_retry { target; pid; attempt = attempt + 1 });
        if Sched.in_fiber () then Sched.yield ();
        go (attempt + 1)
  in
  go 0

let write_frame t f =
  let pid = f.page.Page.pid in
  retrying ~pid ~target:"page-write" (fun () ->
      (* A crash point of its own: the instant between the eviction decision
         and the WAL force (Logmgr/Disk add finer points inside). *)
      Crashpoint.hit cp_bufpool_write;
      (* WAL rule, per stream: all of a page's records live on its routed
         stream, so forcing *that* stream to the page's [page_lsn] covers
         every record the image reflects — no other stream needs forcing.
         Re-run on every retry attempt: a backoff yield may have let
         another fiber advance the page, and the force must cover whatever
         [page_lsn] the write will capture. *)
      let wal = Logset.page_stream t.logs pid in
      Logmgr.flush_to wal f.page.Page.page_lsn;
      (* R5 hazard point: emitted after the covering force and before the
         disk write, so a page image racing past the flushed boundary (e.g.
         under the skip-flush fault) raises here, not after the damage. *)
      (if Trace.enabled () then
         let page_lsn = f.page.Page.page_lsn in
         let lsn_end = if Lsn.is_nil page_lsn then 0 else Logmgr.record_end wal page_lsn in
         Trace.emit
           (Trace.Page_write
              {
                log = Logmgr.id wal;
                pid = f.page.Page.pid;
                page_lsn;
                lsn_end;
                (* the dirty-table recLSN at write time: rule R6 checks it
                   never falls inside a reclaimed log segment *)
                rec_lsn = f.rec_lsn;
              }));
      (* encoded through the pool's shared arena: no per-write buffer *)
      Disk.write_image t.dsk pid (Page.encode_into t.enc f.page));
  f.clean_lsn <- f.page.Page.page_lsn;
  f.dirty <- false;
  f.rec_lsn <- Lsn.nil;
  f.chain <- []

let evict_one t =
  (* LRU over unfixed frames *)
  let victim =
    Hashtbl.fold
      (fun _ f best ->
        if f.fix_count > 0 then best
        else
          match best with
          | Some b when b.last_use <= f.last_use -> best
          | _ -> Some f)
      t.frames None
  in
  match victim with
  | None -> Stats.incr c_bufpool_overflow  (* all frames fixed: let the pool grow *)
  | Some f ->
      if f.dirty then begin
        Stats.incr c_bufpool_evict_dirty;
        write_frame t f
      end
      else Stats.incr c_bufpool_evict_clean;
      Hashtbl.remove t.frames f.page.Page.pid

let make_room t = if Hashtbl.length t.frames >= t.capacity then evict_one t

let install t page =
  make_room t;
  let f =
    {
      page;
      fix_count = 1;
      dirty = false;
      rec_lsn = Lsn.nil;
      chain = [];
      last_use = 0;
      clean_lsn = page.Page.page_lsn;
    }
  in
  touch t f;
  Hashtbl.replace t.frames page.Page.pid f;
  f

(* Read a page image from disk: transient errors are retried (bounded, with
   backoff); a CRC / decode failure quarantines the page and invokes the
   repairer hook (installed by [Db]: automatic media recovery from the log
   archive). The repair leaves the healed page resident, so [None] comes
   back and [fix_opt] serves that frame: re-reading the stored image would
   trip over a fault that struck the repair's own write. The [repairing]
   guard keeps the repairer's own page traffic from recursing into another
   repair. *)
let read_page t pid =
  let read () = retrying ~pid ~target:"page-read" (fun () -> Disk.read t.dsk pid) in
  try read () with
  | Storage_error.Error
      { cause = Storage_error.Checksum | Storage_error.Decode; detail; _ } as e -> (
      match t.repairer with
      | Some repair when not t.repairing ->
          Stats.incr c_disk_quarantines;
          if Trace.enabled () then Trace.emit (Trace.Page_quarantined { pid; cause = detail });
          t.repairing <- true;
          let healed =
            Fun.protect ~finally:(fun () -> t.repairing <- false) (fun () -> repair pid)
          in
          if not healed then raise e else if Hashtbl.mem t.frames pid then None else read ()
      | Some _ | None -> raise e)

let fix_frame t f =
  f.fix_count <- f.fix_count + 1;
  touch t f;
  Some f.page

let fix_opt t pid =
  (* Instant-restart interlock: while recovery is still draining, a page in
     the needs-redo set must have its history repeated before anyone sees
     it. The hook (installed by the restart engine) redoes exactly this
     page on demand and is a no-op for pages not (or no longer) pending —
     including the redo roll-forward's own fix of the same page, which the
     engine de-pends before replaying. *)
  (match t.redo_hook with None -> () | Some h -> h pid);
  Stats.incr c_page_fixes;
  let r =
    match Hashtbl.find_opt t.frames pid with
    | Some f -> fix_frame t f
    | None -> (
        match read_page t pid with
        | Some page -> Some (install t page).page
        | None -> (
            (* no stored image — or a repair healed the page into a frame *)
            match Hashtbl.find_opt t.frames pid with Some f -> fix_frame t f | None -> None))
  in
  if r <> None && Trace.enabled () then Trace.emit (Trace.Page_fix { pool = t.id; pid });
  r

let fix t pid = match fix_opt t pid with Some p -> p | None -> raise (Page_vanished pid)

let fix_new t pid content =
  Stats.incr c_page_fixes;
  assert (not (Hashtbl.mem t.frames pid));
  let page = Page.create ~psize:(page_size t) ~pid content in
  if Trace.enabled () then Trace.emit (Trace.Page_fix { pool = t.id; pid });
  (install t page).page

let frame_of t page =
  match Hashtbl.find_opt t.frames page.Page.pid with
  | Some f when f.page == page -> f
  | Some _ | None ->
      invalid_arg (Printf.sprintf "Bufpool: page %d is not a pool resident" page.Page.pid)

let unfix t page =
  let f = frame_of t page in
  if f.fix_count <= 0 then invalid_arg (Printf.sprintf "Bufpool: unfix of unfixed page %d" page.Page.pid);
  f.fix_count <- f.fix_count - 1;
  if Trace.enabled () then Trace.emit (Trace.Page_unfix { pid = page.Page.pid })

let with_fix t pid fn =
  let p = fix t pid in
  Fun.protect ~finally:(fun () -> unfix t p) (fun () -> fn p)

let steal_some t =
  match t.steal_rng with
  | None -> ()
  | Some rng ->
      if Rng.float rng 1.0 < t.steal_probability then begin
        let dirty_unfixed =
          Hashtbl.fold (fun _ f acc -> if f.dirty && f.fix_count = 0 then f :: acc else acc) t.frames []
          |> List.sort (fun a b -> compare a.page.Page.pid b.page.Page.pid)
        in
        match dirty_unfixed with
        | [] -> ()
        | fs ->
            let f = List.nth fs (Rng.int rng (List.length fs)) in
            Stats.incr c_bufpool_stolen;
            write_frame t f
      end

let mark_dirty t page lsn =
  let f = frame_of t page in
  if not f.dirty then begin
    f.dirty <- true;
    f.rec_lsn <- lsn;
    f.chain <- [ lsn ]
  end
  else if (match f.chain with l :: _ -> Lsn.compare l lsn <> 0 | [] -> true) then
    f.chain <- lsn :: f.chain;
  steal_some t

let flush_page t pid =
  match Hashtbl.find_opt t.frames pid with
  | Some f when f.dirty -> write_frame t f
  | Some _ | None -> ()

(* Trickle path for the background page cleaner: write out up to
   [max_pages] dirty, unfixed frames, oldest recLSN first — the frames that
   pin the restart-redo horizon furthest back. Each write goes through
   [write_frame], so the WAL rule (force the log to the page's page_lsn
   first) holds and that force is synchronous — never batched or deferred
   through the group-commit queue. Frames stay resident; only their dirty
   bit is cleared. Returns the number of pages written. *)
let clean_some t ~max_pages =
  if max_pages <= 0 then 0
  else begin
    let dirty_unfixed =
      Hashtbl.fold
        (fun _ f acc -> if f.dirty && f.fix_count = 0 then f :: acc else acc)
        t.frames []
      |> List.sort (fun a b ->
             match Lsn.compare a.rec_lsn b.rec_lsn with
             | 0 -> compare a.page.Page.pid b.page.Page.pid
             | c -> c)
    in
    let written = ref 0 in
    List.iter
      (fun f ->
        if !written < max_pages && f.dirty && f.fix_count = 0 then begin
          write_frame t f;
          incr written
        end)
      dirty_unfixed;
    !written
  end

let flush_all t =
  Hashtbl.fold (fun pid f acc -> if f.dirty then (pid, f) :: acc else acc) t.frames []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, f) -> write_frame t f)

let drop t pid = Hashtbl.remove t.frames pid

let dirty_page_table t =
  let acc : (Ids.page_id, Lsn.t) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.iter (fun pid f -> if f.dirty then Hashtbl.replace acc pid f.rec_lsn) t.frames;
  (* overlay the instant-restart needs-redo set: a page mid-replay can be
     both frame-dirty (records applied so far) and still pending (suffix
     not yet applied) — the older recLSN is the one that must survive *)
  Hashtbl.iter
    (fun pid (rec_lsn, _) ->
      match Hashtbl.find_opt acc pid with
      | Some cur -> Hashtbl.replace acc pid (Lsn.min cur rec_lsn)
      | None -> Hashtbl.replace acc pid rec_lsn)
    t.restart_dpt;
  Hashtbl.fold (fun pid rec_lsn l -> (pid, rec_lsn) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let resident_pids t =
  Hashtbl.fold (fun pid _ acc -> pid :: acc) t.frames [] |> List.sort compare

let fixed_count t = Hashtbl.fold (fun _ f acc -> if f.fix_count > 0 then acc + 1 else acc) t.frames 0

let latched_count t =
  Hashtbl.fold
    (fun _ f acc -> acc + Aries_sched.Latch.holder_count f.page.Page.latch)
    t.frames 0

let crash t =
  Hashtbl.reset t.frames;
  Hashtbl.reset t.restart_dpt;
  t.redo_hook <- None

let set_steal_hook t ~seed ~probability =
  t.steal_rng <- Some (Rng.create seed);
  t.steal_probability <- probability

let clear_steal_hook t =
  t.steal_rng <- None;
  t.steal_probability <- 0.0

let set_repairer t f = t.repairer <- Some f

let set_redo_hook t f = t.redo_hook <- Some f

let clear_redo_hook t = t.redo_hook <- None

let set_restart_dpt t entries =
  Hashtbl.reset t.restart_dpt;
  List.iter (fun (pid, rec_lsn, chain) -> Hashtbl.replace t.restart_dpt pid (rec_lsn, chain)) entries

(* Per-page log chains for fuzzy checkpoints, oldest record first. A page
   both pending and frame-dirty (mid-replay) reports the pending chain: the
   frame's chain is the already-replayed prefix of it, and the suffix must
   survive into the checkpoint. *)
let dirty_page_chains t =
  let acc : (Ids.page_id, Lsn.t list) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.iter (fun pid f -> if f.dirty then Hashtbl.replace acc pid (List.rev f.chain)) t.frames;
  (* a restart-DPT page with no known chain (history fell back to a log
     scan) must stay absent: an empty chain would claim false completeness
     at a checkpoint taken mid-drain *)
  Hashtbl.iter
    (fun pid (_, chain) ->
      if chain = [] then Hashtbl.remove acc pid else Hashtbl.replace acc pid chain)
    t.restart_dpt;
  Hashtbl.fold (fun pid chain l -> (pid, chain) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let clear_restart_page t pid = Hashtbl.remove t.restart_dpt pid

(* Unlogged-mutation audit for [Db.leak_report]: a clean frame whose
   page has moved past the page_lsn it was installed or written back with
   changed without [mark_dirty] — its change would never reach the disk.
   Always 0 in a quiesced, healthy system. *)
let unlogged_mutations t =
  Hashtbl.fold
    (fun _ f acc ->
      if (not f.dirty) && Lsn.compare f.clean_lsn f.page.Page.page_lsn <> 0 then acc + 1 else acc)
    t.frames 0
