open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logmgr = Aries_wal.Logmgr
module Logset = Aries_wal.Logset
module Txnmgr = Aries_txn.Txnmgr
module Bufpool = Aries_buffer.Bufpool
module Disk = Aries_page.Disk
module Page = Aries_page.Page
module Trace = Aries_trace.Trace

let c_disk_retries = Stats.counter Stats.disk_retries
let c_redo_pages_examined = Stats.counter Stats.redo_pages_examined
let c_redos_applied = Stats.counter Stats.redos_applied
let c_disk_repairs = Stats.counter Stats.disk_repairs
let c_media_page_recoveries = Stats.counter "media.page_recoveries"

(* The log archive: reclaimed WAL segments, retained verbatim so media
   recovery can roll a fuzzy dump forward across a truncation. In a real
   system this is the tape/object-store the archiving daemon ships sealed
   segments to; here it is an in-memory table: per log stream (keyed by
   its index in the {!Logset}), a list of segments ordered oldest first.
   Each segment is a view ([Logmgr.archived]): of the arena truncation
   handed over, or of the snapshot the archive was loaded from. *)
module Archive = struct
  type t = { tbl : (int, Logmgr.archived list) Hashtbl.t (* stream -> oldest first *) }

  let create () = { tbl = Hashtbl.create 4 }

  let segments t ~stream = Option.value (Hashtbl.find_opt t.tbl stream) ~default:[]

  let attach t ~stream wal =
    Logmgr.set_archive_sink wal (fun a ->
        Hashtbl.replace t.tbl stream (segments t ~stream @ [ a ]))

  let attach_set t logs = Logset.iteri logs (fun stream wal -> attach t ~stream wal)

  let all t = Hashtbl.fold (fun _ segs acc -> acc @ segs) t.tbl []

  let segment_count t = List.length (all t)

  let bytes t = List.fold_left (fun acc a -> acc + a.Logmgr.arch_len) 0 (all t)

  let record_count t = List.fold_left (fun acc a -> acc + a.Logmgr.arch_records) 0 (all t)

  let end_offset ?(stream = 0) t =
    match List.rev (segments t ~stream) with
    | a :: _ -> a.Logmgr.arch_base + a.Logmgr.arch_len
    | [] -> 0

  (* Decode the framed records of one stream's archived segments with
     LSN >= [from] ([Lsn.nil] = all), in LSN order, in place. Frames are
     exactly as they were in the live log: [u32 len][payload][u32 crc] at
     absolute offset = LSN. *)
  let iter_records t ~stream ~from f =
    List.iter
      (fun (a : Logmgr.archived) ->
        if Lsn.is_nil from || a.Logmgr.arch_base + a.Logmgr.arch_len > from then
          Logmgr.iter_archived a ~from f)
      (segments t ~stream)

  (* One stream's full history from [from]: its archived segments first
     (they are strictly below the live log's start), then the live log. *)
  let iter_history t ~stream wal ~from f =
    iter_records t ~stream ~from f;
    Logmgr.iter_from wal (if Lsn.is_nil from then Lsn.nil else from) f

  (* One entry per stream index below the highest archived one, in index
     order, so the bytes depend on the archived state alone. Per entry:
     u32 segment count; per segment: i64 base, u32 records, u32-prefixed
     bytes, u32 CRC. *)
  let entries t =
    let n = Hashtbl.fold (fun stream _ acc -> max acc (stream + 1)) t.tbl 0 in
    List.init n (fun stream -> segments t ~stream)

  let serialized_bytes t =
    Hashtbl.fold
      (fun _ segs acc -> List.fold_left (fun acc a -> acc + 20 + a.Logmgr.arch_len) acc segs)
      t.tbl
      (4 + (4 * List.length (entries t)))

  let serialize_into w t =
    Bytebuf.W.list w
      (fun w segs ->
        Bytebuf.W.list w
          (fun w (a : Logmgr.archived) ->
            Bytebuf.W.i64 w a.Logmgr.arch_base;
            Bytebuf.W.u32 w a.Logmgr.arch_records;
            Bytebuf.W.u32 w a.Logmgr.arch_len;
            Bytebuf.W.raw_substring w a.Logmgr.arch_src a.Logmgr.arch_off a.Logmgr.arch_len;
            Bytebuf.W.u32 w a.Logmgr.arch_crc)
          segs)
      (entries t)

  let deserialize_from logs r =
    (* the base of the segment being parsed, [-1] before the first *)
    let last_base = ref (-1) in
    try
      let t = create () in
      let entries =
        Bytebuf.R.list r (fun r ->
            Bytebuf.R.list r (fun r ->
                let arch_base = Bytebuf.R.i64 r in
                last_base := arch_base;
                let arch_records = Bytebuf.R.u32 r in
                let arch_src, arch_off, arch_len = Bytebuf.R.view r in
                let arch_crc = Bytebuf.R.u32 r in
                if
                  Faultdisk.crc_checks_enabled ()
                  && Crc.update 0 arch_src arch_off arch_len <> arch_crc
                then
                  Storage_error.raise_err ~lsn:arch_base Storage_error.Checksum
                    "archived log segment footer CRC mismatch on load (base %d)" arch_base;
                { Logmgr.arch_base; arch_len; arch_src; arch_off; arch_records; arch_crc }))
      in
      Bytebuf.R.expect_end r;
      if List.length entries > Logset.n logs then
        raise
          (Bytebuf.Corrupt
             (Printf.sprintf "%d archived streams for %d log streams" (List.length entries)
                (Logset.n logs)));
      List.iteri (fun stream segs -> if segs <> [] then Hashtbl.replace t.tbl stream segs) entries;
      t
    with Bytebuf.Corrupt msg ->
      let lsn = if !last_base < 0 then None else Some !last_base in
      raise (Storage_error.of_corrupt ?lsn ("archive image: " ^ msg))
end

type dump = {
  dmp_disk : Disk.t;
  dmp_redo : Lsn.t array;  (* per stream *)
}

let take_dump mgr pool =
  let logs = Txnmgr.logs mgr in
  (* capture each stream's horizon *before* the checkpoint: any update the
     dump images might miss is either at/above the horizon (appended after
     the capture) or covered by a dirty page's recLSN below it *)
  let scan =
    Array.init (Logset.n logs) (fun i -> Logmgr.end_offset (Logset.stream logs i))
  in
  ignore (Checkpoint.take mgr pool);
  (* The checkpointed DPT bounds what the dump images might be missing:
     everything below a stream's minimum recLSN is on disk. Conservative
     and simple: replay each page from its own stream's redo point. *)
  let redo = scan in
  List.iter
    (fun (pid, rec_lsn) ->
      let s = Logset.route_page logs pid in
      redo.(s) <- Lsn.min redo.(s) rec_lsn)
    (Bufpool.dirty_page_table pool);
  { dmp_disk = Disk.image_copy (Bufpool.disk pool); dmp_redo = redo }

(* Bounded immediate retry for the direct disk I/O media recovery does
   itself (its page replays go through the buffer pool, which has its own
   retry-with-backoff). *)
let max_media_retries = 4

let retrying ~pid ~target f =
  let rec go attempt =
    try f () with
    | Storage_error.Error { cause = Storage_error.Io_transient; _ }
      when attempt < max_media_retries ->
        Stats.incr c_disk_retries;
        if Trace.enabled () then
          Trace.emit (Trace.Io_retry { target; pid; attempt = attempt + 1 });
        go (attempt + 1)
  in
  go 0

(* does this record carry a change that redo must repeat? *)
let redoable (r : Logrec.t) =
  match r.Logrec.kind with
  | Logrec.Update -> r.Logrec.redoable
  | Logrec.Clr -> r.Logrec.rm_id <> 0  (* dummy CLRs carry no change *)
  | Logrec.Commit | Logrec.Prepare | Logrec.Rollback | Logrec.End_txn | Logrec.Begin_ckpt
  | Logrec.End_ckpt | Logrec.Coord_commit | Logrec.Coord_abort | Logrec.Coord_end ->
      false

let page_history ?archive ~stream wal ~from pid =
  let acc = ref [] in
  let note (r : Logrec.t) = if r.Logrec.page = pid && redoable r then acc := r :: !acc in
  (match archive with
  | Some a -> Archive.iter_history a ~stream wal ~from note
  | None -> Logmgr.iter_from wal from note);
  List.rev !acc

(* The one redo of restart and media recovery. Strictly page-oriented: the
   record names its page, the page is fixed and its page_LSN decides — no
   index is traversed (experiment Q3 counts this). Within a stream LSN
   order equals (epoch, gsn) order, which rule R8(b) checks through the
   Redo_apply events. *)
let replay mgr pool pid records =
  let log = Logmgr.id (Logset.page_stream (Txnmgr.logs mgr) pid) in
  List.fold_left
    (fun (applied, skipped) (r : Logrec.t) ->
      Stats.incr c_redo_pages_examined;
      let apply () =
        if Trace.enabled () then
          Trace.emit (Trace.Redo_apply { log; pid; lsn = r.Logrec.lsn; gsn = r.Logrec.gsn });
        Txnmgr.rm_redo mgr r;
        Stats.incr c_redos_applied;
        (applied + 1, skipped)
      in
      match Bufpool.fix_opt pool pid with
      | Some p ->
          let counts =
            if Lsn.( < ) p.Page.page_lsn r.Logrec.lsn then apply () else (applied, skipped + 1)
          in
          Bufpool.unfix pool p;
          counts
      | None ->
          (* page never reached disk: the record must recreate it
             (format-type opcodes do; the RM asserts) *)
          apply ())
    (0, 0) records

let recover_page ?archive mgr pool dump pid =
  let logs = Txnmgr.logs mgr in
  (* all of the page's records live on its routed stream: the roll-forward
     reads that stream's history only, from that stream's dump redo point *)
  let s = Logset.route_page logs pid in
  let from = if Array.length dump.dmp_redo = 0 then Lsn.nil else dump.dmp_redo.(s) in
  let disk = Bufpool.disk pool in
  (* The repair window is delimited by the recovery itself (not only by the
     pool's quarantine-on-read): between these two events the page's redo
     history legitimately comes from the archive, so its recLSN may lie
     below the live log's start — the discipline checker suspends R6(b)
     for exactly this window (and restarts the page's R8(b) gsn watermark,
     since the replay legitimately begins at the page's oldest record). *)
  if Trace.enabled () then
    Trace.emit (Trace.Page_quarantined { pid; cause = "media-recover" });
  (* drop whatever damaged frame/image might linger *)
  Bufpool.drop pool pid;
  (* copy the archived image verbatim (after its decode validated the CRC)
     instead of re-encoding the decoded page — same bytes, half the codec
     work *)
  (match retrying ~pid ~target:"page-read" (fun () -> Disk.read_with_image dump.dmp_disk pid) with
  | Some (_, image) -> retrying ~pid ~target:"page-write" (fun () -> Disk.write_image disk pid image)
  | None -> Disk.free disk pid);
  (* Roll forward from the dump's redo point across the stream's full
     history: if segments below the live log's start were reclaimed since
     the dump was taken, the archive supplies them (the archive sink
     received every dropped segment before it vanished). *)
  let applied, _ =
    replay mgr pool pid (page_history ?archive ~stream:s (Logset.stream logs s) ~from pid)
  in
  (* the roll-forward dirtied the page in the pool; force it out so the
     repaired image is durable *)
  Bufpool.flush_page pool pid;
  Stats.incr c_media_page_recoveries;
  if Trace.enabled () then Trace.emit (Trace.Page_repaired { pid; records = applied });
  applied

(* Automatic media repair (PR 5): rebuild a page that failed its CRC on
   read, with no dump at all — the archive sink received every reclaimed
   segment, so archive + live log hold the full history from Lsn.nil and
   the page's format record recreates it from nothing.  Installed as the
   buffer pool's repairer hook by Db; also invoked directly by tests. *)
let auto_repair ?archive mgr pool pid =
  let empty_dump = { dmp_disk = Disk.create (); dmp_redo = [||] } in
  let applied = recover_page ?archive mgr pool empty_dump pid in
  Stats.incr c_disk_repairs;
  applied
