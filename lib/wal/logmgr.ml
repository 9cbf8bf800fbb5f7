open Aries_util
module Trace = Aries_trace.Trace

let c_log_records = Stats.counter Stats.log_records
let c_log_bytes = Stats.counter Stats.log_bytes
let c_log_seals = Stats.counter Stats.log_seals
let c_disk_eio_injected = Stats.counter Stats.disk_eio_injected
let c_disk_retries = Stats.counter Stats.disk_retries
let c_log_forces = Stats.counter Stats.log_forces
let c_log_tail_truncations = Stats.counter Stats.log_tail_truncations
let c_log_tail_truncated_bytes = Stats.counter Stats.log_tail_truncated_bytes
let c_log_truncations = Stats.counter Stats.log_truncations
let c_log_segments_reclaimed = Stats.counter Stats.log_segments_reclaimed
let c_log_bytes_reclaimed = Stats.counter Stats.log_bytes_reclaimed
let cp_wal_append = Crashpoint.point "wal.append"
let cp_wal_flush = Crashpoint.point "wal.flush"

(* Log address space: offset [first_offset] is the first record ever
   written; each record is framed as [u32 length][payload][u32 crc] (see
   Logrec.frame). The LSN of a record is the offset of its frame header,
   so LSNs are strictly monotonic and [Lsn.nil] (= 0) is below every
   record. The per-record CRC is what makes the restart {e tail scan}
   possible: instead of trusting the recorded stable boundary, recovery
   walks frames from the active segment's base and the log ends at the
   last record whose CRC verifies — a torn append or garbage tail is
   truncated (traced as [log.tail-truncated]), never decoded.

   The store is a chain of fixed-size *segments*, oldest first. A record is
   never split: appends go to the unique unsealed tail segment (the
   "active" one), and once that segment's length reaches the size budget it
   is sealed and a fresh segment opens at the current end offset — so every
   segment boundary is a record boundary, and a segment is addressed by the
   absolute offset of its first byte ([seg_base]). LSNs keep their global
   byte-offset meaning: a record at LSN [l] lives in the segment with
   [seg_base <= l < seg_base + length].

   Log-space reclamation ([truncate_prefix]) drops whole sealed,
   fully-stable segments below a caller-supplied safety offset, handing
   each to the archive sink (media recovery replays from the archive). The
   log's [start] is therefore always the base of the oldest retained
   segment; reads below it raise. *)
let first_offset = 8

let default_segment_size = 65536

type segment = {
  seg_base : int;  (* absolute offset of the segment's first byte *)
  seg_data : Bytebuf.W.t;
      (* an arena writer, not a [Buffer.t]: frame reads, CRC checks and the
         tail scan work zero-copy against the backing bytes instead of
         [Buffer.sub]-copying every header/payload out *)
  mutable seg_sealed : bool;
  mutable seg_records : int;
}

(* An archived segment is a view: its bytes are
   [arch_src.[arch_off, arch_off + arch_len)] — the arena truncation
   handed over, or the slice of a loaded snapshot — never a copy. *)
type archived = {
  arch_base : int;
  arch_len : int;
  arch_src : string;
  arch_off : int;
  arch_records : int;
  arch_crc : int;  (* sealed-segment footer: CRC32 of the segment's bytes *)
}

type t = {
  id : int;  (* distinguishes log instances for the protocol tracer *)
  segment_size : int;
  sealed : segment Vec.t;  (* oldest first, so ordered by base *)
  mutable active : segment;  (* the unique unsealed tail segment *)
  mutable flushed : int;  (* absolute offset; everything below is stable *)
  mutable last : Lsn.t;
  mutable last_stable : Lsn.t;  (* largest LSN known stable *)
  mutable master_lsn : Lsn.t;
  mutable count : int;
  mutable archive_sink : (archived -> unit) option;
}

let next_id = ref 0

let reset_ids () = next_id := 0

(* A segment's arena starts small and doubles as appends need, but never
   past the segment size, except for the record that crosses the seal
   boundary: the arena then grows exactly to that record's end (see
   [append]). So a sealed arena holds the segment's bytes and nothing
   beyond them. *)
let segment_of_arena base arena =
  { seg_base = base; seg_data = arena; seg_sealed = false; seg_records = 0 }

let fresh_segment ~segment_size base =
  segment_of_arena base (Bytebuf.W.create ~size:(min 64 segment_size) ())

(* A log over [sealed] and [active]: [create] and the snapshot loader
   build theirs this way, so a load builds no segment it throws away. *)
let make ~segment_size ~sealed ~active =
  incr next_id;
  {
    id = !next_id;
    segment_size;
    sealed;
    active;
    flushed = first_offset;
    last = Lsn.nil;
    last_stable = Lsn.nil;
    master_lsn = Lsn.nil;
    count = 0;
    archive_sink = None;
  }

let create ?(segment_size = default_segment_size) () =
  if segment_size < 64 then invalid_arg "Logmgr.create: segment_size must be >= 64";
  let t =
    make ~segment_size ~sealed:(Vec.create ())
      ~active:(fresh_segment ~segment_size first_offset)
  in
  (* Baseline the tracer's flushed boundary for this log instance; the
     discipline checker refuses to judge R4/R5 against a log it has no
     baseline for. *)
  if Trace.enabled () then Trace.emit (Trace.Log_open { log = t.id; flushed = t.flushed });
  t

let id t = t.id

let segment_size t = t.segment_size

let seg_len s = Bytebuf.W.length s.seg_data

let seg_end s = s.seg_base + seg_len s

(* Every retained segment, oldest first. *)
let fold_segments f acc t = f (Vec.fold f acc t.sealed) t.active

let segments t = List.rev (fold_segments (fun acc s -> s :: acc) [] t)

let start t = if Vec.is_empty t.sealed then t.active.seg_base else (Vec.get t.sealed 0).seg_base

let end_offset t = seg_end t.active

let start_lsn t = if end_offset t = start t then Lsn.nil else start t

let start_offset t = start t

let segment_count t = Vec.length t.sealed + 1

let segments_info t = List.map (fun s -> (s.seg_base, seg_len s, s.seg_sealed)) (segments t)

let first_segment_end t =
  if Vec.is_empty t.sealed then seg_end t.active else seg_end (Vec.get t.sealed 0)

let set_archive_sink t f = t.archive_sink <- Some f

(* Where [off] lies relative to a sealed segment, for the binary search. *)
let locate s off = if seg_end s <= off then -1 else if off < s.seg_base then 1 else 0

(* The segment holding offset [off]: the active one is checked first (most
   reads are recent), the sealed ones are binary-searched by base. *)
let find_segment t off =
  if off >= t.active.seg_base && off < seg_end t.active then t.active
  else
    match Vec.binary_search ~compare:locate t.sealed off with
    | Ok i -> Vec.get t.sealed i
    | Error _ ->
        invalid_arg
          (Printf.sprintf "Logmgr: offset %d out of range [%d,%d) (truncated or unwritten)" off
             (start t) (end_offset t))

let append_body t rec_ ~stream ~epoch ~gsn (enc : 'a Bytebuf.enc) (body : 'a) =
  Crashpoint.hit cp_wal_append;
  let lsn = end_offset t in
  (* Size the record first, then frame it straight into the segment
     arena: the length prefix, the header with its stamps, the body from
     its own writer, and the CRC trailer computed over the region just
     written. The record is not copied, nor its body built anywhere
     else. A negative field raises while sizing, before the segment is
     touched. Byte layout: [u32 len][payload][u32 crc32(payload)]. *)
  let n = Logrec.header_size rec_ ~stream ~epoch ~gsn + enc.Bytebuf.size body in
  let seg = t.active.seg_data in
  let need = Bytebuf.W.length seg + Logrec.frame_overhead + n in
  if need > Bytebuf.W.capacity seg then
    Bytebuf.W.reserve seg (max need (min t.segment_size (2 * Bytebuf.W.capacity seg)));
  let frame = Bytebuf.W.length seg in
  Bytebuf.W.u32 seg n;
  Logrec.write_header seg rec_ ~stream ~epoch ~gsn;
  enc.Bytebuf.write seg body;
  if Bytebuf.W.length seg <> frame + 4 + n then begin
    let wrote = Bytebuf.W.length seg - frame - 4 in
    Bytebuf.W.truncate seg frame;
    invalid_arg (Printf.sprintf "Logmgr.append: body wrote %d of %d payload bytes" wrote n)
  end;
  Bytebuf.W.u32 seg (Bytebuf.W.crc_from seg (frame + 4));
  t.active.seg_records <- t.active.seg_records + 1;
  t.last <- lsn;
  t.count <- t.count + 1;
  Stats.incr c_log_records;
  Stats.add c_log_bytes (Logrec.frame_overhead + n);
  if Trace.enabled () then
    Trace.emit
      (Trace.Log_append
         {
           log = t.id;
           lsn;
           next = end_offset t;
           kind = Logrec.kind_to_string rec_.Logrec.kind;
           txn = rec_.Logrec.txn;
         });
  (* Seal on reaching the size budget: the boundary lands on a record
     boundary by construction (records are never split). *)
  if seg_len t.active >= t.segment_size then begin
    let s = t.active in
    s.seg_sealed <- true;
    Vec.push t.sealed s;
    t.active <- fresh_segment ~segment_size:t.segment_size (seg_end s);
    Stats.incr c_log_seals;
    if Trace.enabled () then
      Trace.emit (Trace.Log_seal { log = t.id; base = s.seg_base; len = seg_len s })
  end;
  lsn

let append t r =
  append_body t r ~stream:r.Logrec.stream ~epoch:r.Logrec.epoch ~gsn:r.Logrec.gsn Bytebuf.raw_bytes
    r.Logrec.body

(* The single instrumented choke point every log force goes through —
   [flush], [flush_to], and hence the group-commit daemon and the WAL rule.
   [upto] is the absolute end offset to make stable; [stable_lsn] the LSN of
   the last record that offset covers. The per-segment stable boundary is
   derived: segment [s] is stable below [min (seg_end s) flushed].

   The [Wal_skip_flush] fault silently drops log forces: commits and
   the WAL rule stop being durable. It exists so the simulation harness can
   prove it detects a broken implementation (see Aries_sim.Shardsim). *)
let max_force_retries = 6

let force t ~upto ~stable_lsn =
  if upto > t.flushed && not (Crashpoint.active Crashpoint.Wal_skip_flush) then begin
    (* Bounded retry against injected transient I/O errors.  The retries
       are immediate and deterministic (the force is the synchronous
       choke point — there is nothing to yield to mid-force); exhaustion
       must RAISE, never silently succeed, so the commit path cannot ack
       a batch whose covering force failed. *)
    let attempt = ref 0 in
    while Faultdisk.fail_force () do
      incr attempt;
      Stats.incr c_disk_eio_injected;
      if !attempt > max_force_retries then
        Storage_error.raise_err ~lsn:stable_lsn Storage_error.Retry_exhausted
          "log force to offset %d failed after %d transient I/O errors" upto !attempt;
      Stats.incr c_disk_retries;
      if Trace.enabled () then
        Trace.emit (Trace.Io_retry { target = "log-force"; pid = 0; attempt = !attempt })
    done;
    Crashpoint.hit cp_wal_flush;
    t.flushed <- upto;
    t.last_stable <- stable_lsn;
    Stats.incr c_log_forces;
    if Trace.enabled () then Trace.emit (Trace.Log_force { log = t.id; upto; stable_lsn })
  end

let flush t = force t ~upto:(end_offset t) ~stable_lsn:t.last

let frame_len t off =
  let s = find_segment t off in
  Bytebuf.W.get_u32 s.seg_data (off - s.seg_base)

let get_u32 src off = Int32.to_int (String.get_int32_le src off) land 0xFFFFFFFF

(* The one frame reader, for the live log and the archive alike, in place
   over segment bytes [src] that end at [lim]: [frame_payload] is the
   payload length of the frame at [off] (the record at [lsn]), checked to
   fit the segment; [decode_frame] decodes that payload. [verify] checks
   the frame's CRC trailer (the live log does; an archived segment's
   footer CRC covers all of its frames). *)
let frame_payload src ~off ~lim ~lsn =
  let len = if off + 4 <= lim then get_u32 src off else -1 in
  if len < 0 || len > lim - off - Logrec.frame_overhead then
    Storage_error.raise_err ~lsn Storage_error.Decode "log frame overruns its segment (%d of %dB)"
      len (lim - off);
  len

let decode_frame ~decode ~verify src ~off ~len ~lsn =
  if verify && Crc.update 0 src (off + 4) len <> get_u32 src (off + 4 + len) then
    Storage_error.raise_err ~lsn Storage_error.Checksum "log record frame CRC mismatch (%dB payload)"
      len;
  try decode ~lsn (Bytebuf.R.of_substring src ~off:(off + 4) ~len)
  with Bytebuf.Corrupt msg -> raise (Storage_error.of_corrupt ~lsn ("log record: " ^ msg))

(* The live frame at [lsn] in segment [s]: its payload length, then its
   record. A scan steps to the next frame by the length, with no lookup. *)
let payload_in s lsn =
  frame_payload (Bytebuf.W.unsafe_view s.seg_data) ~off:(lsn - s.seg_base) ~lim:(seg_len s) ~lsn

let decode_in ~decode s lsn ~len =
  decode_frame ~decode ~verify:(Faultdisk.crc_checks_enabled ()) (Bytebuf.W.unsafe_view s.seg_data)
    ~off:(lsn - s.seg_base) ~len ~lsn

let read_with ~decode t lsn =
  if lsn < start t || lsn >= end_offset t then
    invalid_arg
      (Printf.sprintf "Logmgr.read: LSN %d out of range [%d,%d) (truncated or unwritten)" lsn
         (start t) (end_offset t));
  let s = find_segment t lsn in
  decode_in ~decode s lsn ~len:(payload_in s lsn)

let read t lsn = read_with ~decode:Logrec.decode_from t lsn

let read_stamps t lsn = read_with ~decode:Logrec.decode_stamps t lsn

(* Decode an archived segment's records with LSN >= [from] ([Lsn.nil] =
   all) in place. The footer CRC is verified first, so a rotted archived
   segment fails loudly and typed before any frame is read. *)
let iter_archived a ~from f =
  if
    Faultdisk.crc_checks_enabled ()
    && Crc.update 0 a.arch_src a.arch_off a.arch_len <> a.arch_crc
  then
    Storage_error.raise_err ~lsn:a.arch_base Storage_error.Checksum
      "archived log segment CRC mismatch (base %d, %dB)" a.arch_base a.arch_len;
  let lim = a.arch_off + a.arch_len in
  let rec walk off =
    if off < lim then begin
      let lsn = a.arch_base + (off - a.arch_off) in
      let len = frame_payload a.arch_src ~off ~lim ~lsn in
      if Lsn.is_nil from || lsn >= from then
        f (decode_frame ~decode:Logrec.decode_from ~verify:false a.arch_src ~off ~len ~lsn);
      walk (off + Logrec.frame_overhead + len)
    end
  in
  walk a.arch_off

let record_end t lsn =
  (* A record below the log start was reclaimed by truncation, and
     truncation never passes the flushed boundary — so any boundary
     >= start covers it. Clamping (instead of probing the reclaimed
     segment and failing) keeps pageLSN-driven callers sound when a
     page's last update is archived: media repair flushes a rebuilt page
     whose roll-forward ended on an archived record. *)
  if lsn < start t then start t else lsn + Logrec.frame_overhead + frame_len t lsn

let flush_to t lsn =
  if Lsn.is_nil lsn || lsn < start t then ()
  else force t ~upto:(record_end t lsn) ~stable_lsn:lsn

let flushed_lsn t = t.last_stable

let flushed_offset t = t.flushed

let last_lsn t = t.last

let is_stable t lsn = (not (Lsn.is_nil lsn)) && record_end t lsn <= t.flushed

let next_lsn t lsn =
  let e = record_end t lsn in
  if e < end_offset t then Some e else None

(* One segment lookup per segment, then frame by frame inside it. The
   segment's end is re-read at every step, so records [f] appends are
   scanned too, as they always were. *)
let iter_from t lsn f =
  let rec from_segment off =
    if off < end_offset t then begin
      let s = find_segment t off in
      let rec frames off =
        if off < seg_end s then begin
          let len = payload_in s off in
          f (decode_in ~decode:Logrec.decode_from s off ~len);
          frames (off + Logrec.frame_overhead + len)
        end
        else off
      in
      from_segment (frames off)
    end
  in
  from_segment (if Lsn.is_nil lsn then start t else max lsn (start t))

let set_master t lsn = t.master_lsn <- lsn

let master t = t.master_lsn

(* Walk the frames of segment [s] from its base without decoding one:
   [(records, last LSN, valid end)], where the walk stops at the first
   frame that is cut short or, with [crc], fails its CRC. A partial frame
   (torn append) fails the length checks even with CRC verification
   disabled; bit-rot inside a complete frame is what the CRC catches. *)
let scan_frames s ~crc =
  let src = Bytebuf.W.unsafe_view s.seg_data and lim = seg_len s in
  let rec go rel n last =
    let len = if rel + 4 <= lim then get_u32 src rel else 0 in
    if
      len >= 1
      && len <= lim - rel - Logrec.frame_overhead
      && ((not crc) || Crc.update 0 src (rel + 4) len = get_u32 src (rel + 4 + len))
    then go (rel + Logrec.frame_overhead + len) (n + 1) (s.seg_base + rel)
    else (n, last, rel)
  in
  go 0 0 Lsn.nil

(* After a crash or a load: one frame walk over every retained segment
   sets each segment's record count, the total and the last LSN, and is
   the CRC-guarded tail scan of the active (unsealed) segment — the log
   ends at the last record whose frame verifies; anything after, a torn
   append or garbage the medium kept past the flushed boundary, is
   truncated with a traced [log.tail-truncated] event. This is how ARIES
   finds the end of log at restart; the recorded boundary is only a
   hint. Sealed segments are walked by length alone: they are whole (a
   loaded one passed its footer CRC). Nothing is decoded. *)
let rescan t =
  let count = ref 0 and last = ref Lsn.nil in
  let walk s ~crc =
    let n, l, valid = scan_frames s ~crc in
    s.seg_records <- n;
    count := !count + n;
    if n > 0 then last := l;
    valid
  in
  Vec.iter (fun s -> ignore (walk s ~crc:false)) t.sealed;
  let s = t.active in
  let valid = walk s ~crc:(Faultdisk.crc_checks_enabled ()) in
  if valid < seg_len s then begin
    let cut = seg_len s - valid in
    Bytebuf.W.truncate s.seg_data valid;
    Stats.incr c_log_tail_truncations;
    Stats.add c_log_tail_truncated_bytes cut;
    if Trace.enabled () then
      Trace.emit (Trace.Log_tail_truncated { log = t.id; at = seg_end s; bytes = cut })
  end;
  t.count <- !count;
  t.last <- !last;
  t.flushed <- end_offset t;
  t.last_stable <- t.last;
  (* re-baseline the tracer: the scan's verdict is the new stable boundary
     (the discipline checker judges R4/R5 against this, not against forces
     it saw before the crash or load) *)
  if Trace.enabled () then Trace.emit (Trace.Log_open { log = t.id; flushed = t.flushed })

(* The full unflushed suffix — every byte above the stable boundary,
   concatenated across the straddling segment and any in-memory-sealed
   segments after it. Offsets stay meaningful because consecutive segment
   bases are contiguous. *)
let unflushed_suffix t =
  if t.flushed >= end_offset t then ""
  else
    let b = Buffer.create 256 in
    List.iter
      (fun s ->
        if seg_end s > t.flushed then begin
          let from = max 0 (t.flushed - s.seg_base) in
          Buffer.add_string b (Bytebuf.W.sub_string s.seg_data from (seg_len s - from))
        end)
      (segments t);
    Buffer.contents b

(* Number of complete frames at the head of [suffix] and the byte length of
   the first [k] of them. *)
let count_frames suffix =
  let n = String.length suffix in
  let rec go off acc =
    if off + 4 > n then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_le suffix off) land 0xFFFFFFFF in
      let total = Logrec.frame_overhead + len in
      if len < 1 || off + total > n then List.rev acc else go (off + total) ((off + total) :: acc)
  in
  go 0 []

(* Make [segs] (oldest first, non-empty) the retained segments: the last
   becomes active unless it is sealed, in which case a fresh segment opens
   at its end. *)
let install t segs =
  Vec.clear t.sealed;
  let rec go = function
    | [ last ] ->
        if last.seg_sealed then begin
          Vec.push t.sealed last;
          t.active <- fresh_segment ~segment_size:t.segment_size (seg_end last)
        end
        else t.active <- last
    | s :: rest ->
        Vec.push t.sealed s;
        go rest
    | [] -> invalid_arg "Logmgr: no segment to install"
  in
  go segs

let crash ?(retain = fun _ -> 0) t =
  (* Two ways the medium can keep in-flight tail bytes past the recorded
     stable boundary, both legal (written but never acked):

     - [retain]: the per-stream flush-order shuffle. The crash may have
       persisted some number of {e complete} frames beyond the boundary —
       on one stream everything, on another nothing — which is exactly the
       cross-stream adversary the epoch fence must survive. [retain] maps
       the number of complete unflushed frames to how many survive.

     - the torn-append fault: a prefix of the {e next} record's bytes
       lands, leaving a torn frame the tail scan must cut. *)
  let suffix = unflushed_suffix t in
  let frame_ends = count_frames suffix in
  let kept_frames = min (max 0 (retain (List.length frame_ends))) (List.length frame_ends) in
  let kept_len = if kept_frames = 0 then 0 else List.nth frame_ends (kept_frames - 1) in
  let torn_tail =
    if kept_frames > 0 || (Faultdisk.torn_append_on () && t.flushed < end_offset t) then begin
      let s = find_segment t t.flushed in
      let avail = seg_end s - t.flushed in
      (* torn remainder: the historical capture window (half the straddling
         segment's unflushed bytes) past whatever complete frames survive *)
      let torn =
        if Faultdisk.torn_append_on () && avail > kept_len then max 1 ((avail - kept_len) / 2)
        else 0
      in
      let keep = min (kept_len + torn) (String.length suffix) in
      if keep = 0 then None else Some (String.sub suffix 0 keep)
    end
    else None
  in
  (* Stable state per segment: drop segments entirely above the flushed
     boundary, trim the one straddling it (which re-opens as the active
     segment — its tail was never sealed durably), keep the rest intact. *)
  let kept = List.filter (fun s -> s.seg_base < t.flushed) (segments t) in
  List.iter
    (fun s ->
      if seg_end s > t.flushed then begin
        Bytebuf.W.truncate s.seg_data (t.flushed - s.seg_base);
        s.seg_sealed <- false
      end)
    kept;
  (* flushed = start: nothing stable *)
  install t (if kept = [] then [ fresh_segment ~segment_size:t.segment_size t.flushed ] else kept);
  (* the active segment now ends exactly at the old flushed boundary; the
     torn suffix (if the fault kept one) lands right after it *)
  (match torn_tail with Some bytes -> Bytebuf.W.raw_string t.active.seg_data bytes | None -> ());
  (* find the true end of log: the scan, not the recorded boundary, is
     authoritative — it cuts the torn suffix back to the last verifiable
     record (which may lie beyond the recorded boundary if complete
     records survived unforced) *)
  rescan t

let record_count t = t.count

let size_bytes t = fold_segments (fun acc s -> acc + seg_len s) 0 t

(* Reclamation: drop whole sealed, fully-stable segments whose end offset
   is <= [upto] (the caller's safety point — see Ckptd.safety_point and
   rule R6). Each dropped segment is handed to the archive sink first, so
   media recovery can still roll forward from a fuzzy dump taken before
   the truncation. Returns the number of bytes reclaimed. *)
let truncate_prefix t ~upto =
  if upto > t.flushed then
    invalid_arg "Logmgr.truncate_prefix: cannot truncate into the volatile tail";
  let dropped_bytes = ref 0 and dropped_segs = ref 0 in
  let droppable i =
    i < Vec.length t.sealed
    &&
    let s = Vec.get t.sealed i in
    s.seg_sealed && seg_end s <= upto && seg_end s <= t.flushed
  in
  while droppable !dropped_segs do
    let s = Vec.get t.sealed !dropped_segs in
    (* The segment's arena goes to the archive as is: the segment leaves
       [t.sealed] below, so nothing writes that arena again, and a sealed
       arena holds the segment's bytes and nothing beyond (see
       [fresh_segment]). *)
    let src = Bytebuf.W.unsafe_view s.seg_data in
    let arch =
      {
        arch_base = s.seg_base;
        arch_len = seg_len s;
        arch_src = src;
        arch_off = 0;
        arch_records = s.seg_records;
        arch_crc = Crc.update 0 src 0 (seg_len s);
      }
    in
    (match t.archive_sink with Some f -> f arch | None -> ());
    if Trace.enabled () then
      Trace.emit
        (Trace.Log_archive
           { log = t.id; base = arch.arch_base; len = arch.arch_len; records = arch.arch_records });
    dropped_bytes := !dropped_bytes + arch.arch_len;
    incr dropped_segs;
    t.count <- t.count - s.seg_records
  done;
  if !dropped_segs > 0 then begin
    Vec.drop_front t.sealed !dropped_segs;
    Stats.incr c_log_truncations;
    Stats.add c_log_segments_reclaimed !dropped_segs;
    Stats.add c_log_bytes_reclaimed !dropped_bytes;
    if Trace.enabled () then
      Trace.emit
        (Trace.Log_truncate
           { log = t.id; new_start = start t; bytes = !dropped_bytes; segments = !dropped_segs })
  end;
  !dropped_bytes

(* The image holds the stable state only: each segment's stable prefix,
   recorded as sealed only if its full extent is stable (a
   sealed-in-memory tail whose seal never reached disk re-opens on
   recovery). *)
let stable_segments t = List.filter (fun s -> s.seg_base < t.flushed) (segments t)

let stable_len t s = min (seg_len s) (t.flushed - s.seg_base)

(* header: four i64 and the u32 segment count; per segment: i64 base,
   bool sealed, u32-prefixed bytes, u32 CRC *)
let serialized_bytes t =
  List.fold_left (fun acc s -> acc + 17 + stable_len t s) 36 (stable_segments t)

let serialize_into w t =
  Bytebuf.W.i64 w t.master_lsn;
  Bytebuf.W.i64 w t.last_stable;
  Bytebuf.W.i64 w t.segment_size;
  Bytebuf.W.i64 w (start t);
  Bytebuf.W.list w
    (fun w s ->
      let src = Bytebuf.W.unsafe_view s.seg_data and len = stable_len t s in
      Bytebuf.W.i64 w s.seg_base;
      Bytebuf.W.bool w (s.seg_sealed && seg_end s <= t.flushed);
      Bytebuf.W.u32 w len;
      Bytebuf.W.raw_substring w src 0 len;
      (* per-segment footer: CRC32 of the stable prefix, so a rotted or
         short save file is detected on load instead of mis-decoding *)
      Bytebuf.W.u32 w (Crc.update 0 src 0 len))
    (stable_segments t)

let serialize t =
  let w = Bytebuf.W.create ~size:(serialized_bytes t) () in
  serialize_into w t;
  Bytebuf.W.contents w

let deserialize_from r =
  (* the base of the segment being parsed, [-1] before the first: an
     [int ref], so the parse allocates no option per segment *)
  let last_base = ref (-1) in
  let master_lsn, segment_size, log_start, segs =
    try
      let master_lsn = Bytebuf.R.i64 r in
      let _last_stable = Bytebuf.R.i64 r in
      let segment_size = Bytebuf.R.i64 r in
      if segment_size < 64 then
        raise (Bytebuf.Corrupt (Printf.sprintf "segment size %d below 64" segment_size));
      let log_start = Bytebuf.R.i64 r in
      let segs =
        Bytebuf.R.list r (fun r ->
            let base = Bytebuf.R.i64 r in
            last_base := base;
            let sealed = Bytebuf.R.bool r in
            let src, off, len = Bytebuf.R.view r in
            let stored = Bytebuf.R.u32 r in
            if Faultdisk.crc_checks_enabled () && Crc.update 0 src off len <> stored then
              Storage_error.raise_err ~lsn:base Storage_error.Checksum
                "log segment footer CRC mismatch (base %d, %dB)" base len;
            (* copied into the segment's own arena, sized to its bytes:
               the live log appends to it *)
            let s = segment_of_arena base (Bytebuf.W.create ~size:len ()) in
            Bytebuf.W.raw_substring s.seg_data src off len;
            s.seg_sealed <- sealed;
            s)
      in
      Bytebuf.R.expect_end r;
      (master_lsn, segment_size, log_start, segs)
    with Bytebuf.Corrupt msg ->
      let lsn = if !last_base < 0 then None else Some !last_base in
      raise (Storage_error.of_corrupt ?lsn ("log image: " ^ msg))
  in
  let t =
    make ~segment_size ~sealed:(Vec.create ())
      ~active:(match segs with [] -> fresh_segment ~segment_size log_start | s :: _ -> s)
  in
  if segs <> [] then install t segs;
  t.master_lsn <- master_lsn;
  (* the crash path's walk: the loaded active segment's suffix must verify
     record by record. Re-opening the log is what a load models, so the
     surviving stable prefix is the tracer's flushed boundary. *)
  rescan t;
  t

let deserialize b = deserialize_from (Bytebuf.R.of_bytes b)

let records_between t lo hi =
  let acc = ref [] in
  let lo = if Lsn.is_nil lo then start t else max lo (start t) in
  iter_from t lo (fun r -> if Lsn.is_nil hi || r.Logrec.lsn <= hi then acc := r :: !acc);
  List.rev !acc
