open Aries_util
module Trace = Aries_trace.Trace

let c_wal_encode_arena_reuses = Stats.counter Stats.wal_encode_arena_reuses
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

type archived = {
  arch_base : int;
  arch_len : int;
  arch_data : string;
  arch_records : int;
  arch_crc : int;  (* sealed-segment footer: CRC32 of [arch_data] *)
}

type t = {
  id : int;  (* distinguishes log instances for the protocol tracer *)
  segment_size : int;
  mutable sealed : segment list;  (* oldest first *)
  mutable active : segment;  (* the unique unsealed tail segment *)
  mutable flushed : int;  (* absolute offset; everything below is stable *)
  mutable last : Lsn.t;
  mutable last_stable : Lsn.t;  (* largest LSN known stable *)
  mutable master_lsn : Lsn.t;
  mutable count : int;
  mutable archive_sink : (archived -> unit) option;
  enc : Bytebuf.W.t;
      (* per-log record-encode arena, reused across appends — the append
         hot path allocates nothing per record *)
}

let next_id = ref 0

let reset_ids () = next_id := 0

let fresh_segment base =
  { seg_base = base; seg_data = Bytebuf.W.create ~size:1024 (); seg_sealed = false; seg_records = 0 }

let create ?(segment_size = default_segment_size) () =
  if segment_size < 64 then invalid_arg "Logmgr.create: segment_size must be >= 64";
  incr next_id;
  let t =
    {
      id = !next_id;
      segment_size;
      sealed = [];
      active = fresh_segment first_offset;
      flushed = first_offset;
      last = Lsn.nil;
      last_stable = Lsn.nil;
      master_lsn = Lsn.nil;
      count = 0;
      archive_sink = None;
      enc = Bytebuf.W.create ~size:256 ();
    }
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

let all_segments t = t.sealed @ [ t.active ]

let start t = match t.sealed with s :: _ -> s.seg_base | [] -> t.active.seg_base

let end_offset t = seg_end t.active

let start_lsn t = if end_offset t = start t then Lsn.nil else start t

let start_offset t = start t

let segment_count t = List.length t.sealed + 1

let segments_info t = List.map (fun s -> (s.seg_base, seg_len s, s.seg_sealed)) (all_segments t)

let first_segment_end t = match t.sealed with s :: _ -> seg_end s | [] -> seg_end t.active

let set_archive_sink t f = t.archive_sink <- Some f

let find_segment t off =
  let rec go = function
    | [] ->
        if off >= t.active.seg_base && off < seg_end t.active then t.active
        else
          invalid_arg
            (Printf.sprintf "Logmgr: offset %d out of range [%d,%d) (truncated or unwritten)" off
               (start t) (end_offset t))
    | s :: rest -> if off >= s.seg_base && off < seg_end s then s else go rest
  in
  go t.sealed

let append t rec_ =
  Crashpoint.hit cp_wal_append;
  let lsn = end_offset t in
  (* Encode into the per-log arena (reused across appends; reuse without
     regrowth is counted), then frame straight into the segment arena:
     the length prefix, one blit of the payload with its CRC computed
     over the freshly written bytes in the same region, and the CRC
     trailer — no intermediate payload or frame buffer. Byte layout is
     unchanged: [u32 len][payload][u32 crc32(payload)]. *)
  let cap0 = Bytebuf.W.capacity t.enc in
  Logrec.encode_into t.enc { rec_ with lsn };
  if Bytebuf.W.capacity t.enc = cap0 then Stats.incr c_wal_encode_arena_reuses;
  let n = Bytebuf.W.length t.enc in
  let seg = t.active.seg_data in
  Bytebuf.W.u32 seg n;
  let crc = Bytebuf.W.append_with_crc seg t.enc in
  Bytebuf.W.u32 seg crc;
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
    t.sealed <- t.sealed @ [ s ];
    t.active <- fresh_segment (seg_end s);
    Stats.incr c_log_seals;
    if Trace.enabled () then
      Trace.emit (Trace.Log_seal { log = t.id; base = s.seg_base; len = seg_len s })
  end;
  lsn

(* The single instrumented choke point every log force goes through —
   [flush], [flush_to], and hence the group-commit daemon and the WAL rule.
   [upto] is the absolute end offset to make stable; [stable_lsn] the LSN of
   the last record that offset covers. The per-segment stable boundary is
   derived: segment [s] is stable below [min (seg_end s) flushed].

   The [Wal_skip_flush] fault silently drops log forces: commits and
   the WAL rule stop being durable. It exists so the simulation harness can
   prove it detects a broken implementation (see Aries_sim.Sim). *)
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

let read t lsn =
  if lsn < start t || lsn >= end_offset t then
    invalid_arg
      (Printf.sprintf "Logmgr.read: LSN %d out of range [%d,%d) (truncated or unwritten)" lsn
         (start t) (end_offset t));
  let s = find_segment t lsn in
  let len = frame_len t lsn in
  let rel = lsn - s.seg_base in
  (if Faultdisk.crc_checks_enabled () then begin
     (* CRC the payload in place over the segment arena — the old path
        [Buffer.sub]-copied the payload (and the trailer) out first *)
     let stored = Bytebuf.W.get_u32 s.seg_data (rel + 4 + len) in
     if Crc.update 0 (Bytebuf.W.unsafe_view s.seg_data) (rel + 4) len <> stored then
       Storage_error.raise_err ~lsn Storage_error.Checksum
         "log record frame CRC mismatch (%dB payload)" len
   end);
  let r = Bytebuf.R.of_substring (Bytebuf.W.unsafe_view s.seg_data) ~off:(rel + 4) ~len in
  try Logrec.decode_from ~lsn r
  with Bytebuf.Corrupt msg -> raise (Storage_error.of_corrupt ~lsn ("log record: " ^ msg))

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

let iter_from t lsn f =
  let from = if Lsn.is_nil lsn then start t else max lsn (start t) in
  let rec loop off =
    if off < end_offset t then begin
      f (read t off);
      loop (record_end t off)
    end
  in
  loop from

let set_master t lsn = t.master_lsn <- lsn

let master t = t.master_lsn

let recount t =
  let n = ref 0 in
  iter_from t Lsn.nil (fun _ -> incr n);
  t.count <- !n

(* Structural + CRC validity of the frame at absolute offset [off] in
   segment [s]. Used by the restart tail scan: a partial frame (torn
   append) fails the length checks even with CRC verification disabled;
   bit-rot inside a complete frame is what the CRC catches. *)
let frame_ok s off =
  let rel = off - s.seg_base in
  let avail = seg_len s - rel in
  if avail < 4 then false
  else
    let len = Bytebuf.W.get_u32 s.seg_data rel in
    if len < 1 || avail < Logrec.frame_overhead + len then false
    else if Faultdisk.crc_checks_enabled () then
      Crc.update 0 (Bytebuf.W.unsafe_view s.seg_data) (rel + 4) len
      = Bytebuf.W.get_u32 s.seg_data (rel + 4 + len)
    else true

(* CRC-guarded tail scan over the active (unsealed) segment: the log ends
   at the last record whose frame verifies; anything after — a torn
   append, garbage the medium kept past the flushed boundary — is
   truncated with a traced [log.tail-truncated] event. This is how ARIES
   finds the end of log at restart; the recorded boundary is only a
   hint. *)
let tail_scan t =
  let s = t.active in
  let rec go off = if off < seg_end s && frame_ok s off then go (record_end t off) else off in
  let valid_end = go s.seg_base in
  if valid_end < seg_end s then begin
    let cut = seg_end s - valid_end in
    Bytebuf.W.truncate s.seg_data (valid_end - s.seg_base);
    Stats.incr c_log_tail_truncations;
    Stats.add c_log_tail_truncated_bytes cut;
    if Trace.enabled () then
      Trace.emit (Trace.Log_tail_truncated { log = t.id; at = valid_end; bytes = cut })
  end

(* LSN of the last record, recomputed by walking frames (used after a
   crash/load, when the recorded value cannot be trusted past a tail
   truncation). *)
let compute_last t =
  let last = ref Lsn.nil in
  List.iter
    (fun s ->
      let rec loop off =
        if off < seg_end s then begin
          last := off;
          loop (record_end t off)
        end
      in
      loop s.seg_base)
    (all_segments t);
  !last

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
      (all_segments t);
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
  let kept = List.filter (fun s -> s.seg_base < t.flushed) (all_segments t) in
  let kept =
    match kept with
    | [] -> [ fresh_segment t.flushed ]  (* flushed = start: nothing stable *)
    | _ ->
        List.iter
          (fun s ->
            if seg_end s > t.flushed then begin
              Bytebuf.W.truncate s.seg_data (t.flushed - s.seg_base);
              s.seg_sealed <- false
            end)
          kept;
        kept
  in
  (* the last kept segment becomes active unless it survived sealed and
     full, in which case a fresh segment opens at the flushed boundary *)
  let rec split acc = function
    | [ last ] -> (List.rev acc, last)
    | x :: rest -> split (x :: acc) rest
    | [] -> assert false
  in
  let sealed, tail = split [] kept in
  if tail.seg_sealed then begin
    t.sealed <- sealed @ [ tail ];
    t.active <- fresh_segment (seg_end tail)
  end
  else begin
    t.sealed <- sealed;
    t.active <- tail
  end;
  (* the active segment now ends exactly at the old flushed boundary; the
     torn suffix (if the fault kept one) lands right after it *)
  (match torn_tail with Some bytes -> Bytebuf.W.raw_string t.active.seg_data bytes | None -> ());
  (* find the true end of log: the scan, not the recorded boundary, is
     authoritative — it cuts the torn suffix back to the last verifiable
     record (which may lie beyond the recorded boundary if complete
     records survived unforced) *)
  tail_scan t;
  t.flushed <- end_offset t;
  t.last <- compute_last t;
  t.last_stable <- t.last;
  (* per-segment record counts in the surviving prefix *)
  List.iter
    (fun s ->
      let n = ref 0 in
      let rec loop off = if off < seg_end s then begin incr n; loop (record_end t off) end in
      loop s.seg_base;
      s.seg_records <- !n)
    (all_segments t);
  recount t;
  (* re-baseline the tracer: the scan's verdict is the new stable boundary
     (the discipline checker judges R4/R5 against this, not against forces
     it saw before the crash) *)
  if Trace.enabled () then Trace.emit (Trace.Log_open { log = t.id; flushed = t.flushed })

let record_count t = t.count

let size_bytes t = List.fold_left (fun acc s -> acc + seg_len s) 0 (all_segments t)

(* Reclamation: drop whole sealed, fully-stable segments whose end offset
   is <= [upto] (the caller's safety point — see Ckptd.safety_point and
   rule R6). Each dropped segment is handed to the archive sink first, so
   media recovery can still roll forward from a fuzzy dump taken before
   the truncation. Returns the number of bytes reclaimed. *)
let truncate_prefix t ~upto =
  if upto > t.flushed then
    invalid_arg "Logmgr.truncate_prefix: cannot truncate into the volatile tail";
  let dropped_bytes = ref 0 and dropped_segs = ref 0 in
  let rec go = function
    | s :: rest when s.seg_sealed && seg_end s <= upto && seg_end s <= t.flushed ->
        let data = Bytebuf.W.sub_string s.seg_data 0 (seg_len s) in
        let arch =
          {
            arch_base = s.seg_base;
            arch_len = seg_len s;
            arch_data = data;
            arch_records = s.seg_records;
            arch_crc = Crc.string data;
          }
        in
        (match t.archive_sink with Some f -> f arch | None -> ());
        if Trace.enabled () then
          Trace.emit
            (Trace.Log_archive
               { log = t.id; base = arch.arch_base; len = arch.arch_len; records = arch.arch_records });
        dropped_bytes := !dropped_bytes + arch.arch_len;
        incr dropped_segs;
        t.count <- t.count - s.seg_records;
        go rest
    | rest -> rest
  in
  t.sealed <- go t.sealed;
  if !dropped_segs > 0 then begin
    Stats.incr c_log_truncations;
    Stats.add c_log_segments_reclaimed !dropped_segs;
    Stats.add c_log_bytes_reclaimed !dropped_bytes;
    if Trace.enabled () then
      Trace.emit
        (Trace.Log_truncate
           { log = t.id; new_start = start t; bytes = !dropped_bytes; segments = !dropped_segs })
  end;
  !dropped_bytes

let serialize t =
  (* size hint: header + per-segment overhead + the stable bytes *)
  let w = Bytebuf.W.create ~size:(64 + size_bytes t + (32 * segment_count t)) () in
  Bytebuf.W.i64 w t.master_lsn;
  Bytebuf.W.i64 w t.last_stable;
  Bytebuf.W.i64 w t.segment_size;
  Bytebuf.W.i64 w (start t);
  (* stable state only: each segment's stable prefix; a segment is recorded
     as sealed only if its full extent is stable (a sealed-in-memory tail
     whose seal never reached disk re-opens on recovery) *)
  let stable_segs = List.filter (fun s -> s.seg_base < t.flushed) (all_segments t) in
  Bytebuf.W.list w
    (fun w s ->
      Bytebuf.W.i64 w s.seg_base;
      Bytebuf.W.bool w (s.seg_sealed && seg_end s <= t.flushed);
      let data = Bytebuf.W.sub_string s.seg_data 0 (min (seg_len s) (t.flushed - s.seg_base)) in
      Bytebuf.W.string w data;
      (* per-segment footer: CRC32 of the stable prefix, so a rotted or
         short save file is detected on load instead of mis-decoding *)
      Bytebuf.W.u32 w (Crc.string data))
    stable_segs;
  Bytebuf.W.contents w

let deserialize b =
  let last_base = ref None in
  let master_lsn, last_stable, segment_size, log_start, segs =
    try
      let r = Bytebuf.R.of_bytes b in
      let master_lsn = Bytebuf.R.i64 r in
      let last_stable = Bytebuf.R.i64 r in
      let segment_size = Bytebuf.R.i64 r in
      let log_start = Bytebuf.R.i64 r in
      let segs =
        Bytebuf.R.list r (fun r ->
            let base = Bytebuf.R.i64 r in
            last_base := Some base;
            let sealed = Bytebuf.R.bool r in
            let data = Bytebuf.R.string r in
            let stored = Bytebuf.R.u32 r in
            if Faultdisk.crc_checks_enabled () && Crc.string data <> stored then
              Storage_error.raise_err ~lsn:base Storage_error.Checksum
                "log segment footer CRC mismatch (base %d, %dB)" base (String.length data);
            (base, sealed, data))
      in
      Bytebuf.R.expect_end r;
      (master_lsn, last_stable, segment_size, log_start, segs)
    with Bytebuf.Corrupt msg ->
      raise (Storage_error.of_corrupt ?lsn:!last_base ("log image: " ^ msg))
  in
  ignore last_stable;
  let t = create ~segment_size () in
  (match segs with
  | [] -> t.active <- fresh_segment log_start
  | _ ->
      let rebuilt =
        List.map
          (fun (base, sealed, data) ->
            let s = fresh_segment base in
            Bytebuf.W.raw_string s.seg_data data;
            s.seg_sealed <- sealed;
            s)
          segs
      in
      let rec split acc = function
        | [ last ] -> (List.rev acc, last)
        | x :: rest -> split (x :: acc) rest
        | [] -> assert false
      in
      let sealed, tail = split [] rebuilt in
      if tail.seg_sealed then begin
        t.sealed <- sealed @ [ tail ];
        t.active <- fresh_segment (seg_end tail)
      end
      else begin
        t.sealed <- sealed;
        t.active <- tail
      end);
  (* same CRC-guarded tail scan as the crash path: the loaded active
     segment's suffix must verify record by record *)
  tail_scan t;
  t.flushed <- end_offset t;
  t.master_lsn <- master_lsn;
  t.last <- compute_last t;
  t.last_stable <- t.last;
  List.iter
    (fun s ->
      let n = ref 0 in
      let rec loop off = if off < seg_end s then begin incr n; loop (record_end t off) end in
      loop s.seg_base;
      s.seg_records <- !n)
    (all_segments t);
  recount t;
  (* Re-baseline: deserialize models re-opening the log after a crash, so
     the surviving stable prefix is the tracer's flushed boundary. *)
  if Trace.enabled () then Trace.emit (Trace.Log_open { log = t.id; flushed = t.flushed });
  t

let records_between t lo hi =
  let acc = ref [] in
  let lo = if Lsn.is_nil lo then start t else max lo (start t) in
  iter_from t lo (fun r -> if Lsn.is_nil hi || r.Logrec.lsn <= hi then acc := r :: !acc);
  List.rev !acc
