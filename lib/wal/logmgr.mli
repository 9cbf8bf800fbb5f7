(** The log manager: a segmented, append-only framed record store with an
    explicit stable/volatile boundary.

    The log is a chain of fixed-size {e segments} addressed by the same
    absolute byte-offset LSNs as before segmentation: a record's LSN is the
    offset of its frame header, segment boundaries always fall on record
    boundaries (records are never split), and the segment holding LSN [l]
    is the one whose base is the largest base [<= l]. Appends go to the
    unique unsealed tail segment; when it reaches the size budget it is
    {e sealed} and a fresh segment opens.

    Records are appended to a volatile tail; [flush]/[flush_to] move the
    stable boundary forward (a synchronous log I/O in a real system —
    counted in {!Aries_util.Stats}); each segment's stable prefix is
    derived from the global boundary. {!crash} discards everything after
    the stable boundary, which is exactly the information a system failure
    loses — including in-memory-only seals. The {e master record} (the
    well-known disk location holding the LSN of the last complete
    checkpoint) is modeled as state that survives [crash].

    Log-space reclamation ({!truncate_prefix}) drops whole sealed,
    fully-stable segments below a caller-supplied safety point, handing
    each to the {!set_archive_sink} hook first so media recovery can still
    roll forward from an old fuzzy dump (see [Media.Archive]). *)

type t

type archived = {
  arch_base : int;  (** absolute offset of the segment's first byte *)
  arch_len : int;
  arch_data : string;  (** the raw framed records, [arch_len] bytes *)
  arch_records : int;
  arch_crc : int;  (** sealed-segment footer: CRC32 of [arch_data] *)
}
(** A reclaimed segment as handed to the archive sink. *)

val create : ?segment_size:int -> unit -> t
(** [segment_size] (default 64 KiB, minimum 64 bytes) is the seal
    threshold: a segment is sealed at the first record boundary at or past
    it, so segments can overshoot by up to one record. *)

val id : t -> int
(** Id of this log instance, unique since the last {!reset_ids}, used by
    the protocol tracer to key durability events
    ([Log_open]/[Log_force]/[Commit_ack]/[Page_write]) to the right log. *)

val reset_ids : unit -> unit
(** Number the next log 1 again. Only for a fresh simulated machine, when
    no earlier log is used any more: its ids (and so its violation
    messages and event dumps) then do not depend on what ran before. *)

val segment_size : t -> int

val append : t -> Logrec.t -> Lsn.t
(** Assigns the record's LSN (its byte offset), frames and buffers it into
    the active segment, sealing it if the size budget is reached. The
    returned LSN is strictly greater than all previously returned. *)

val flush : t -> unit
(** Force the whole log to stable storage. *)

val flush_to : t -> Lsn.t -> unit
(** Force the log up to and including the record at this LSN. No-op if
    already stable. This is the WAL primitive the buffer manager calls
    before writing a page, and commit calls on its commit record. *)

val flushed_lsn : t -> Lsn.t
(** The largest appended LSN that is stable, or [Lsn.nil]. *)

val flushed_offset : t -> int
(** The absolute offset of the stable/volatile boundary: everything below
    is on stable storage. *)

val last_lsn : t -> Lsn.t
(** LSN of the most recently appended record, or [Lsn.nil]. *)

val end_offset : t -> int
(** Offset one past the final record; the LSN the next append will get. *)

val is_stable : t -> Lsn.t -> bool

val record_end : t -> Lsn.t -> int
(** Offset one past the record at this LSN (frame header + payload): the
    boundary a force must reach to cover the record. For an LSN below the
    log start (reclaimed by truncation — necessarily already stable and
    archived) this clamps to the start offset, so pageLSN-driven callers
    never probe reclaimed segments. *)

val read : t -> Lsn.t -> Logrec.t
(** Random access by LSN (stable or volatile). Raises
    [Invalid_argument] if the LSN is not a record boundary or lies in a
    reclaimed segment; raises [Storage_error.Error] ([Checksum]/[Decode],
    with the LSN) if the frame fails its CRC or is unparseable. *)

val next_lsn : t -> Lsn.t -> Lsn.t option
(** LSN of the record following the given one, if any. *)

val iter_from : t -> Lsn.t -> (Logrec.t -> unit) -> unit
(** Scan records in LSN order starting at the given LSN (inclusive) through
    the end of the log. [Lsn.nil] scans from the beginning of the oldest
    retained segment. *)

val set_master : t -> Lsn.t -> unit
(** Record the LSN of the most recent complete checkpoint's Begin_ckpt in
    the master record. *)

val master : t -> Lsn.t

val crash : ?retain:(int -> int) -> t -> unit
(** Discard the volatile tail: segments wholly above the stable boundary
    vanish, the straddling segment is trimmed (and re-opens unsealed —
    an in-memory seal that never reached disk is not a seal). The master
    record and stable prefix remain.

    [retain] (default [fun _ -> 0]) maps the number of complete unflushed
    frames to how many of them the medium kept past the boundary — the
    per-stream flush-order shuffle used by {!Logset.crash}: a crash may
    persist one stream's whole tail (complete records, written but never
    acked — legal) while another stream loses everything unforced.

    Recovery then runs a CRC-guarded {e tail scan} over the active
    segment rather than trusting the recorded boundary: the log ends at
    the last record whose frame verifies. Under the
    [Faultdisk] torn-append fault, the medium keeps a prefix
    of the in-flight tail — complete CRC-valid records beyond the
    recorded boundary survive (legal: written but never acked), the torn
    remainder is truncated with a traced [log.tail-truncated] event and
    counted in [Stats.log_tail_truncated_bytes]. *)

val set_archive_sink : t -> (archived -> unit) -> unit
(** Install the hook that receives each segment dropped by
    {!truncate_prefix}, before it disappears from the live log. *)

val truncate_prefix : t -> upto:Lsn.t -> int
(** Reclaim log space: drop every sealed, fully-stable segment whose end
    offset is [<= upto], handing each to the archive sink. Partial
    segments are never dropped — the cut lands on the largest segment
    boundary [<= upto], so LSNs keep their meaning and the new
    {!start_lsn} is a record boundary. Returns the number of bytes
    reclaimed (0 if no whole segment lies below [upto]). Raises
    [Invalid_argument] if [upto] exceeds the flushed boundary. The caller
    is responsible for passing a safe [upto] — see [Ckptd.safety_point]
    and discipline rule R6. *)

val start_lsn : t -> Lsn.t
(** LSN of the oldest retained record, or [Lsn.nil] when the log is empty. *)

val start_offset : t -> int
(** Absolute offset of the oldest retained byte (the base of the oldest
    retained segment) — never [Lsn.nil]-coded: an empty log reports its end
    offset. Offsets below it were reclaimed by truncation and archived. *)

val record_count : t -> int
(** Number of records currently retained (stable + volatile, excluding
    reclaimed segments). *)

val size_bytes : t -> int
(** Live (non-archived) bytes across all retained segments — the footprint
    bench q11 shows plateauing under the checkpoint daemon. *)

val segment_count : t -> int
(** Retained segments, including the active one. *)

val segments_info : t -> (int * int * bool) list
(** [(base, length, sealed)] per retained segment, oldest first. *)

val first_segment_end : t -> int
(** End offset of the oldest retained segment — the boundary the next
    truncation could reclaim. The checkpoint daemon nudges the page
    cleaner when the DPT's min recLSN falls below it. *)

val records_between : t -> Lsn.t -> Lsn.t -> Logrec.t list
(** [records_between t lo hi] returns records with [lo <= lsn <= hi],
    in LSN order; [Lsn.nil] bounds mean "from start" / "to end". *)

val serialize : t -> bytes
(** The stable state only: each segment's stable prefix plus the master
    record. The volatile tail (and volatile seals) are, by definition, not
    part of what survives. *)

val deserialize : bytes -> t
