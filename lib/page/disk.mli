(** The simulated nonvolatile store.

    Holds only serialized page images — the "disk version of the data base".
    A system crash does not touch it (the buffer pool and volatile log tail
    are what disappear); a {e media} failure is simulated by [corrupt_drop]
    / [corrupt_flip], and the {!Aries_util.Faultdisk} engine can inject
    transient EIO, torn crash-writes and silent bit-rot on the live I/O
    paths.

    Page allocation hands out fresh page ids from a counter that is part of
    stable state. Freed page ids are not reused (documented simplification:
    the paper defers free-space management to the underlying storage
    manager; non-reuse sidesteps the deallocate-before-commit problem
    without affecting any protocol being studied). *)

open Aries_util

type t

val create : ?page_size:int -> unit -> t
(** Default page size 4096 bytes. Tests use small pages to force SMOs. *)

val page_size : t -> int

val alloc_pid : t -> Ids.page_id
(** A fresh, never-before-returned page id (> 0). Stable across crashes. *)

val note_pid : t -> Ids.page_id -> unit
(** Ensure the allocator never re-issues [pid]; used when redo recreates a
    page that was allocated before a crash. *)

val read : t -> Ids.page_id -> Page.t option
(** Deserializes a fresh in-memory page from the stored image.
    Raises [Storage_error.Error]: [Io_transient] under the injected-EIO
    fault (retryable), [Checksum] when the stored image fails its CRC
    (torn write / bit-rot — quarantine and repair), [Decode] when it is
    structurally unparseable. *)

val read_with_image : t -> Ids.page_id -> (Page.t * bytes) option
(** [read] plus the raw stored image the page was decoded from, zero-copy
    (stored images are immutable: every mutation replaces the binding;
    the page itself builds its entries from these bytes on demand, see
    {!Page.decode}). The caller must not mutate the image.
    Media repair uses it to copy an archived image verbatim. Same error
    behavior as [read]. *)

val write : t -> Page.t -> unit
(** Serializes and stores the page image (counted as a page write). The
    caller (buffer manager) is responsible for the WAL rule.
    Raises [Storage_error.Error Io_transient] under the injected-EIO fault
    (retryable). Under the torn-write fault, a {!Aries_util.Crashpoint}
    crash landing on this write leaves a half-old/half-new image on disk;
    under the bit-flip fault, the stored image may silently lose a bit. *)

val write_image : t -> Ids.page_id -> bytes -> unit
(** Store a pre-encoded page image without re-encoding — the buffer
    pool's write-back (encoded through its shared arena) and media
    recovery's archive-copy path. The image must be a valid encoding of page [pid] (callers only
    pass images previously produced by {!Page.encode} for that page).
    Fault behavior identical to [write]. The stored image aliases the
    argument; callers must not mutate it afterwards. *)

val exists : t -> Ids.page_id -> bool

val free : t -> Ids.page_id -> unit
(** Drop the stored image (page deallocated by an SMO and flushed state). *)

val pids : t -> Ids.page_id list
(** Sorted ids of all stored pages. *)

val image_copy : t -> t
(** A fuzzy archive dump: snapshot of current images (pages may contain
    uncommitted data — media recovery replays the log over them). *)

val corrupt_drop : t -> Ids.page_id -> unit
(** Media failure, loud flavor: the stored image vanishes — subsequent
    [read] returns [None] (an unreadable sector reported by the device). *)

val corrupt_flip : seed:int -> t -> Ids.page_id -> unit
(** Media failure, silent flavor: flip one seeded-random bit of the stored
    image in place. The device reports success; only the CRC (or, with
    checks disabled, the sim oracle) can tell. No-op if the page has no
    stored image. *)

val page_count : t -> int

val serialize : t -> bytes
(** The full stable state (page images + allocator), for {!deserialize}. *)

val deserialize : bytes -> t
