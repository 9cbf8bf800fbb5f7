(** Buffer manager: steal / no-force, with the write-ahead-logging rule.

    - {e steal}: a dirty page holding uncommitted updates may be written to
      disk at any time (eviction, or the randomized steal test hook), so
      restart undo is genuinely exercised.
    - {e no-force}: commit does not write data pages, only forces the log,
      so restart redo is genuinely exercised.
    - {e WAL rule}: before a page image is written to disk, the log is
      forced up to that page's [page_lsn].

    The pool tracks the dirty-page table (page id → recLSN, the LSN of the
    first update that dirtied the buffered copy) used by fuzzy checkpoints
    and the analysis pass. Pages with a positive fix count are never
    evicted; latching a page requires fixing it first. *)

open Aries_util

exception Page_vanished of Ids.page_id
(** [fix] on a page id with no disk image and no buffered frame. *)

type t

val create : ?capacity:int -> Aries_page.Disk.t -> Aries_wal.Logset.t -> t
(** [capacity] is the number of frames (default 128). Eviction is LRU over
    unfixed frames; if every frame is fixed the pool grows (and counts the
    overflow in stats rather than deadlocking). The WAL-rule force before a
    page write targets the page's routed stream only — all of a page's
    records live there. *)

val capacity : t -> int
(** The frame count the pool was created with. *)

val disk : t -> Aries_page.Disk.t

val id : t -> int
(** Process-unique pool id. Page ids are only unique within a pool, so
    multi-pool programs (a sharded Db runs one pool per shard) tag per-page
    trace events with this id to keep the discipline checker's per-page
    state from colliding across shards. *)

val page_size : t -> int

val fix : t -> Ids.page_id -> Aries_page.Page.t
(** Pin the page in the pool, reading it from disk on a miss. *)

val fix_opt : t -> Ids.page_id -> Aries_page.Page.t option

val fix_new : t -> Ids.page_id -> Aries_page.Page.content -> Aries_page.Page.t
(** Materialize a freshly allocated page directly in the pool (no disk
    read), pinned and clean-until-logged. *)

val unfix : t -> Aries_page.Page.t -> unit

val with_fix : t -> Ids.page_id -> (Aries_page.Page.t -> 'a) -> 'a

val mark_dirty : t -> Aries_page.Page.t -> Aries_wal.Lsn.t -> unit
(** Record that the page was modified by the log record at this LSN: sets
    the frame's recLSN if the page was clean. (The caller has already set
    [page_lsn].) Also triggers the randomized steal hook, if armed. *)

val flush_page : t -> Ids.page_id -> unit
(** Force log per WAL rule, write the image, mark clean. No-op if absent or
    clean. *)

val flush_all : t -> unit

val clean_some : t -> max_pages:int -> int
(** Background-cleaner trickle: write out up to [max_pages] dirty unfixed
    frames, oldest recLSN first (the frames that pin the restart-redo
    horizon furthest back), leaving them resident and clean. The WAL-rule
    force each write performs is synchronous — never routed through the
    group-commit queue. Returns the number of pages written. *)

val drop : t -> Ids.page_id -> unit
(** Discard the frame without writing (page deallocated). *)

val dirty_page_table : t -> (Ids.page_id * Aries_wal.Lsn.t) list
(** Snapshot for fuzzy checkpoints: (pid, recLSN), sorted by pid. *)

val dirty_page_chains : t -> (Ids.page_id * Aries_wal.Lsn.t list) list
(** Snapshot of each dirty page's log chain (every record LSN applied
    since the page became dirty, oldest first), sorted by pid — the same
    pages {!dirty_page_table} reports. Fuzzy checkpoints persist these so
    instant restart can repeat a pending page's history by direct record
    reads instead of a log scan per page. A page still in the
    instant-restart overlay reports its pending chain: the frame's own
    chain is the already-replayed prefix of it. *)

val resident_pids : t -> Ids.page_id list
(** Page ids currently buffered (any fix count), sorted. Post-restart
    discovery scans these in addition to the disk, because redo recreates
    never-flushed pages only in the pool. *)

val fixed_count : t -> int
(** Frames with a positive fix count — should be 0 between operations;
    tests assert this to catch fix leaks. *)

val latched_count : t -> int
(** Total latch holders across all buffered pages — should be 0 between
    operations; the simulation harness asserts this to catch latch leaks. *)

val crash : t -> unit
(** Drop every frame, written or not: the volatile state a system failure
    destroys. *)

val set_steal_hook : t -> seed:int -> probability:float -> unit
(** Arm the randomized steal: after each [mark_dirty], with the given
    probability, some unfixed dirty page is written to disk (respecting the
    WAL rule). Simulates an aggressive buffer replacement policy so crash
    tests cover uncommitted-data-on-disk states. *)

val clear_steal_hook : t -> unit

val set_repairer : t -> (Ids.page_id -> bool) -> unit
(** Install the automatic media-repair hook (PR 5). When a disk read fails
    its CRC or does not decode, the pool quarantines the page (counted in
    [Stats.disk_quarantines], traced as [Page_quarantined]) and calls the
    hook; if it returns [true] the read is retried against the healed
    image. [Db] installs [Media.auto_repair] here, so bit-rot and torn
    page images heal transparently on the next fix. A re-entrancy guard
    suppresses repair attempts triggered by the repairer's own page
    traffic — those surface as typed [Storage_error]s instead.

    Transient read/write errors are handled separately: up to 4 bounded
    retries with a one-scheduler-step backoff per attempt (counted in
    [Stats.disk_retries], traced as [Io_retry]); exhaustion raises
    [Storage_error.Error] with cause [Retry_exhausted]. *)

val set_redo_hook : t -> (Ids.page_id -> unit) -> unit
(** Install the instant-restart on-demand redo hook (PR 6), consulted at
    the top of every {!fix_opt}/{!fix}: while restart recovery is still
    draining, a fix of a page in the needs-redo set must trigger
    single-page redo before the (possibly stale) image is served. The hook
    is a no-op for pages not pending — including the redo roll-forward's
    own fix of the page being replayed, which the engine removes from the
    pending set before replaying. Cleared by {!clear_redo_hook} when the
    drain completes. *)

val clear_redo_hook : t -> unit

val set_restart_dpt : t -> (Ids.page_id * Aries_wal.Lsn.t * Aries_wal.Lsn.t list) list -> unit
(** Install instant restart's needs-redo set as an overlay on the
    dirty-page table: the listed pages have stale stable images even
    though no frame is resident, so {!dirty_page_table} (hence fuzzy
    checkpoints and the log-reclamation safety point) reports them —
    with the minimum recLSN when a page is both pending and frame-dirty
    (mid-replay) — until {!clear_restart_page} retires them one by one.
    Each entry also carries the page's not-yet-replayed log chain
    (oldest first), which {!dirty_page_chains} surfaces so a mid-drain
    checkpoint keeps covering the un-replayed suffix. Replaces any
    previous overlay; {!crash} drops it (volatile — the next restart's
    analysis rebuilds it). *)

val clear_restart_page : t -> Ids.page_id -> unit
(** The page's history has been fully repeated: stop overlaying it. *)

(** {2 Per-frame image cache (PR 9)}

    Every frame can hold the page's encoded on-disk image, tagged with the
    [page_lsn] at encode time. {!mark_dirty} drops it (counted in
    [Stats.bufpool_image_invalidations]); write-backs and {!page_image}
    probes reuse a valid cached image ([Stats.bufpool_image_hits]) instead
    of re-running the codec + CRC ([Stats.bufpool_image_misses]). The read
    path seeds the cache with the raw disk image, so a page read in and
    probed or written back unedited never encodes at all. *)

val page_image : t -> Ids.page_id -> bytes option
(** The current encoded image of a resident page, through the cache
    ([None] if the page is not buffered). The returned bytes are shared
    with the cache — callers must not mutate them. *)

val image_cache_stale : t -> int
(** Coherence audit ([Db.leak_report]): frames whose cached image tag no
    longer matches the page's [page_lsn] — the page advanced without
    [mark_dirty] invalidating, i.e. an unlogged mutation. Always 0 in a
    healthy quiesced system. *)
