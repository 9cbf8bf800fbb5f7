(** The page model.

    Pages are the unit of I/O, latching, and page-oriented recovery. In
    buffer they are typed OCaml structures for sane in-place editing; on the
    simulated disk they exist only as their binary encoding, so nothing that
    is not serializable can survive a crash (see DESIGN.md §1 for why this
    substitution preserves the paper's recovery semantics).

    Space is accounted byte-accurately against [psize] using the same
    per-entry costs the codec produces, so splits and page deletions are
    driven by realistic occupancy. *)

open Aries_util

type leaf = {
  mutable lf_sm_bit : bool;  (** participant in an in-progress SMO (§2.1) *)
  mutable lf_delete_bit : bool;  (** a key delete happened here (§3) *)
  mutable lf_prev : Ids.page_id;
  mutable lf_next : Ids.page_id;
  lf_keys : Key.t Vec.t;  (** sorted by {!Key.compare} *)
}

type nonleaf = {
  mutable nl_sm_bit : bool;
  mutable nl_level : int;  (** >= 1; leaves are level 0 *)
  nl_children : Ids.page_id Vec.t;
  nl_high_keys : Key.t Vec.t;
      (** [length nl_children - 1] separators: child [i] holds keys strictly
          below [nl_high_keys.(i)]; the rightmost child has no high key
          (§1.1). *)
}

type data = {
  dt_owner : int;  (** heap (table) id, so heaps can be rediscovered by a
                       disk scan after restart without a catalog *)
  dt_slots : bytes option Vec.t;  (** [None] = tombstoned slot *)
}

(** Index anchor: the per-index metadata page holding the root pointer.
    Updated (and logged) when an SMO grows or shrinks the tree. *)
type anchor = {
  mutable an_root : Ids.page_id;
  mutable an_height : int;
  an_unique : bool;
  an_name : string;
}

type content =
  | Leaf of leaf
  | Nonleaf of nonleaf
  | Data of data
  | Anchor of anchor

type t = {
  pid : Ids.page_id;
  psize : int;
  mutable page_lsn : Aries_wal.Lsn.t;
  mutable content : content;
  latch : Aries_sched.Latch.t;  (** volatile; recreated on each disk read *)
}

(** {1 Construction} *)

val create : psize:int -> pid:Ids.page_id -> content -> t

val empty_leaf : unit -> content

val empty_nonleaf : level:int -> content

val empty_data : owner:int -> content

val empty_anchor : name:string -> unique:bool -> content

(** {1 Content projections} — raise [Invalid_argument] on kind mismatch,
    which only happens on corrupt structures or protocol bugs. *)

val as_leaf : t -> leaf

val as_nonleaf : t -> nonleaf

val as_data : t -> data

val as_anchor : t -> anchor

val is_leaf : t -> bool

(** {1 SM / Delete bits, uniform over index pages} *)

val sm_bit : t -> bool

val set_sm_bit : t -> bool -> unit

val delete_bit : t -> bool

val set_delete_bit : t -> bool -> unit

(** {1 Space accounting} *)

val free_space : t -> int

val header_bytes : int

(** {1 Codec} *)

val encode : t -> bytes
(** The on-disk image: [0xA2][body][u32 crc], CRC computed in place over a
    size-hinted arena (one final copy, no growth doubling). *)

val encode_into : Bytebuf.W.t -> t -> bytes
(** Same, through a caller-owned arena (reset first): the buffer pool
    keeps one page-sized writer per pool so a flush storm allocates one
    image per write instead of one arena per write. Still returns a fresh
    [bytes] — the image outlives the arena. *)

val decode : psize:int -> bytes -> t
(** Verifies the CRC (see [Faultdisk.crc_checks_enabled]), then checks the
    body's structure zero-copy out of the image slice: every length field,
    every slot presence byte and the body's end, exactly the checks a full
    parse makes, so a damaged image raises here ([Bytebuf.Corrupt] or
    [Storage_error.Error]). Leaf keys, nonleaf children and high keys, and
    data slots are then built on demand ({!Vec.of_fn}): an entry is built
    from the image when first read, and all of a vector's pending entries
    when it is first mutated or iterated. Building cannot fail.

    The page therefore keeps a reference to the image until every entry
    is built: callers must not mutate the bytes after [decode]. Stored
    disk images are immutable, which is what {!Disk.read} relies on.
    There is one format: bytes that do not start with the [0xA2] version
    byte, or are too short to hold a header and CRC, raise
    [Storage_error.Error] with cause [Decode]. *)

val equal : t -> t -> bool
(** Structural equality of pid, LSN and content (latch excluded); used by
    media-recovery tests to compare a recovered page with the live one. *)

val pp : Format.formatter -> t -> unit
