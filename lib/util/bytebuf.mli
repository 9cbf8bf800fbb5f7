(** Binary encoding helpers shared by the log-record and page codecs.

    All integers are little-endian fixed width; strings are u32
    length-prefixed. The reader raises [Corrupt] (rather than
    [Invalid_argument]) on truncated input so that callers can distinguish
    codec bugs from genuinely damaged media in media-recovery tests.

    The writer is a reset-in-place arena over a growable [bytes]: hot
    encoders keep one writer alive and {!W.reset} it per record instead of
    allocating a fresh buffer each time, size-hint it from the caller
    ({!W.create}[ ~size]) to avoid growth-doubling copies, and expose the
    backing bytes zero-copy ({!W.unsafe_view}, {!W.crc},
    {!W.append_with_crc}) so checksums and frame appends never materialize
    an intermediate copy. *)

exception Corrupt of string

module W : sig
  type t

  val create : ?size:int -> unit -> t
  (** [size] is the initial arena capacity (default 128). Callers that
      know the output size — a page image of [psize] bytes, a log record
      of roughly [body + header] bytes — should pass it: a right-sized
      arena never pays the grow-and-copy doubling steps. *)

  val length : t -> int

  val capacity : t -> int
  (** Current arena capacity in bytes ([length <= capacity]); stable
      across {!reset}, grows only when a write outruns it. The WAL uses it
      to count encode-arena reuses vs regrowths. *)

  val reset : t -> unit
  (** Forget the contents, keep the arena — the reuse path. *)

  val truncate : t -> int -> unit
  (** Cut the contents back to the first [n] bytes in place (the WAL tail
      scan's torn-suffix cut). Raises [Invalid_argument] out of range. *)

  val u8 : t -> int -> unit

  val u16 : t -> int -> unit

  val u32 : t -> int -> unit

  val i64 : t -> int -> unit
  (** OCaml [int] stored as 64-bit. *)

  val bool : t -> bool -> unit

  val string : t -> string -> unit

  val raw_string : t -> string -> unit
  (** Append the bytes of [s] with no length prefix (segment storage,
      pre-framed data). *)

  val bytes : t -> bytes -> unit

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** u32 count followed by each element written with the given encoder —
      the one length-prefixed list framing, shared by the checkpoint body
      and reacquired-lock codecs (previously hand-rolled in both). *)

  val contents : t -> bytes
  (** A fresh copy of the written bytes. *)

  val unsafe_view : t -> string
  (** Zero-copy view of the backing arena; bytes [0, {!length}) are the
      written contents (anything beyond is garbage). Valid only until the
      next write/reset — do not retain, do not mutate. *)

  val sub_string : t -> int -> int -> string
  (** [sub_string t off len] copies a slice of the contents out. *)

  val get_u32 : t -> int -> int
  (** Little-endian u32 read at a byte offset within the contents. *)

  val crc : ?off:int -> t -> int
  (** CRC32 of the contents from [off] (default 0) to the end, computed in
      place over the arena — no copy. *)

  val append_with_crc : t -> t -> int
  (** [append_with_crc dst src] appends [src]'s contents to [dst] and
      returns their CRC32, computed over the freshly written region — the
      frame-append path's copy+checksum with no intermediate buffer. *)
end

module R : sig
  type t

  val of_bytes : bytes -> t

  val of_string : string -> t

  val of_substring : string -> off:int -> len:int -> t
  (** A reader confined to [len] bytes of [src] starting at [off], without
      copying the slice out first — the zero-copy read path ([String.sub]
      on every hot-path decode was measurable). {!pos} reports absolute
      offsets into [src]; [expect_end] checks against the slice limit. *)

  val pos : t -> int

  val remaining : t -> int

  val u8 : t -> int

  val u16 : t -> int

  val u32 : t -> int

  val i64 : t -> int

  val bool : t -> bool

  val string : t -> string

  val bytes : t -> bytes

  val skip : t -> int -> unit
  (** [skip t n] steps over [n] bytes with the same bounds check a read of
      [n] bytes makes (raises {!Corrupt} on truncation). *)

  val seek : t -> int -> unit
  (** Move to an absolute offset (as reported by {!pos}) — the on-demand
      page decoder returns to an entry whose bounds it checked earlier.
      Raises [Invalid_argument] past the slice end. *)

  val list : t -> (t -> 'a) -> 'a list
  (** Inverse of {!W.list}: u32 count, then that many elements decoded in
      order. Raises {!Corrupt} (via the element decoder / [need]) on
      truncation. *)

  val expect_end : t -> unit
  (** Raises [Corrupt] if input remains. *)
end
