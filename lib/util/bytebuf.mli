(** Binary encoding helpers shared by the log-record and page codecs.

    Fixed-width integers are little-endian; strings are u32
    length-prefixed. The log's own integers are unsigned LEB128 varints
    ({!W.uvar}): seven value bits per byte, low group first, at most 9
    bytes (for [max_int]). The reader raises [Corrupt] (rather than
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

val uvar_size : int -> int
(** Bytes {!W.uvar} writes for a value. Raises [Invalid_argument] on a
    negative one. *)

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

  val reserve : t -> int -> unit
  (** [reserve t cap] grows the arena to exactly [cap] bytes if it is
      smaller (no doubling), keeping the contents. A writer that knows its
      final size grows once, to that size. *)

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

  val uvar : t -> int -> unit
  (** Unsigned LEB128, {!uvar_size} bytes. Raises [Invalid_argument] on a
      negative value, before writing anything. *)

  val string : t -> string -> unit

  val raw_string : t -> string -> unit
  (** Append the bytes of [s] with no length prefix (segment storage,
      pre-framed data). *)

  val raw_substring : t -> string -> int -> int -> unit
  (** [raw_substring t s off n] appends [n] bytes of [s] from [off] with no
      length prefix: one blit from a slice, no intermediate string. *)

  val bytes : t -> bytes -> unit

  val uvar_string : t -> string -> unit
  (** {!uvar} length, then the bytes. *)

  val uvar_bytes : t -> bytes -> unit
  (** {!uvar_string} of the bytes. *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** u32 count followed by each element written with the given encoder —
      the fixed-width list framing of the snapshot and lock codecs. *)

  val uvar_list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** {!uvar} count, then each element: the log's own list framing
      (checkpoint bodies, commit fence vectors). *)

  val contents : t -> bytes
  (** A fresh copy of the written bytes. *)

  val output : out_channel -> t -> unit
  (** Write the contents to a channel straight from the arena, no copy. *)

  val unsafe_view : t -> string
  (** Zero-copy view of the backing arena; bytes [0, {!length}) are the
      written contents (anything beyond is garbage). Valid only until the
      next write/reset — do not retain, do not mutate. A writer that is
      never written again may hand its arena over this way for good: the
      WAL gives a reclaimed segment's arena to the archive. *)

  val sub_string : t -> int -> int -> string
  (** [sub_string t off len] copies a slice of the contents out. *)

  val get_u32 : t -> int -> int
  (** Little-endian u32 read at a byte offset within the contents. *)

  val crc : ?off:int -> t -> int
  (** CRC32 of the contents from [off] (default 0) to the end, computed in
      place over the arena — no copy. *)

  val crc_from : t -> int -> int
  (** {!crc} with a required offset: the call allocates nothing. *)

  val append_with_crc : t -> t -> int
  (** [append_with_crc dst src] appends [src]'s contents to [dst] and
      returns their CRC32, computed over the freshly written region — the
      frame-append path's copy+checksum with no intermediate buffer. *)
end

(** {2 Sized body encoders}

    A log body is written straight into the WAL's segment arena, so the
    arena must know its exact size first. A body kind describes its bytes
    once, as an emitter over a {!SINK}; applied to {!Count} the emitter
    yields the size, applied to {!W} the bytes, so the two cannot
    disagree. *)

module type SINK = sig
  type t

  val u8 : t -> int -> unit

  val uvar : t -> int -> unit
  (** Raises [Invalid_argument] on a negative value. *)

  val uvar_string : t -> string -> unit

  val uvar_list : t -> (t -> 'a -> unit) -> 'a list -> unit
end

module Count : sig
  include SINK

  val create : unit -> t

  val length : t -> int
  (** The bytes a {!W} would have been given. *)
end

type 'a enc = {
  size : 'a -> int;  (** exact encoded length; raises [Invalid_argument] on a negative field *)
  write : W.t -> 'a -> unit;  (** writes exactly [size] bytes *)
}

val enc : (Count.t -> 'a -> unit) -> (W.t -> 'a -> unit) -> 'a enc
(** [enc count write]: the two instances of one emitter. *)

val raw_bytes : bytes enc
(** The bytes themselves, no length prefix. *)

val encode : 'a enc -> 'a -> bytes
(** One exactly-sized buffer, written once; no copy out of a writer. *)

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

  val uvar : t -> int
  (** Inverse of {!W.uvar}. Raises {!Corrupt} on a varint that is cut
      short, runs past 9 bytes, ends in a zero byte after its first (the
      one-encoding rule) or does not fit a non-negative [int]. *)

  val string : t -> string

  val bytes : t -> bytes

  val uvar_bytes : t -> bytes
  (** Inverse of {!W.uvar_bytes}; a fresh copy. *)

  val uvar_string : t -> string
  (** Inverse of {!W.uvar_string}. *)

  val raw_bytes : t -> int -> bytes
  (** The next [n] bytes, copied; {!Corrupt} if fewer remain. *)

  val rest_bytes : t -> bytes
  (** Every byte left in the slice, copied. *)

  val flags : t -> bits:int -> int
  (** A flags byte with only its low [bits] bits in use; {!Corrupt} if a
      higher bit is set. *)

  val view : t -> string * int * int
  (** Read a u32-length-prefixed slice in place: [(src, off, len)], the
      slice's bytes are [src.[off .. off + len - 1]]. Nothing is copied,
      so the slice shares the reader's source string. Raises {!Corrupt} on
      truncation, like {!string}. *)

  val sub : t -> t
  (** {!view} as a reader confined to the slice: a length-prefixed part of
      a container parsed in place, where {!bytes} would copy it out. *)

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

  val uvar_list : t -> (t -> 'a) -> 'a list
  (** Inverse of {!W.uvar_list}. A count larger than the bytes left (every
      element takes at least one) raises {!Corrupt} before any element is
      read. *)

  val expect_end : t -> unit
  (** Raises [Corrupt] if input remains. *)
end
