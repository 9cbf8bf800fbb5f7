(** Typed storage failures raised by the detection / retry / repair layer.

    Every damaged-media condition the system detects — CRC mismatch, an
    unparseable stored image, a transient injected I/O error, or retry
    exhaustion — surfaces as {!Error} with the offending page id / LSN
    when known.  Bare [Bytebuf.Corrupt] must never escape a restart or
    save/load path. *)

type cause =
  | Checksum  (** stored CRC did not verify: torn write or bit-rot *)
  | Decode  (** structurally unparseable image / record / container *)
  | Io_transient  (** injected transient EIO (retryable) *)
  | Retry_exhausted  (** bounded retry gave up on a transient fault *)

type info = { cause : cause; pid : int option; lsn : int option; detail : string }

exception Error of info

val to_string : info -> string

val raise_err :
  ?pid:int -> ?lsn:int -> cause -> ('a, unit, string, 'b) format4 -> 'a
(** [raise_err ?pid ?lsn cause fmt ...] raises {!Error} with a formatted
    detail string. *)

val of_corrupt : ?pid:int -> ?lsn:int -> string -> exn
(** Wrap a caught [Bytebuf.Corrupt] message as a [Decode] error. *)
