(** The adversarial storage model: a process-global fault engine consulted
    by the page store and the log manager.

    [Faultdisk] alone owns the storage faults — torn page writes, bit-rot,
    transient EIO, torn log appends and the multi-stream flush shuffle.
    Each is a field of {!cfg}; {!arm} installs a cfg and seeds one
    splitmix64 stream, and the decision functions below read only the
    armed cfg. A draw happens only while the armed cfg gives its fault a
    probability above zero, so unarmed runs consume zero entropy
    (bit-identical to fault-free runs) and armed runs are a pure function
    of (workload seed, fault seed, cfg). The meta-fault switches,
    [crc.check-disabled] among them, belong to {!Crashpoint}.

    The engine only {e decides}; the byte-mangling (splicing a torn image,
    flipping a stored bit) is done by the call sites that own the bytes,
    using {!flip_one_bit} / {!tear}. *)

type cfg = {
  eio_read_p : float;  (** P(transient EIO) per page read *)
  eio_write_p : float;  (** P(transient EIO) per page write *)
  eio_force_p : float;  (** P(transient EIO) per log force *)
  bit_flip_p : float;  (** P(flip one stored bit) per page write at rest *)
  torn_write : bool;  (** a crash on a page write leaves a torn image *)
  torn_append : bool;  (** a crash leaves a partial record in the log tail *)
  stream_shuffle : bool;
      (** a crash persists a random per-stream number of complete unflushed
          log frames — the cross-stream flush-order adversary *)
}

val default_cfg : cfg
(** Everything on, low probabilities — the stock sim fault mix. *)

val eio_only_cfg : cfg
(** Only transient I/O errors (higher rates); exercises the retry paths
    without ever corrupting stored bytes. *)

val shuffle_cfg : cfg
(** Only the per-stream flush-order shuffle (plus torn appends): at crash
    time each log stream independently keeps 0..all of its complete
    unflushed frames, so one stream can persist past the epoch fence while
    another loses its tail. *)

val damages_storage : cfg -> bool
(** Can a run under [cfg] end in a typed {!Storage_error} on a correct
    engine? True iff it injects transient EIO (retries can run out),
    bit-rot or torn page writes. A torn append or a flush shuffle only
    shortens the unforced log tail, which restart's tail scan drops as an
    ordinary crash, so {!shuffle_cfg} is false. *)

val arm : seed:int -> cfg -> unit
(** Install [cfg] and seed the fault RNG. *)

val disarm : unit -> unit
(** Drop the cfg: every decision function returns false until the next
    {!arm}. *)

(** {2 Decision functions} — true means "inject the fault now". *)

val fail_read : unit -> bool
val fail_write : unit -> bool
val fail_force : unit -> bool
val flip_now : unit -> bool

val torn_write_on : unit -> bool
val torn_append_on : unit -> bool
val stream_shuffle_on : unit -> bool

val stream_retain : avail:int -> int
(** How many of a stream's [avail] complete unflushed frames survive the
    crash: uniform over [0, avail] while the armed cfg sets [stream_shuffle], else
    0. One RNG draw per armed call. *)

val crc_checks_enabled : unit -> bool
(** False iff the {!Crashpoint.Crc_check_disabled} meta-fault is
    active — codecs then skip CRC verification, and the sim oracle must
    catch the resulting corruption itself. *)

(** {2 Byte mangling} *)

val flip_one_bit : string -> string
(** Flip one RNG-chosen bit (identity on the empty string). *)

val tear : old_image:string option -> new_image:string -> string
(** The torn image a crash mid-write leaves behind: the first half of
    [new_image] spliced onto [old_image]'s tail (or alone, if the old
    image is absent/shorter). Deterministic — no RNG draw. *)
