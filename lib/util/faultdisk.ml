(* The adversarial storage model: one process-global fault engine that
   both the page store ([Aries_page.Disk]) and the log manager
   ([Aries_wal.Logmgr]) consult.  It lives in [Aries_util] because the
   WAL layer cannot depend on the page layer — the "Faultdisk shim" is a
   decision oracle here, and the actual byte-mangling (splicing a torn
   image, flipping a stored bit) happens at the call sites that own the
   bytes.

   Faultdisk alone owns the storage faults: each is a field of the armed
   [cfg], and no other module keeps a switch for them.

   Determinism: all probabilistic decisions draw from one seeded
   splitmix64 stream, and the decision functions draw *only while the
   armed cfg gives their fault a probability above zero* — so a run with
   no faults armed consumes zero entropy and is bit-identical to a
   pre-PR-5 run, and an armed run is a pure function of (workload seed,
   fault seed, cfg). *)

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

let default_cfg =
  {
    eio_read_p = 0.02;
    eio_write_p = 0.02;
    eio_force_p = 0.02;
    bit_flip_p = 0.03;
    torn_write = true;
    torn_append = true;
    stream_shuffle = false;
  }

let eio_only_cfg =
  {
    eio_read_p = 0.05;
    eio_write_p = 0.05;
    eio_force_p = 0.08;
    bit_flip_p = 0.0;
    torn_write = false;
    torn_append = false;
    stream_shuffle = false;
  }

(* The multi-stream crash adversary alone: no EIO, no bit-rot — every run
   must recover cleanly no matter which streams' tails the crash kept. The
   torn-append fault stays on so the shuffled survivor boundary can also
   land mid-record. *)
let shuffle_cfg =
  {
    eio_read_p = 0.0;
    eio_write_p = 0.0;
    eio_force_p = 0.0;
    bit_flip_p = 0.0;
    torn_write = false;
    torn_append = true;
    stream_shuffle = true;
  }

let damages_storage c =
  c.eio_read_p > 0.0 || c.eio_write_p > 0.0 || c.eio_force_p > 0.0 || c.bit_flip_p > 0.0
  || c.torn_write

type state = { mutable cfg : cfg option; mutable rng : Rng.t }

let st = { cfg = None; rng = Rng.create 0 }

let arm ~seed cfg =
  st.cfg <- Some cfg;
  st.rng <- Rng.create (0x5D15C0 lxor seed)

let disarm () = st.cfg <- None

(* Decision functions: each reads only the armed cfg, and each draw needs
   its probability > 0, so the stream stays aligned with the armed op
   sequence and an unarmed run draws nothing. *)

let draw p = p > 0. && Rng.float st.rng 1.0 < p

let decide f = match st.cfg with Some c -> f c | None -> false

let fail_read () = decide (fun c -> draw c.eio_read_p)

let fail_write () = decide (fun c -> draw c.eio_write_p)

let fail_force () = decide (fun c -> draw c.eio_force_p)

let flip_now () = decide (fun c -> draw c.bit_flip_p)

let torn_write_on () = decide (fun c -> c.torn_write)

let torn_append_on () = decide (fun c -> c.torn_append)

let stream_shuffle_on () = decide (fun c -> c.stream_shuffle)

(* How many of a stream's [avail] complete unflushed frames the crash
   keeps: uniform over [0, avail] (0 = classic lose-the-tail, avail =
   persist everything past the fence). Draws only while armed, keeping the
   stream aligned. *)
let stream_retain ~avail =
  if avail <= 0 || not (stream_shuffle_on ()) then 0 else Rng.int st.rng (avail + 1)

let crc_checks_enabled () = not (Crashpoint.active Crashpoint.Crc_check_disabled)

(* Byte mangling helpers (deterministic given the stream position). *)

let flip_one_bit s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = Rng.int st.rng n and bit = Rng.int st.rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.unsafe_to_string b
  end

let tear ~old_image ~new_image =
  (* First half of the new bytes lands, the rest keeps whatever the old
     image had there (nothing, if the old image was shorter or absent) —
     the classic half-sector torn write. *)
  let cut = max 1 (String.length new_image / 2) in
  let prefix = String.sub new_image 0 (min cut (String.length new_image)) in
  match old_image with
  | Some old when String.length old > cut ->
      prefix ^ String.sub old cut (String.length old - cut)
  | _ -> prefix
