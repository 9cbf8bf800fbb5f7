exception Corrupt of string

(* Unsigned LEB128: seven value bits per byte, low group first, the high
   bit set on every byte but the last. An OCaml [int] has 62 value bits
   above zero, so a varint is at most 9 bytes. *)
let uvar_max_bytes = 9

let uvar_size v =
  if v < 0 then invalid_arg "Bytebuf.uvar_size: negative";
  let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v

(* The writer is a reset-in-place arena over a growable [bytes] (not a
   [Buffer.t]): hot encoders — log-record append, page-image encode — keep
   one writer alive and [reset] it per record instead of allocating a fresh
   buffer each time, and readers of long-lived writers (the WAL's segment
   store) get zero-copy access to the backing bytes instead of going
   through [Buffer.sub]. *)
module W = struct
  type t = {
    mutable buf : bytes;
    mutable len : int;
  }

  let create ?(size = 128) () = { buf = Bytes.create (max 16 size); len = 0 }

  let length t = t.len

  let capacity t = Bytes.length t.buf

  let reset t = t.len <- 0

  let truncate t n =
    if n < 0 || n > t.len then invalid_arg "Bytebuf.W.truncate: out of range";
    t.len <- n

  let grow t cap =
    let nb = Bytes.create cap in
    Bytes.blit t.buf 0 nb 0 t.len;
    t.buf <- nb

  let ensure t n =
    let need = t.len + n in
    if need > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while !cap < need do
        cap := !cap * 2
      done;
      grow t !cap
    end

  let reserve t cap = if cap > Bytes.length t.buf then grow t cap

  let u8 t v =
    assert (v >= 0 && v < 0x100);
    ensure t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr v);
    t.len <- t.len + 1

  let u16 t v =
    assert (v >= 0 && v < 0x10000);
    ensure t 2;
    Bytes.set_uint16_le t.buf t.len v;
    t.len <- t.len + 2

  let u32 t v =
    assert (v >= 0 && v <= 0xFFFFFFFF);
    ensure t 4;
    Bytes.set_int32_le t.buf t.len (Int32.of_int (v land 0xFFFFFFFF));
    t.len <- t.len + 4

  let i64 t v =
    ensure t 8;
    Bytes.set_int64_le t.buf t.len (Int64.of_int v);
    t.len <- t.len + 8

  let bool t v = u8 t (if v then 1 else 0)

  (* A loop over local refs, not a local recursive function: the refs
     live in registers, so a varint write allocates nothing. *)
  let uvar_long t v =
    if v < 0 then invalid_arg (Printf.sprintf "Bytebuf.W.uvar: negative value %d" v);
    (* exactly the varint's bytes: a writer sized to its output (see
       {!encode}, the WAL's segment arena) must not grow near its end *)
    ensure t (uvar_size v);
    let buf = t.buf and v = ref v and pos = ref t.len in
    while !v >= 0x80 do
      Bytes.unsafe_set buf !pos (Char.unsafe_chr (!v land 0x7f lor 0x80));
      v := !v lsr 7;
      incr pos
    done;
    Bytes.unsafe_set buf !pos (Char.unsafe_chr !v);
    t.len <- !pos + 1

  (* Most of the log's integers fit one byte: that case is small enough
     to inline at every call site. *)
  let[@inline] uvar t v =
    if v >= 0 && v < 0x80 && t.len < Bytes.length t.buf then begin
      Bytes.unsafe_set t.buf t.len (Char.unsafe_chr v);
      t.len <- t.len + 1
    end
    else uvar_long t v

  let raw_substring t s off n =
    ensure t n;
    Bytes.blit_string s off t.buf t.len n;
    t.len <- t.len + n

  let raw_string t s = raw_substring t s 0 (String.length s)

  let string t s =
    u32 t (String.length s);
    raw_string t s

  let bytes t b = string t (Bytes.unsafe_to_string b)

  let uvar_string t s =
    uvar t (String.length s);
    raw_string t s

  let uvar_bytes t b = uvar_string t (Bytes.unsafe_to_string b)

  let list t f xs =
    u32 t (List.length xs);
    List.iter (fun x -> f t x) xs

  let uvar_list t f xs =
    uvar t (List.length xs);
    List.iter (fun x -> f t x) xs

  let contents t = Bytes.sub t.buf 0 t.len

  let output oc t = output oc t.buf 0 t.len

  (* Zero-copy view of the arena: bytes [0, length) are the written
     contents. Valid only until the next write/reset — callers must not
     retain it, and must not mutate through it. *)
  let unsafe_view t = Bytes.unsafe_to_string t.buf

  let sub_string t off len =
    if off < 0 || len < 0 || off + len > t.len then
      invalid_arg "Bytebuf.W.sub_string: out of range";
    Bytes.sub_string t.buf off len

  let get_u32 t off =
    if off < 0 || off + 4 > t.len then invalid_arg "Bytebuf.W.get_u32: out of range";
    Int32.to_int (Bytes.get_int32_le t.buf off) land 0xFFFFFFFF

  let crc_from t off =
    if off < 0 || off > t.len then invalid_arg "Bytebuf.W.crc: out of range";
    Crc.update 0 (Bytes.unsafe_to_string t.buf) off (t.len - off)

  let crc ?(off = 0) t = crc_from t off

  (* Append [src]'s contents to [dst] and return their CRC32, computed over
     the freshly written region — the frame-append path's single-pass
     copy+checksum (no intermediate payload bytes are materialized). *)
  let append_with_crc dst src =
    let n = src.len in
    ensure dst n;
    Bytes.blit src.buf 0 dst.buf dst.len n;
    let off = dst.len in
    dst.len <- dst.len + n;
    Crc.update 0 (Bytes.unsafe_to_string dst.buf) off n
end

module type SINK = sig
  type t

  val u8 : t -> int -> unit
  val uvar : t -> int -> unit
  val uvar_string : t -> string -> unit
  val uvar_list : t -> (t -> 'a -> unit) -> 'a list -> unit
end

module Count = struct
  type t = { mutable n : int }

  let create () = { n = 0 }

  let length t = t.n

  let u8 t v =
    if v < 0 || v > 0xff then invalid_arg (Printf.sprintf "Bytebuf.Count.u8: %d out of range" v);
    t.n <- t.n + 1

  let uvar t v = t.n <- t.n + uvar_size v

  let uvar_string t s = t.n <- t.n + uvar_size (String.length s) + String.length s

  let uvar_list t f xs =
    uvar t (List.length xs);
    List.iter (fun x -> f t x) xs
end

type 'a enc = {
  size : 'a -> int;
  write : W.t -> 'a -> unit;
}

let enc count write =
  {
    size =
      (fun v ->
        let c = Count.create () in
        count c v;
        Count.length c);
    write;
  }

let raw_bytes =
  { size = Bytes.length; write = (fun w b -> W.raw_string w (Bytes.unsafe_to_string b)) }

let encode e v =
  let n = e.size v in
  let w = { W.buf = Bytes.create n; len = 0 } in
  e.write w v;
  if w.W.len <> n then
    invalid_arg (Printf.sprintf "Bytebuf.encode: wrote %d bytes, sized %d" w.W.len n);
  w.W.buf

module R = struct
  type t = {
    src : string;
    mutable pos : int;
    lim : int;  (* exclusive end of the readable slice *)
  }

  let of_string src = { src; pos = 0; lim = String.length src }

  let of_bytes b = of_string (Bytes.unsafe_to_string b)

  (* A reader over a slice of [src] without copying it out first — the
     zero-copy read path: log-record payloads decode straight out of the
     segment arena, page bodies straight out of the stored image. *)
  let of_substring src ~off ~len =
    if off < 0 || len < 0 || off + len > String.length src then
      invalid_arg "Bytebuf.R.of_substring: slice out of range";
    { src; pos = off; lim = off + len }

  let pos t = t.pos

  let remaining t = t.lim - t.pos

  let need t n =
    if remaining t < n then
      raise (Corrupt (Printf.sprintf "truncated input: need %d bytes at offset %d, have %d" n t.pos (remaining t)))

  let u8 t =
    need t 1;
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = String.get_uint16_le t.src t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let v = Int32.to_int (String.get_int32_le t.src t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  let i64 t =
    need t 8;
    let v = Int64.to_int (String.get_int64_le t.src t.pos) in
    t.pos <- t.pos + 8;
    v

  let uvar_corrupt t what = raise (Corrupt (Printf.sprintf "%s varint at offset %d" what t.pos))

  (* At most [uvar_max_bytes]; the last byte may not be zero unless it is
     the only one (one encoding per value), and the ninth may not reach
     past bit 61 (the value must fit a non-negative [int]). One-byte
     values take [uvar]'s inlined branch; neither path allocates. *)
  let uvar_long t =
    let v = ref 0 and shift = ref 0 and i = ref t.pos and fin = ref false in
    while not !fin do
      if !i >= t.lim then uvar_corrupt t "truncated";
      let b = Char.code (String.unsafe_get t.src !i) in
      let n = !i - t.pos + 1 in
      if b < 0x80 then begin
        if b = 0 then uvar_corrupt t "over-long";
        if n = uvar_max_bytes && b > 0x3f then uvar_corrupt t "int-overflowing";
        fin := true
      end
      else if n = uvar_max_bytes then uvar_corrupt t "over-9-byte";
      v := !v lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      incr i
    done;
    t.pos <- !i;
    !v

  let[@inline] uvar t =
    if t.pos < t.lim && Char.code (String.unsafe_get t.src t.pos) < 0x80 then begin
      let b = Char.code (String.unsafe_get t.src t.pos) in
      t.pos <- t.pos + 1;
      b
    end
    else uvar_long t

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | n -> raise (Corrupt (Printf.sprintf "invalid bool byte %d" n))

  let string t =
    let n = u32 t in
    need t n;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let bytes t = Bytes.unsafe_of_string (string t)

  let raw_bytes t n =
    need t n;
    let b = Bytes.create n in
    Bytes.blit_string t.src t.pos b 0 n;
    t.pos <- t.pos + n;
    b

  let uvar_bytes t = raw_bytes t (uvar t)

  let uvar_string t = Bytes.unsafe_to_string (uvar_bytes t)

  let rest_bytes t = raw_bytes t (remaining t)

  let flags t ~bits =
    let f = u8 t in
    if f lsr bits <> 0 then
      raise (Corrupt (Printf.sprintf "bad flags byte 0x%02x at offset %d" f (t.pos - 1)));
    f

  let view t =
    let n = u32 t in
    need t n;
    let off = t.pos in
    t.pos <- t.pos + n;
    (t.src, off, n)

  let sub t =
    let src, off, len = view t in
    { src; pos = off; lim = off + len }

  let skip t n =
    need t n;
    t.pos <- t.pos + n

  let seek t pos =
    if pos < 0 || pos > t.lim then invalid_arg "Bytebuf.R.seek: position out of range";
    t.pos <- pos

  let list t f =
    let n = u32 t in
    List.init n (fun _ -> f t)

  let uvar_list t f =
    let n = uvar t in
    if n > remaining t then
      raise
        (Corrupt (Printf.sprintf "count %d exceeds the %d bytes left at offset %d" n (remaining t) t.pos));
    List.init n (fun _ -> f t)

  let expect_end t =
    if remaining t <> 0 then
      raise (Corrupt (Printf.sprintf "%d trailing bytes at offset %d" (remaining t) t.pos))
end
