exception Corrupt of string

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

  let raw_substring t s off n =
    ensure t n;
    Bytes.blit_string s off t.buf t.len n;
    t.len <- t.len + n

  let raw_string t s = raw_substring t s 0 (String.length s)

  let string t s =
    u32 t (String.length s);
    raw_string t s

  let bytes t b = string t (Bytes.unsafe_to_string b)

  let list t f xs =
    u32 t (List.length xs);
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

  let crc ?(off = 0) t =
    if off < 0 || off > t.len then invalid_arg "Bytebuf.W.crc: out of range";
    Crc.update 0 (Bytes.unsafe_to_string t.buf) off (t.len - off)

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

  let expect_end t =
    if remaining t <> 0 then
      raise (Corrupt (Printf.sprintf "%d trailing bytes at offset %d" (remaining t) t.pos))
end
