(* CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
   guarding every stored page image, log-record frame and sealed-segment
   footer.  Returns the 32-bit value as a non-negative int (OCaml ints are
   63-bit so the full range fits).

   Two engines over the same polynomial:

   - [update_bytewise]: the classic one-table byte-at-a-time loop.  Kept as
     the differential-testing reference and the benchmark baseline.
   - [update]: slice-by-16.  Sixteen derived tables let the loop consume
     sixteen input bytes per iteration (sixteen unchecked byte loads and
     table lookups folded with xor), which is where the hot paths spend their
     time: page-image encode/decode, log-frame append and the restart tail
     scan all CRC whole buffers.

   All tables are built eagerly at module init — the former [lazy] table
   put a [Lazy.force] branch on every [update] call.

   Why CRC32 and not a keyed hash: the adversary here is the *storage
   medium* (torn sector writes, bit-rot), not a malicious writer.  A
   32-bit CRC detects all single-bit and all burst errors up to 32 bits,
   which is exactly the fault model `Faultdisk` injects. *)

let table =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

(* tables.(0) = table; tables.(k).(n) advances the CRC of byte [n] through
   [k] further zero bytes — the standard slicing construction, built out
   to 16 tables so the main loop can eat 16 bytes per iteration. *)
let tables =
  let ts = Array.init 16 (fun _ -> Array.make 256 0) in
  ts.(0) <- table;
  for k = 1 to 15 do
    for n = 0 to 255 do
      let prev = ts.(k - 1).(n) in
      ts.(k).(n) <- table.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  ts

let update_bytewise crc s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Crc.update_bytewise: slice out of bounds";
  let t = table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c := t.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let update crc s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Crc.update: slice out of bounds";
  let t0 = tables.(0) and t1 = tables.(1) and t2 = tables.(2) and t3 = tables.(3) in
  let t4 = tables.(4) and t5 = tables.(5) and t6 = tables.(6) and t7 = tables.(7) in
  let t8 = tables.(8) and t9 = tables.(9) and t10 = tables.(10) and t11 = tables.(11) in
  let t12 = tables.(12) and t13 = tables.(13) and t14 = tables.(14) and t15 = tables.(15) in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref off in
  let fin = off + len in
  (* sixteen bytes per iteration; the trailing <16 bytes fall through to
     the bytewise loop below. Only the first four lanes depend on the
     running register, so twelve of the sixteen lookups are independent —
     that instruction-level parallelism is most of the win over the
     bytewise loop, whose every step serialises on the register. Bounds
     were validated up front, so the loads and the table lookups are
     unsafe: plain byte reads (no boxed [Int32] from [get_int32_le]) and
     unchecked indexing (every index is masked to 0..255, and the CRC
     register never exceeds 32 bits). *)
  let b = Bytes.unsafe_of_string s in
  while fin - !i >= 16 do
    let p = !i and c0 = !c in
    c :=
      Array.unsafe_get t15 ((c0 lxor Char.code (Bytes.unsafe_get b p)) land 0xFF)
      lxor Array.unsafe_get t14
             (((c0 lsr 8) lxor Char.code (Bytes.unsafe_get b (p + 1))) land 0xFF)
      lxor Array.unsafe_get t13
             (((c0 lsr 16) lxor Char.code (Bytes.unsafe_get b (p + 2))) land 0xFF)
      (* no mask: the register is 32-bit, so [c0 lsr 24] is already <= 0xFF *)
      lxor Array.unsafe_get t12 ((c0 lsr 24) lxor Char.code (Bytes.unsafe_get b (p + 3)))
      lxor Array.unsafe_get t11 (Char.code (Bytes.unsafe_get b (p + 4)))
      lxor Array.unsafe_get t10 (Char.code (Bytes.unsafe_get b (p + 5)))
      lxor Array.unsafe_get t9 (Char.code (Bytes.unsafe_get b (p + 6)))
      lxor Array.unsafe_get t8 (Char.code (Bytes.unsafe_get b (p + 7)))
      lxor Array.unsafe_get t7 (Char.code (Bytes.unsafe_get b (p + 8)))
      lxor Array.unsafe_get t6 (Char.code (Bytes.unsafe_get b (p + 9)))
      lxor Array.unsafe_get t5 (Char.code (Bytes.unsafe_get b (p + 10)))
      lxor Array.unsafe_get t4 (Char.code (Bytes.unsafe_get b (p + 11)))
      lxor Array.unsafe_get t3 (Char.code (Bytes.unsafe_get b (p + 12)))
      lxor Array.unsafe_get t2 (Char.code (Bytes.unsafe_get b (p + 13)))
      lxor Array.unsafe_get t1 (Char.code (Bytes.unsafe_get b (p + 14)))
      lxor Array.unsafe_get t0 (Char.code (Bytes.unsafe_get b (p + 15)));
    i := p + 16
  done;
  while !i < fin do
    c := t0.((!c lxor Char.code (String.unsafe_get s !i)) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let string s = update 0 s 0 (String.length s)

let bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  update 0 (Bytes.unsafe_to_string b) off len

(* {2 CRC combination}

   [combine ca cb len_b] = CRC of the concatenation [a ^ b] given only
   [ca = crc a], [cb = crc b] and [len_b] — zlib's crc32_combine.  Advancing
   a CRC through [len_b] zero bytes is multiplication by a fixed 32x32
   matrix over GF(2); square-and-multiply over the bit decomposition of
   [len_b] makes it O(log len_b).  This is what makes slice-level
   incrementality sound: a cached CRC of an unchanged prefix can be
   combined with a re-CRC of only the changed suffix. *)

let gf2_times m v =
  let r = ref 0 and v = ref v and i = ref 0 in
  while !v <> 0 do
    if !v land 1 = 1 then r := !r lxor m.(!i);
    v := !v lsr 1;
    incr i
  done;
  !r

let gf2_square dst m =
  for i = 0 to 31 do
    dst.(i) <- gf2_times m m.(i)
  done

let combine ca cb len_b =
  if len_b < 0 then invalid_arg "Crc.combine: negative length";
  if len_b = 0 then ca
  else begin
    let even = Array.make 32 0 and odd = Array.make 32 0 in
    (* odd = the "advance one zero bit" operator: one step of the reflected
       LFSR (row 0 is the polynomial; row k shifts bit k-1 in) *)
    odd.(0) <- 0xEDB88320;
    let row = ref 1 in
    for i = 1 to 31 do
      odd.(i) <- !row;
      row := !row lsl 1
    done;
    gf2_square even odd;  (* even = advance 2 zero bits *)
    gf2_square odd even;  (* odd  = advance 4 zero bits *)
    let c = ref ca and n = ref len_b in
    let continue_ = ref true in
    while !continue_ do
      gf2_square even odd;  (* advance by 8, 32, 128, ... zero *bytes* *)
      if !n land 1 = 1 then c := gf2_times even !c;
      n := !n lsr 1;
      if !n = 0 then continue_ := false
      else begin
        gf2_square odd even;
        if !n land 1 = 1 then c := gf2_times odd !c;
        n := !n lsr 1;
        if !n = 0 then continue_ := false
      end
    done;
    !c lxor cb
  end
