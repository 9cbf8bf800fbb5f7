open Aries_util
module Lsn = Aries_wal.Lsn
module Latch = Aries_sched.Latch

type leaf = {
  mutable lf_sm_bit : bool;
  mutable lf_delete_bit : bool;
  mutable lf_prev : Ids.page_id;
  mutable lf_next : Ids.page_id;
  lf_keys : Key.t Vec.t;
}

type nonleaf = {
  mutable nl_sm_bit : bool;
  mutable nl_level : int;
  nl_children : Ids.page_id Vec.t;
  nl_high_keys : Key.t Vec.t;
}

type data = {
  dt_owner : int;
  dt_slots : bytes option Vec.t;
}

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
  mutable page_lsn : Lsn.t;
  mutable content : content;
  latch : Latch.t;
}

let create ~psize ~pid content =
  {
    pid;
    psize;
    page_lsn = Lsn.nil;
    content;
    latch = Latch.create ("page-" ^ string_of_int pid);
  }

let empty_leaf () =
  Leaf
    {
      lf_sm_bit = false;
      lf_delete_bit = false;
      lf_prev = Ids.nil_page;
      lf_next = Ids.nil_page;
      lf_keys = Vec.create ();
    }

let empty_nonleaf ~level =
  Nonleaf { nl_sm_bit = false; nl_level = level; nl_children = Vec.create (); nl_high_keys = Vec.create () }

let empty_data ~owner = Data { dt_owner = owner; dt_slots = Vec.create () }

let empty_anchor ~name ~unique =
  Anchor { an_root = Ids.nil_page; an_height = 0; an_unique = unique; an_name = name }

let kind_name = function
  | Leaf _ -> "leaf"
  | Nonleaf _ -> "nonleaf"
  | Data _ -> "data"
  | Anchor _ -> "anchor"

let wrong t want =
  invalid_arg (Printf.sprintf "Page %d: expected %s page, found %s" t.pid want (kind_name t.content))

let as_leaf t = match t.content with Leaf l -> l | Nonleaf _ | Data _ | Anchor _ -> wrong t "leaf"

let as_nonleaf t =
  match t.content with Nonleaf n -> n | Leaf _ | Data _ | Anchor _ -> wrong t "nonleaf"

let as_data t = match t.content with Data d -> d | Leaf _ | Nonleaf _ | Anchor _ -> wrong t "data"

let as_anchor t =
  match t.content with Anchor a -> a | Leaf _ | Nonleaf _ | Data _ -> wrong t "anchor"

let is_leaf t = match t.content with Leaf _ -> true | Nonleaf _ | Data _ | Anchor _ -> false

let sm_bit t =
  match t.content with
  | Leaf l -> l.lf_sm_bit
  | Nonleaf n -> n.nl_sm_bit
  | Data _ | Anchor _ -> wrong t "index"

let set_sm_bit t v =
  match t.content with
  | Leaf l -> l.lf_sm_bit <- v
  | Nonleaf n -> n.nl_sm_bit <- v
  | Data _ | Anchor _ -> wrong t "index"

let delete_bit t =
  match t.content with Leaf l -> l.lf_delete_bit | Nonleaf _ | Data _ | Anchor _ -> wrong t "leaf"

let set_delete_bit t v =
  match t.content with
  | Leaf l -> l.lf_delete_bit <- v
  | Nonleaf _ | Data _ | Anchor _ -> wrong t "leaf"

let header_bytes = 48

let record_cost b = Bytes.length b + 8

let used_bytes t =
  match t.content with
  | Leaf l -> Vec.fold (fun acc k -> acc + Key.on_page_cost k) 0 l.lf_keys
  | Nonleaf n ->
      Vec.fold (fun acc k -> acc + Key.on_page_cost k) 0 n.nl_high_keys
      + (8 * Vec.length n.nl_children)
  | Data d ->
      Vec.fold
        (fun acc slot -> acc + 4 + (match slot with Some b -> record_cost b | None -> 0))
        0 d.dt_slots
  | Anchor _ -> 32

let free_space t = t.psize - header_bytes - used_bytes t

let kind_tag = function Leaf _ -> 0 | Nonleaf _ -> 1 | Data _ -> 2 | Anchor _ -> 3

(* The on-disk image format: a version byte [0xA2], the body, and a CRC32
   trailer over everything before it.  The CRC is what lets a
   torn write or a flipped bit be *detected* on read instead of surfacing
   as a garbage decode — detection is the trigger for media repair. *)
let version_tag = 0xA2

let encode_body_into w t =
  Bytebuf.W.u8 w (kind_tag t.content);
  Bytebuf.W.i64 w t.pid;
  Bytebuf.W.i64 w t.page_lsn;
  (match t.content with
  | Leaf l ->
      Bytebuf.W.bool w l.lf_sm_bit;
      Bytebuf.W.bool w l.lf_delete_bit;
      Bytebuf.W.i64 w l.lf_prev;
      Bytebuf.W.i64 w l.lf_next;
      Bytebuf.W.u32 w (Vec.length l.lf_keys);
      Vec.iter (Key.encode w) l.lf_keys
  | Nonleaf n ->
      Bytebuf.W.bool w n.nl_sm_bit;
      Bytebuf.W.u16 w n.nl_level;
      Bytebuf.W.u32 w (Vec.length n.nl_children);
      Vec.iter (Bytebuf.W.i64 w) n.nl_children;
      Bytebuf.W.u32 w (Vec.length n.nl_high_keys);
      Vec.iter (Key.encode w) n.nl_high_keys
  | Data d ->
      Bytebuf.W.i64 w d.dt_owner;
      Bytebuf.W.u32 w (Vec.length d.dt_slots);
      Vec.iter
        (fun slot ->
          match slot with
          | None -> Bytebuf.W.bool w false
          | Some b ->
              Bytebuf.W.bool w true;
              Bytebuf.W.bytes w b)
        d.dt_slots
  | Anchor a ->
      Bytebuf.W.i64 w a.an_root;
      Bytebuf.W.u16 w a.an_height;
      Bytebuf.W.bool w a.an_unique;
      Bytebuf.W.string w a.an_name)

(* One pass into a size-hinted arena — the old path built the body in a
   128-byte writer (paying the growth-doubling copies up to page size),
   copied it into a fresh frame, then CRC'd the copy. Here the version
   byte and body are written once and the CRC is computed in place over
   the arena before the trailer lands; the only copy is the final
   [contents]. The byte layout is unchanged: [0xA2][body][u32 crc]. *)
let encode_into w t =
  Bytebuf.W.reset w;
  Bytebuf.W.u8 w version_tag;
  encode_body_into w t;
  let crc = Bytebuf.W.crc w in
  Bytebuf.W.u32 w crc;
  Bytebuf.W.contents w

let encode t = encode_into (Bytebuf.W.create ~size:(t.psize + 16) ()) t

(* On-demand decode of an entry area of [n] entries: one pass runs [skip]
   over each entry, making every bounds check that building it would make,
   and records where it starts. A damaged image therefore fails here,
   inside [Disk.read_with_image] where quarantine and media repair catch
   it, and building an entry later cannot fail. Each area's vector then
   builds entry [i] on first read from its offset through the shared
   reader, which keeps the image alive until every entry is built.
   [min_bytes] is the smallest encoded entry, so a garbage count is
   refused before anything is sized by it. *)
let offsets r n ~min_bytes skip =
  if n > Bytebuf.R.remaining r / min_bytes then
    raise
      (Bytebuf.Corrupt
         (Printf.sprintf "truncated input: %d entries at offset %d, have %d bytes" n
            (Bytebuf.R.pos r) (Bytebuf.R.remaining r)));
  let offs = Array.make n 0 in
  for i = 0 to n - 1 do
    offs.(i) <- Bytebuf.R.pos r;
    skip r
  done;
  offs

let keys r =
  let offs = offsets r (Bytebuf.R.u32 r) ~min_bytes:Key.min_encoded_bytes Key.skip in
  Vec.of_fn (Array.length offs) (fun i -> Key.decode_at r offs.(i))

let children r =
  let offs = offsets r (Bytebuf.R.u32 r) ~min_bytes:8 (fun r -> Bytebuf.R.skip r 8) in
  Vec.of_fn (Array.length offs) (fun i ->
      Bytebuf.R.seek r offs.(i);
      Bytebuf.R.i64 r)

let slots r =
  let offs =
    offsets r (Bytebuf.R.u32 r) ~min_bytes:1 (fun r ->
        if Bytebuf.R.bool r then Bytebuf.R.skip r (Bytebuf.R.u32 r))
  in
  Vec.of_fn (Array.length offs) (fun i ->
      Bytebuf.R.seek r offs.(i);
      if Bytebuf.R.bool r then Some (Bytebuf.R.bytes r) else None)

let decode_body ~psize r =
  let tag = Bytebuf.R.u8 r in
  let pid = Bytebuf.R.i64 r in
  let page_lsn = Bytebuf.R.i64 r in
  let content =
    match tag with
    | 0 ->
        let lf_sm_bit = Bytebuf.R.bool r in
        let lf_delete_bit = Bytebuf.R.bool r in
        let lf_prev = Bytebuf.R.i64 r in
        let lf_next = Bytebuf.R.i64 r in
        let lf_keys = keys r in
        Leaf { lf_sm_bit; lf_delete_bit; lf_prev; lf_next; lf_keys }
    | 1 ->
        let nl_sm_bit = Bytebuf.R.bool r in
        let nl_level = Bytebuf.R.u16 r in
        let nl_children = children r in
        let nl_high_keys = keys r in
        Nonleaf { nl_sm_bit; nl_level; nl_children; nl_high_keys }
    | 2 ->
        let dt_owner = Bytebuf.R.i64 r in
        let dt_slots = slots r in
        Data { dt_owner; dt_slots }
    | 3 ->
        let an_root = Bytebuf.R.i64 r in
        let an_height = Bytebuf.R.u16 r in
        let an_unique = Bytebuf.R.bool r in
        let an_name = Bytebuf.R.string r in
        Anchor { an_root; an_height; an_unique; an_name }
    | n -> raise (Bytebuf.Corrupt (Printf.sprintf "bad page kind tag %d" n))
  in
  Bytebuf.R.expect_end r;
  let page = create ~psize ~pid content in
  page.page_lsn <- page_lsn;
  page

(* [0xA2][body][u32 crc]. Verify before parsing — a torn or bit-rotted
   image must surface as a typed checksum error (which the buffer manager
   turns into quarantine + repair), never as a garbage structural decode.
   An image without the version byte is not a page image. *)
let decode ~psize b =
  let n = Bytes.length b in
  if n < 1 + 17 + 4 || Char.code (Bytes.get b 0) <> version_tag then
    Storage_error.raise_err Storage_error.Decode
      "not a page image (%dB, want a %02x version byte and >= 22B)" n version_tag;
  let stored = Int32.to_int (Bytes.get_int32_le b (n - 4)) land 0xFFFFFFFF in
  if Faultdisk.crc_checks_enabled () then begin
    let crc = Crc.update 0 (Bytes.unsafe_to_string b) 0 (n - 4) in
    if crc <> stored then begin
      (* sniff the claimed pid (offset 2: after version byte + kind tag)
         purely for diagnostics — it may itself be rotten *)
      let pid = Int64.to_int (Bytes.get_int64_le b 2) in
      Storage_error.raise_err ~pid Storage_error.Checksum
        "page image CRC mismatch (stored %08x, computed %08x, %dB)" stored crc n
    end
  end;
  (* zero-copy: parse the body straight out of the image slice *)
  decode_body ~psize (Bytebuf.R.of_substring (Bytes.unsafe_to_string b) ~off:1 ~len:(n - 5))

let equal a b = a.pid = b.pid && a.page_lsn = b.page_lsn && Bytes.equal (encode a) (encode b)

let pp ppf t =
  Format.fprintf ppf "@[<v2>page %d (%s) lsn=%a free=%d" t.pid (kind_name t.content) Lsn.pp
    t.page_lsn (free_space t);
  (match t.content with
  | Leaf l ->
      Format.fprintf ppf " sm=%b del=%b prev=%d next=%d@," l.lf_sm_bit l.lf_delete_bit l.lf_prev
        l.lf_next;
      Vec.iter (fun k -> Format.fprintf ppf "%a@," Key.pp k) l.lf_keys
  | Nonleaf n ->
      Format.fprintf ppf " sm=%b level=%d@," n.nl_sm_bit n.nl_level;
      Vec.iteri
        (fun i c ->
          if i < Vec.length n.nl_high_keys then
            Format.fprintf ppf "child %d < %a@," c Key.pp (Vec.get n.nl_high_keys i)
          else Format.fprintf ppf "child %d (rightmost)@," c)
        n.nl_children
  | Data d ->
      Vec.iteri
        (fun i slot ->
          match slot with
          | Some b -> Format.fprintf ppf "slot %d: %dB@," i (Bytes.length b)
          | None -> Format.fprintf ppf "slot %d: (free)@," i)
        d.dt_slots
  | Anchor a ->
      Format.fprintf ppf " root=%d height=%d unique=%b name=%s" a.an_root a.an_height a.an_unique
        a.an_name);
  Format.fprintf ppf "@]"
