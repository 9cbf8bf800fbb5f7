open Aries_util

let c_disk_eio_injected = Stats.counter Stats.disk_eio_injected
let c_page_reads = Stats.counter Stats.page_reads
let c_disk_torn_writes = Stats.counter Stats.disk_torn_writes
let c_page_writes = Stats.counter Stats.page_writes
let c_disk_bit_flips = Stats.counter Stats.disk_bit_flips
let cp_disk_write = Crashpoint.point "disk.write"

(* A stored image is a view [src.[off, off + len)]: a written image is
   the whole of its own bytes, a loaded one a slice of the snapshot it
   was parsed from, never a copy. *)
type image = {
  src : string;
  off : int;
  len : int;
}

type t = {
  psize : int;
  store : (Ids.page_id, image) Hashtbl.t;
  mutable next_pid : Ids.page_id;
}

let whole b = { src = Bytes.unsafe_to_string b; off = 0; len = Bytes.length b }

(* The image as bytes: itself when it is a whole buffer, a copy of the
   slice when it views a snapshot. *)
let image_bytes im =
  if im.off = 0 && im.len = String.length im.src then Bytes.unsafe_of_string im.src
  else Bytes.of_string (String.sub im.src im.off im.len)

let create ?(page_size = 4096) () = { psize = page_size; store = Hashtbl.create 64; next_pid = 1 }

let page_size t = t.psize

let alloc_pid t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  pid

let note_pid t pid = if pid >= t.next_pid then t.next_pid <- pid + 1

(* Stored images are treated as immutable bytes: every mutation path
   (rewrite, [corrupt_flip], the torn-write fault) replaces the binding
   with a fresh object. That is what lets [read_with_image] hand a
   written image out zero-copy, [write_image] store an image without
   copying, a load keep images as views of the snapshot, and the decoded
   page build its entries from the stored bytes on demand (see
   [Page.decode]). *)
let decode_stored t pid image =
  if Faultdisk.fail_read () then begin
    Stats.incr c_disk_eio_injected;
    Storage_error.raise_err ~pid Storage_error.Io_transient "injected read EIO"
  end;
  Stats.incr c_page_reads;
  try Page.decode_slice ~psize:t.psize image.src ~off:image.off ~len:image.len with
  | Bytebuf.Corrupt msg ->
      (* a structurally unparseable stored image (rot with CRC checks
         disabled, say) — typed, with the true pid *)
      raise (Storage_error.of_corrupt ~pid msg)
  | Storage_error.Error i ->
      (* a CRC mismatch or a bad envelope from the codec: its pid was
         sniffed from possibly rotten bytes; substitute the authoritative
         one *)
      raise (Storage_error.Error { i with pid = Some pid })

let read t pid =
  match Hashtbl.find_opt t.store pid with
  | None -> None
  | Some image -> Some (decode_stored t pid image)

let read_with_image t pid =
  match Hashtbl.find_opt t.store pid with
  | None -> None
  | Some image -> Some (decode_stored t pid image, image_bytes image)

let store_image t pid image =
  let already = Crashpoint.tripped () in
  (try Crashpoint.hit cp_disk_write
   with Crashpoint.Crash _ as e ->
     (* The crash landed exactly on this write.  Under the torn-write fault
        the medium keeps a half-old/half-new image instead of atomically
        preserving the old one — only on the *tripping* event (post-trip
        hits model the frozen stable state, not more I/O). *)
     if (not already) && Faultdisk.torn_write_on () then begin
       let old_image =
         Option.map (fun im -> String.sub im.src im.off im.len) (Hashtbl.find_opt t.store pid)
       in
       let torn = Faultdisk.tear ~old_image ~new_image:(Bytes.to_string image) in
       Hashtbl.replace t.store pid (whole (Bytes.of_string torn));
       Stats.incr c_disk_torn_writes
     end;
     raise e);
  Stats.incr c_page_writes;
  let image =
    if Faultdisk.flip_now () then begin
      (* silent bit-rot: the write "succeeds" but one stored bit flips *)
      Stats.incr c_disk_bit_flips;
      Bytes.of_string (Faultdisk.flip_one_bit (Bytes.to_string image))
    end
    else image
  in
  Hashtbl.replace t.store pid (whole image)

let fail_write_maybe pid =
  if Faultdisk.fail_write () then begin
    Stats.incr c_disk_eio_injected;
    Storage_error.raise_err ~pid Storage_error.Io_transient "injected write EIO"
  end

let write t page =
  fail_write_maybe page.Page.pid;
  store_image t page.Page.pid (Page.encode page)

(* Write a pre-encoded image: the buffer pool's write-back (encoded
   through its shared arena) and media recovery's dump copy, which should
   not pay a fresh encode + CRC for bytes that already exist. Same fault
   machinery as [write]. *)
let write_image t pid image =
  fail_write_maybe pid;
  store_image t pid image

let exists t pid = Hashtbl.mem t.store pid

let free t pid = Hashtbl.remove t.store pid

let pids t = Hashtbl.fold (fun pid _ acc -> pid :: acc) t.store [] |> List.sort compare

let image_copy t =
  let copy = { psize = t.psize; store = Hashtbl.copy t.store; next_pid = t.next_pid } in
  copy

let corrupt_drop t pid = Hashtbl.remove t.store pid

let corrupt_flip ~seed t pid =
  match Hashtbl.find_opt t.store pid with
  | None -> ()
  | Some image when image.len > 0 ->
      let rng = Rng.create (0xB17F11B lxor seed) in
      let b = Bytes.of_string (String.sub image.src image.off image.len) in
      let i = Rng.int rng (Bytes.length b) and bit = Rng.int rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      Hashtbl.replace t.store pid (whole b)
  | Some _ -> ()

let page_count t = Hashtbl.length t.store

(* header: u32 page size, i64 next pid, u32 page count; per page: i64 pid
   and the u32-prefixed image *)
let serialized_bytes t = Hashtbl.fold (fun _ im acc -> acc + 12 + im.len) t.store 16

let serialize_into w t =
  Bytebuf.W.u32 w t.psize;
  Bytebuf.W.i64 w t.next_pid;
  Bytebuf.W.u32 w (Hashtbl.length t.store);
  List.iter
    (fun pid ->
      let im = Hashtbl.find t.store pid in
      Bytebuf.W.i64 w pid;
      Bytebuf.W.u32 w im.len;
      Bytebuf.W.raw_substring w im.src im.off im.len)
    (pids t)

let serialize t =
  let w = Bytebuf.W.create ~size:(serialized_bytes t) () in
  serialize_into w t;
  Bytebuf.W.contents w

let deserialize_from r =
  let last_pid = ref None in
  try
    let psize = Bytebuf.R.u32 r in
    let next_pid = Bytebuf.R.i64 r in
    let n = Bytebuf.R.u32 r in
    (* [n] is untrusted input: use it only as a clamped size {e hint}, so a
       garbage count can't make [Hashtbl.create] eagerly allocate gigabytes
       before the per-entry reads fail the bounds check *)
    let t = { psize; store = Hashtbl.create (max 16 (min n 4096)); next_pid } in
    for _ = 1 to n do
      let pid = Bytebuf.R.i64 r in
      last_pid := Some pid;
      (* the image stays a view of the snapshot: never copied *)
      let src, off, len = Bytebuf.R.view r in
      Hashtbl.replace t.store pid { src; off; len }
    done;
    Bytebuf.R.expect_end r;
    t
  with Bytebuf.Corrupt msg ->
    (* a short or mangled container must surface as a typed storage error
       naming the page being decoded, not a bare Corrupt *)
    raise (Storage_error.of_corrupt ?pid:!last_pid ("disk image: " ^ msg))

let deserialize b = deserialize_from (Bytebuf.R.of_bytes b)
