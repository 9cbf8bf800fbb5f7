type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  mutable pending : 'a pending;
}

(* Elements of an [of_fn] vector not yet built: [built] has one byte per
   element, nonzero once [data.(i)] holds it; it and [data] stay empty
   until the first element is built. *)
and 'a pending =
  | Built
  | Pending of { f : int -> 'a; mutable built : Bytes.t }

let create () = { data = [||]; len = 0; pending = Built }

let of_fn n f =
  if n < 0 then invalid_arg "Vec.of_fn: negative length";
  { data = [||]; len = n; pending = (if n = 0 then Built else Pending { f; built = Bytes.empty }) }

let length t = t.len

let is_empty t = t.len = 0

let out_of_bounds t i = invalid_arg (Printf.sprintf "Vec: index %d out of bounds [0,%d)" i t.len)

let[@inline] check t i = if i < 0 || i >= t.len then out_of_bounds t i

(* The capacity [push] reaches from empty for [n] elements. Building
   pending elements into it, not into an exact-size array, keeps the next
   insert from regrowing the array: a regrowth past 256 words lands in
   the major heap and, with a young filler, forces a minor collection. *)
let capacity n =
  let rec up c = if c >= n then c else up (2 * c) in
  up 8

(* Pending element [i], built once; the first build sizes the cache with
   the built element as filler. *)
let build t p i =
  match p with
  | Built -> t.data.(i)
  | Pending p ->
      if Bytes.length p.built = 0 then begin
        let x = p.f i in
        t.data <- Array.make (capacity t.len) x;
        p.built <- Bytes.make t.len '\000';
        Bytes.unsafe_set p.built i '\001';
        x
      end
      else if Bytes.unsafe_get p.built i <> '\000' then t.data.(i)
      else begin
        let x = p.f i in
        t.data.(i) <- x;
        Bytes.unsafe_set p.built i '\001';
        x
      end

(* Element [i], known in bounds. The [Built] test is kept inline so an
   ordinary vector pays one comparison for being able to be pending. *)
let[@inline] at t i = match t.pending with Built -> t.data.(i) | Pending _ as p -> build t p i

let build_all t p =
  match p with
  | Built -> ()
  | Pending p ->
      if Bytes.length p.built = 0 then begin
        let data = Array.make (capacity t.len) (p.f 0) in
        for i = 1 to t.len - 1 do
          data.(i) <- p.f i
        done;
        t.data <- data
      end
      else
        for i = 0 to t.len - 1 do
          if Bytes.unsafe_get p.built i = '\000' then t.data.(i) <- p.f i
        done;
      t.pending <- Built

(* Build every pending element; every operation other than [get],
   [length] and [binary_search] calls this first. *)
let[@inline] force t = match t.pending with Built -> () | Pending _ as p -> build_all t p

let get t i =
  check t i;
  at t i

let set t i x =
  check t i;
  force t;
  t.data.(i) <- x

let ensure t n x =
  if n > Array.length t.data then begin
    let cap = max 8 (max n (2 * Array.length t.data)) in
    let data = Array.make cap x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  force t;
  ensure t (t.len + 1) x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  force t;
  t.len <- t.len - 1;
  t.data.(t.len)

let insert t i x =
  if i < 0 || i > t.len then invalid_arg "Vec.insert: index out of bounds";
  force t;
  ensure t (t.len + 1) x;
  Array.blit t.data i t.data (i + 1) (t.len - i);
  t.data.(i) <- x;
  t.len <- t.len + 1

let remove t i =
  check t i;
  force t;
  let x = t.data.(i) in
  Array.blit t.data (i + 1) t.data i (t.len - i - 1);
  t.len <- t.len - 1;
  x

let drop_front t n =
  if n < 0 || n > t.len then invalid_arg "Vec.drop_front: count out of bounds";
  force t;
  Array.blit t.data n t.data 0 (t.len - n);
  t.len <- t.len - n

let swap_remove t i =
  check t i;
  force t;
  let x = t.data.(i) in
  t.data.(i) <- t.data.(t.len - 1);
  t.len <- t.len - 1;
  x

let clear t =
  force t;
  t.len <- 0

let iter f t =
  force t;
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  force t;
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  force t;
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  force t;
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let find_index p t =
  force t;
  let rec loop i =
    if i >= t.len then None else if p t.data.(i) then Some i else loop (i + 1)
  in
  loop 0

let to_list t =
  force t;
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.data.(i) :: acc) in
  loop (t.len - 1) []

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t

let to_array t =
  force t;
  Array.sub t.data 0 t.len

let copy t =
  force t;
  { data = Array.copy t.data; len = t.len; pending = Built }

let binary_search ~compare t key =
  let rec loop lo hi =
    (* invariant: all elements < lo compare below key, all >= hi above *)
    if lo >= hi then Error lo
    else
      let mid = (lo + hi) / 2 in
      let c = compare (at t mid) key in
      if c = 0 then Ok mid else if c < 0 then loop (mid + 1) hi else loop lo mid
  in
  loop 0 t.len
