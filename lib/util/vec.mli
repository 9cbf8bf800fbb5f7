(** Growable array used for page entry arrays, run queues and log buffers.

    A vector made by {!of_fn} builds its elements on demand: the page
    codec uses it so that a page read from disk builds only the keys and
    rows a caller reads. *)

type 'a t

val create : unit -> 'a t

val of_fn : int -> (int -> 'a) -> 'a t
(** [of_fn n f] has length [n]; element [i] is [f i], computed on its
    first {!get} (or {!binary_search} probe) and then cached, so [f] runs
    at most once per index. Any other operation — mutation, iteration,
    {!copy}, {!to_list}, {!to_array} — first computes every pending
    element, after which the vector is an ordinary one. [f] must not
    fail and must not touch the vector; it may be called in any index
    order. Raises [Invalid_argument] if [n < 0]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Bounds-checked. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the last element. Raises [Invalid_argument] if empty. *)

val insert : 'a t -> int -> 'a -> unit
(** [insert t i x] shifts elements [i..] right and writes [x] at [i]. *)

val remove : 'a t -> int -> 'a
(** [remove t i] removes and returns element [i], shifting the tail left. *)

val drop_front : 'a t -> int -> unit
(** [drop_front t n] removes the first [n] elements, keeping the order of
    the rest. Raises [Invalid_argument] unless [0 <= n <= length t]. *)

val swap_remove : 'a t -> int -> 'a
(** O(1) removal that does not preserve order. *)

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val find_index : ('a -> bool) -> 'a t -> int option

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val to_array : 'a t -> 'a array

val copy : 'a t -> 'a t

val binary_search : compare:('a -> 'key -> int) -> 'a t -> 'key -> (int, int) result
(** [binary_search ~compare t key] is [Ok i] if element [i] compares equal to
    [key], or [Error i] where [i] is the insertion point that keeps the vector
    sorted. Requires the vector sorted w.r.t. [compare]. *)
