(** S/X latches (short-duration physical-consistency locks, [MHLPS92]).

    Latches differ from locks (cf. {!Aries_lock}) exactly as in the paper:
    they are cheap, have no deadlock detection, and are expected to be held
    only across short critical sections. Deadlock freedom is the caller's
    responsibility via ordering (parent before child, leaf before next
    leaf); a latch deadlock manifests as a scheduler stall in tests.

    Latches are not re-entrant: a fiber acquiring a latch it already holds
    is a protocol bug and raises [Invalid_argument] (an X self-acquire would
    otherwise self-deadlock silently). *)

type t

type mode = Aries_trace.Trace.latch_mode = S | X

type kind = Aries_trace.Trace.latch_kind = Page_latch | Tree_latch
(** Selects the instrumentation counters bumped; the trace carries it
    as is. *)

val create : ?kind:kind -> string -> t

val name : t -> string

val acquire : t -> mode -> unit
(** Unconditional: suspends the fiber until granted (FIFO, no barging past
    queued waiters). *)

val try_acquire : t -> mode -> bool
(** Conditional: grants only if compatible with current holders {e and} no
    fiber is queued (preserves fairness). Never suspends. *)

val release : t -> unit
(** Release the calling fiber's hold. Raises if it holds nothing. *)

val instant : t -> mode -> unit
(** [acquire] immediately followed by [release] — the paper's
    "instant duration" latch, used to wait for an SMO to complete. *)

val holds : t -> bool
(** Does the calling fiber hold this latch (any mode)? *)

val holds_mode : t -> mode -> bool

val holder_count : t -> int

val waiter_count : t -> int
