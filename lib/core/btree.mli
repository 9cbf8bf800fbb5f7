(** The ARIES/IM index manager.

    Implements the full protocol of the paper on top of the ARIES substrate:

    - tree traversal with latch coupling, at most two page latches held,
      restart-from-root on SM_Bit ambiguity (Figure 4);
    - Fetch / Fetch Next with next-key locking of the not-found case and
      the conditional-lock / unlatch / unconditional-lock / revalidate dance
      (Figure 5, §2.2-2.3);
    - Insert with instant-duration next-key locking and unique-index
      checking (Figure 6, §2.4);
    - Delete with commit-duration next-key locking, Delete_Bit maintenance
      and the boundary-key POSC rule (Figure 7, §2.5, §3);
    - page split and page delete as nested top actions under the X tree
      latch, propagated bottom-up, insert-after / delete-before ordering
      (Figures 8-10);
    - page-oriented undo whenever possible, logical undo (re-traversal,
      possibly with SMOs logged as regular records) otherwise (§3);
    - pluggable locking protocols (data-only / index-specific / KVL /
      System R) — see {!Protocol}.

    One {!env} exists per (transaction manager, buffer pool) pair; it owns
    the resource-manager registration and the registry mapping index ids
    (anchor page ids) to open trees, which restart undo uses to resolve
    logical undos. *)

open Aries_util
module Key = Aries_page.Key
module Txnmgr = Aries_txn.Txnmgr

exception Unique_violation of string
(** Raised by insert into a unique index when the value is already present
    (in the committed state, per §2.4). *)

exception Key_not_found of string
(** Raised by delete of a key that is not in the index. *)

exception Structural_fault of string
(** A traversal met a structurally impossible state. With the protocol
    intact this cannot happen; the Figure-11 ablation (Delete_Bit disabled)
    provokes it. *)

type config = {
  locking : Protocol.locking;
  delete_bit_enabled : bool;  (** ablation flag for experiment E11 *)
  reset_sm_bits : bool;  (** Figure 8's optional post-SMO bit reset *)
  serialize_smo_ops : bool;
      (** strawman for Q5: take the tree latch for {e every} operation,
          modeling index managers that block all traffic during SMOs *)
  concurrent_smos : bool;
      (** the §5 extension: replace the tree latch with a tree {e lock} so
          SMOs can run concurrently — leaf-level SMOs take IX, SMOs needing
          nonleaf restructuring upgrade to X (the upgrade can deadlock, in
          which case the transaction aborts and the partial SMO rolls back
          page-oriented), and rolling-back transactions take X outright.
          The optional SM_Bit reset is suppressed in this mode (a completed
          SMO's reset could clear a concurrent SMO's still-needed bit). *)
}

val default_config : config
(** Data-only locking, Delete_Bit on, SM_Bit reset on, no strawman,
    serialized SMOs (the paper's base presentation). *)

(** {1 Environment} *)

type env

val env : ?config:config -> Txnmgr.t -> Aries_buffer.Bufpool.t -> env
(** Creates the environment and registers the index resource manager with
    the transaction manager. [config] is the default for trees opened
    implicitly during recovery. *)

val env_config : env -> config
(** The [config] the environment was made with ({!default_config} if none). *)

val env_mvstore : env -> Mvstore.t
(** The MVCC version store backing trees opened under {!Protocol.Mvcc}:
    writers append pending versions before logging their page changes,
    the transaction manager's txn-end hook (installed by {!env}) stamps
    them with the commit CSN, and snapshot readers resolve against it
    without touching the lock manager (rule R9). *)

val rebuild_versions : env -> unit
(** Restart: clear and rebuild the (volatile) version store from the log
    history — call after Analysis has rebuilt the transaction table but
    before user transactions are served. Only in-flight transactions'
    records are replayed (pending versions for losers and in-doubt
    prepared txns); committed history needs no chains, because every
    post-restart snapshot pins above it and the redone physical tree IS
    its committed state. *)

(** {1 Trees} *)

type t

val create : ?config:config -> env -> Txnmgr.txn -> name:string -> unique:bool -> t
(** Allocate and log a new index (anchor page + empty root leaf) within the
    given transaction. The anchor page id is the index id. *)

val open_existing : ?config:config -> env -> Ids.index_id -> t
(** Open an index by its anchor page id (e.g. after restart). *)

val index_id : t -> Ids.index_id

val name : t -> string

val unique : t -> bool

val config : t -> config

(** {1 Operations} (must run inside a scheduler fiber) *)

val insert : t -> Txnmgr.txn -> value:string -> rid:Ids.rid -> unit

val delete : t -> Txnmgr.txn -> value:string -> rid:Ids.rid -> unit

val fetch :
  t ->
  Txnmgr.txn ->
  ?comparison:[ `Eq | `Ge | `Gt ] ->
  ?isolation:[ `Rr | `Cs ] ->
  string ->
  Key.t option
(** [fetch t txn v] returns the first key whose value satisfies the
    comparison against [v] (default [`Eq]), locking it for commit duration;
    in the not-found case the next key (or the EOF name) has been S-locked,
    guaranteeing repeatable read.

    [~isolation:`Cs] selects cursor stability (degree 2, §1.2): the
    current-key lock is held only while positioned, so re-reads are not
    repeatable, but only committed data is ever seen.

    Under {!Protocol.Mvcc} the fetch is a {e snapshot read} instead: the
    transaction's first fetch pins a snapshot CSN, every fetch resolves
    keys against the version store merged with the physical tree, no key
    lock is ever requested and no SMO is ever waited on (rule R9), and
    [isolation] is ignored — snapshot isolation supersedes it. *)

type cursor

val open_scan :
  t -> Txnmgr.txn -> ?comparison:[ `Ge | `Gt ] -> ?isolation:[ `Rr | `Cs ] -> string -> cursor
(** Position a range scan at the first key satisfying the condition. Under
    [`Cs] each position's lock is released when the cursor moves on. *)

val fetch_next :
  t -> Txnmgr.txn -> cursor -> ?stop:string * [ `Le | `Lt ] -> unit -> Key.t option
(** Next key in the range, [None] past the stop condition or at EOF.
    Repositions via a fresh traversal when the remembered leaf changed
    (§2.3). *)

(** {1 Inspection and checking} (test/bench support; no locking) *)

val to_list : t -> (string * Ids.rid) list
(** All keys in order, read without locks or transactions. *)

val check_invariants : t -> unit
(** Walks the whole tree and verifies: key order within and across leaves,
    high-key bounds, leaf chain consistency (prev/next symmetric, ordered),
    uniform leaf depth, no reachable empty page with SM_Bit = 0 (except an
    empty root), children/high-key arity. Raises [Failure] with a
    description on the first violation. *)

val height : t -> int

val page_count : t -> int
(** Pages currently reachable from the root (anchor excluded). *)

val root_pid : t -> Ids.page_id

val locate_leaf : t -> string -> Ids.page_id
(** Unlocked routing: the leaf page a search for this value reaches
    (test/bench support). *)

val leaf_pids : t -> Ids.page_id list
(** The leaf chain, left to right (unlocked; test/bench support). *)

(** {1 Hooks} (deterministic scenario scripting, e.g. experiments E3/E11) *)

val set_smo_pause : env -> (unit -> unit) option -> unit
(** A callback invoked during SMO propagation, after the leaf-level changes
    are logged but before they are posted to the parent. Scenario tests use
    it to suspend the SMO fiber at the paper's problem window. Applies to
    every tree of the environment; return normally to continue. *)
