(** Index-manager log record payloads (rm_id {!rm_id}).

    Every body names exactly one page's change so that redo is always
    page-oriented (§3 "Logging": each log record contains the identity of
    the affected page and the inserted or deleted key). The same opcodes are
    used by forward-processing Update records and by CLRs — a CLR that
    compensates a key insert simply carries a [Delete_key] body for the page
    the key currently lives on.

    Structure-modification opcodes carry enough state to be {e undone}
    page-oriented too (removed keys, old link values, positions), because a
    partially completed SMO interrupted by a crash is rolled back
    page-oriented to restore structural consistency (§3). *)

open Aries_util
module Key = Aries_page.Key

val rm_id : int
(** Resource-manager id of the index manager. *)

type body =
  | Insert_key of {
      ix : Ids.index_id;  (** owning index (anchor pid): logical undo must
                              know which tree to re-traverse *)
      key : Key.t;
      reset_sm : bool;  (** Fig 6: insert observed a stale SM_Bit and resets it *)
      reset_delete : bool;  (** Fig 6: likewise for the Delete_Bit *)
    }
  | Delete_key of {
      ix : Ids.index_id;
      key : Key.t;
      reset_sm : bool;  (** Fig 7: delete observed a stale SM_Bit and resets it *)
      set_sm : bool;
          (** the delete empties the page at the start of a page-delete SMO:
              mark it so no empty page is ever reachable with SM_Bit = 0 *)
      mark_delete_bit : bool;
          (** Fig 7: '1' unless the delete ran under the tree latch (POSC),
              and never for CLR deletes (they are redo-only, nothing will
              consume-then-need-to-undo them) *)
    }
  | Format_leaf of {
      keys : Key.t list;
      prev : Ids.page_id;
      next : Ids.page_id;
      sm_bit : bool;
    }  (** (re)initialize a leaf page wholesale: new page of a split, index
          creation, or — with empty keys — the CLR that un-formats it *)
  | Leaf_truncate of {
      removed : Key.t list;  (** the upper keys moved right by a split *)
      old_next : Ids.page_id;
      new_next : Ids.page_id;
    }  (** split source page: drop [removed], link to the new page, SM_Bit:=1 *)
  | Leaf_restore of {
      add_keys : Key.t list;
      set_prev : Ids.page_id option;
      set_next : Ids.page_id option;
    }  (** CLR body undoing truncate/relink/unlink *)
  | Leaf_relink of {
      old_prev : Ids.page_id;
      new_prev : Ids.page_id;
      old_next : Ids.page_id;
      new_next : Ids.page_id;
    }  (** neighbor pointer surgery (split right-neighbor, page delete) *)
  | Leaf_unlink of { old_prev : Ids.page_id; old_next : Ids.page_id }
      (** page delete victim: cleared links, SM_Bit:=1, now an orphan *)
  | Format_nonleaf of {
      level : int;
      children : Ids.page_id list;
      high_keys : Key.t list;
      sm_bit : bool;
    }
  | Nl_insert_child of {
      child_idx : int;  (** insertion index in the children vector *)
      sep_idx : int;  (** insertion index in the high-keys vector *)
      sep : Key.t;
      child : Ids.page_id;
    }  (** post a split to the parent, SM_Bit:=1 *)
  | Nl_remove_child of {
      child_idx : int;
      child : Ids.page_id;
      sep_idx : int;  (** meaningful iff [sep] is [Some] *)
      sep : Key.t option;  (** [None] when the parent had a single child *)
      level : int;  (** the parent's level, needed to compensate a
                        removal that emptied the page *)
    }  (** remove a deleted page from its parent, SM_Bit:=1 *)
  | Nl_truncate of {
      keep_children : int;  (** children (and [keep_children - 1] high keys) kept *)
      removed_children : Ids.page_id list;
      removed_high_keys : Key.t list;
          (** the dropped suffix, {e including} the separator pushed up to the
              grandparent (it leaves this page) — kept for page-oriented undo *)
    }  (** nonleaf split source: drop the upper entries, SM_Bit:=1 *)
  | Nl_restore of { add_children : Ids.page_id list; add_high_keys : Key.t list }
      (** CLR body undoing a nonleaf truncate: re-append the suffix *)
  | Anchor_set of {
      old_root : Ids.page_id;
      new_root : Ids.page_id;
      old_height : int;
      new_height : int;
    }
  | Format_anchor of { name : string; unique : bool; root : Ids.page_id; height : int }
  | Reset_bits of { sm : bool; delete : bool }
      (** redo-only housekeeping: clear the named bits (Fig 8 optional step) *)

val op_of_body : body -> int

val enc : body Bytebuf.enc
(** The body's exact size and its writer, from one emitter: every integer
    a varint, the booleans in one leading flags byte, keys as a varint
    length, the value, a varint rid page and a varint rid slot. A negative
    field raises [Invalid_argument] when sized. {!Txnmgr.log_update} writes
    the body with it straight into the log. *)

val encode : body -> bytes
(** [enc]'s bytes, in one exactly-sized buffer. *)

val decode : op:int -> bytes -> body
(** Raises [Bytebuf.Corrupt] on a body that is cut short, runs too long,
    has an unknown flag bit or a malformed varint. *)

val op_name : int -> string

val pp : Format.formatter -> body -> unit
