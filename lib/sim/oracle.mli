(** The committed-state oracle.

    A pure map from index value to RID, updated only by the operations of
    {e committed} transactions, in serialization order. Because the
    simulation workload partitions the key space per fiber (and strict 2PL
    serializes in commit order within a fiber's program order), applying
    each fiber's committed transactions in program order yields exactly the
    state a correct ARIES/IM must expose after any crash/restart.

    Which transactions count as committed is read from the {e log}, not from
    the workload's bookkeeping: a transaction is committed iff its Commit
    record survives in the (post-crash, hence stable) log. The workload's
    "acked" flag (Txnmgr.commit returned) is then checked {e against} the
    log: every acked transaction must have a surviving Commit record —
    the durability half of the contract, and the check that catches a
    skipped commit force. *)

open Aries_util

type op =
  | Insert of string * Ids.rid
  | Delete of string * Ids.rid

type t
(** The pure committed-state map (value -> rid). *)

val empty : t

val apply_op : t -> op -> t

val apply : t -> op list -> t

val to_alist : t -> (string * Ids.rid) list
(** Sorted by value — directly comparable with [Btree.to_list]. *)

val op_to_string : op -> string

val committed_txns : Aries_db.Db.t -> (Ids.txn_id, unit) Hashtbl.t
(** Transaction ids with a Commit record in the full log history (archived
    reclaimed segments plus the live log, via {!Aries_db.Db.iter_log_history}).
    Called after [Db.crash], the history holds exactly the stable record
    sequence, so this is the ground truth for which transactions survived —
    even when the checkpoint daemon truncated the live prefix mid-run. *)

val diff_lines : t -> (string * Ids.rid) list -> string list
(** [diff_lines expected actual] describes every divergence (missing /
    extra / rid-mismatched values); empty when they agree. *)
