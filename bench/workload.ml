(* Shared helpers for the experiment harness. *)

open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Logmgr = Aries_wal.Logmgr
module Btree = Aries_btree.Btree
module Protocol = Aries_btree.Protocol
module Txnmgr = Aries_txn.Txnmgr
module Sched = Aries_sched.Sched
module Db = Aries_db.Db
module Table = Aries_db.Table

let protocols =
  [ Protocol.Data_only; Protocol.Index_specific; Protocol.Kvl; Protocol.System_r; Protocol.Mvcc ]

let config_of locking = { Btree.default_config with Btree.locking }

(* run a thunk and return the named-counter deltas it produced *)
let measured f =
  let s = Stats.create () in
  let x = Stats.with_sink s f in
  (x, s)

let section ppf title =
  Format.fprintf ppf "@.=== %s ===@." title
