open Aries_util
module Logrec = Aries_wal.Logrec
module Lsn = Aries_wal.Lsn

type op =
  | Insert of string * Ids.rid
  | Delete of string * Ids.rid

module Smap = Map.Make (String)

type t = Ids.rid Smap.t

let empty = Smap.empty

let apply_op t = function
  | Insert (v, rid) -> Smap.add v rid t
  | Delete (v, _) -> Smap.remove v t

let op_to_string = function
  | Insert (v, rid) -> Printf.sprintf "+%s@%s" v (Ids.rid_to_string rid)
  | Delete (v, rid) -> Printf.sprintf "-%s@%s" v (Ids.rid_to_string rid)

(* The full history — archived segments plus the live log — so the oracle
   stays exact when the checkpoint daemon truncated the live prefix
   mid-run: a Commit record in a reclaimed segment still counts. Across
   multiple WAL streams a surviving Commit record is only half the story:
   a shuffled crash can keep the commit while dropping the transaction's
   records on other streams, so the oracle applies exactly the validity
   test recovery does — every record named in the commit's fence-target
   vector must itself have survived. *)
let committed_txns db =
  let set = Hashtbl.create 64 in
  let logs = db.Aries_db.Db.logs in
  Aries_db.Db.iter_log_history db ~from:Lsn.nil (fun r ->
      if r.Logrec.kind = Logrec.Commit && Aries_wal.Logset.commit_valid logs r then
        Hashtbl.replace set r.Logrec.txn ());
  set

let diff_lines expected actual =
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let actual_map =
    List.fold_left (fun m (v, rid) -> Smap.add v rid m) Smap.empty actual
  in
  Smap.iter
    (fun v rid ->
      match Smap.find_opt v actual_map with
      | None -> add "missing committed value %s (rid %s)" v (Ids.rid_to_string rid)
      | Some rid' when rid' <> rid ->
          add "value %s has rid %s, oracle says %s" v (Ids.rid_to_string rid')
            (Ids.rid_to_string rid)
      | Some _ -> ())
    expected;
  Smap.iter
    (fun v rid ->
      if not (Smap.mem v expected) then
        add "extra value %s (rid %s) — not committed" v (Ids.rid_to_string rid))
    actual_map;
  List.rev !lines
