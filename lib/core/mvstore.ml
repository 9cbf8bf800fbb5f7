open Aries_util

(* Commit sequence number: the (epoch, gsn) pair the v3 log frames already
   carry. gsn alone is a total order (appends never yield), but the epoch is
   kept so a CSN names the group-commit batch that made it durable. *)
type csn = { cs_epoch : int; cs_gsn : int }

let csn_compare a b =
  match compare a.cs_epoch b.cs_epoch with 0 -> compare a.cs_gsn b.cs_gsn | c -> c

let csn_le a b = csn_compare a b <= 0

type version = {
  v_txn : Ids.txn_id;
  v_present : bool;  (* insert = true, delete = false *)
  mutable v_csn : csn option;  (* None while the writer is in flight *)
}

(* One chain per (value, rid) key, newest version first. Writers serialize
   per key through their commit-duration X record locks, so list order is
   reverse commit order. [ch_base] answers snapshots older than the whole
   recorded history: was the key present before the first version? *)
type chain = {
  ch_value : string;
  ch_rid : Ids.rid;
  ch_base : bool;
  mutable ch_versions : version list;
}

module Smap = Map.Make (String)

let c_mvcc_versions_reclaimed = Stats.counter Stats.mvcc_versions_reclaimed
let c_mvcc_versions_created = Stats.counter Stats.mvcc_versions_created

type t = {
  tables : (Ids.index_id, chain Smap.t ref) Hashtbl.t;
  pending : (Ids.txn_id, (Ids.index_id * string * version) list ref) Hashtbl.t;
  snapshots : (Ids.txn_id, csn) Hashtbl.t;
  (* per-store census: created - reclaimed must equal the live version
     count at all times. Kept in the store itself (not just the global
     Stats sink, which outlives any one store) so [Db.leak_report] can
     audit the balance exactly. *)
  mutable created : int;
  mutable reclaimed : int;
}

let create () =
  {
    tables = Hashtbl.create 4;
    pending = Hashtbl.create 16;
    snapshots = Hashtbl.create 16;
    created = 0;
    reclaimed = 0;
  }

let created_total t = t.created

let reclaimed_total t = t.reclaimed

(* [clear] credits everything it drops to the reclaimed counters — the
   created/reclaimed balance audited by [Db.leak_report] must survive a
   simulated crash wiping the volatile store. *)
let clear t =
  let dropped =
    Hashtbl.fold
      (fun _ m acc -> Smap.fold (fun _ ch acc -> acc + List.length ch.ch_versions) !m acc)
      t.tables 0
  in
  if dropped > 0 then begin
    t.reclaimed <- t.reclaimed + dropped;
    Stats.add c_mvcc_versions_reclaimed dropped
  end;
  Hashtbl.reset t.tables;
  Hashtbl.reset t.pending;
  Hashtbl.reset t.snapshots

(* Order-preserving canonical key: lexicographic order of canonicals equals
   (value, rid) order because the 0x00 separator sorts below every value
   byte and the rid is fixed-width. *)
let canonical value (rid : Ids.rid) =
  Printf.sprintf "%s\x00%016d.%016d" value rid.Ids.rid_page rid.Ids.rid_slot

let table t ix =
  match Hashtbl.find_opt t.tables ix with
  | Some m -> m
  | None ->
      let m = ref Smap.empty in
      Hashtbl.replace t.tables ix m;
      m

let find_chain t ~ix ~value ~rid = Smap.find_opt (canonical value rid) !(table t ix)

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let pin t ~txn ~csn = if not (Hashtbl.mem t.snapshots txn) then Hashtbl.replace t.snapshots txn csn

let pinned t ~txn = Hashtbl.find_opt t.snapshots txn

let unpin t ~txn = Hashtbl.remove t.snapshots txn

let live_snapshots t = Hashtbl.length t.snapshots

let horizon t ~current =
  Hashtbl.fold (fun _ c acc -> if csn_le c acc then c else acc) t.snapshots current

(* ------------------------------------------------------------------ *)
(* Writers *)

let register_pending t ~txn entry =
  match Hashtbl.find_opt t.pending txn with
  | Some l -> l := entry :: !l
  | None -> Hashtbl.replace t.pending txn (ref [ entry ])

let record t ~ix ~value ~rid ~txn ~present =
  let m = table t ix in
  let c = canonical value rid in
  let v = { v_txn = txn; v_present = present; v_csn = None } in
  let chain =
    match Smap.find_opt c !m with
    | Some ch ->
        ch.ch_versions <- v :: ch.ch_versions;
        ch
    | None ->
        (* a chain opened by a delete covers a key that was committed before
           versioning recorded it: the base state is "present" *)
        let ch = { ch_value = value; ch_rid = rid; ch_base = not present; ch_versions = [ v ] } in
        m := Smap.add c ch !m;
        ch
  in
  ignore chain;
  register_pending t ~txn (ix, c, v);
  t.created <- t.created + 1;
  Stats.incr c_mvcc_versions_created

(* Remove one pending version (rollback undo / abort). Tolerant: a version
   already removed (or a chain already dropped) is a no-op. *)
let drop_version t ~ix ~canon v =
  let m = table t ix in
  match Smap.find_opt canon !m with
  | None -> false
  | Some ch ->
      if List.memq v ch.ch_versions then begin
        ch.ch_versions <- List.filter (fun x -> x != v) ch.ch_versions;
        if ch.ch_versions = [] then m := Smap.remove canon !m;
        t.reclaimed <- t.reclaimed + 1;
        Stats.incr c_mvcc_versions_reclaimed;
        true
      end
      else false

let unrecord t ~ix ~value ~rid ~txn =
  let c = canonical value rid in
  (* drop the newest still-pending version this txn wrote for the key (undo
     runs newest-first, matching the chain order) *)
  (match Smap.find_opt c !(table t ix) with
  | None -> ()
  | Some ch -> (
      match List.find_opt (fun v -> v.v_txn = txn && v.v_csn = None) ch.ch_versions with
      | None -> ()
      | Some v ->
          ignore (drop_version t ~ix ~canon:c v);
          (match Hashtbl.find_opt t.pending txn with
          | Some l -> l := List.filter (fun (_, _, x) -> x != v) !l
          | None -> ())))

(* ------------------------------------------------------------------ *)
(* Transaction end *)

let commit_txn t ~txn ~csn =
  (match Hashtbl.find_opt t.pending txn with
  | Some l ->
      List.iter (fun (_, _, v) -> v.v_csn <- Some csn) !l;
      Hashtbl.remove t.pending txn
  | None -> ());
  unpin t ~txn

let abort_txn t ~txn =
  (match Hashtbl.find_opt t.pending txn with
  | Some l ->
      List.iter (fun (ix, canon, v) -> ignore (drop_version t ~ix ~canon v)) !l;
      Hashtbl.remove t.pending txn
  | None -> ());
  unpin t ~txn

(* ------------------------------------------------------------------ *)
(* Snapshot reads *)

type resolution =
  | No_chain  (* unversioned key: visibility = physical presence in the tree *)
  | Visible of csn option  (* the deciding version's CSN; None = own pending write *)
  | Invisible

let resolve_chain chain ~txn ~snap =
  let rec go = function
    | [] -> if chain.ch_base then Visible None else Invisible
    | v :: rest -> (
        if v.v_txn = txn && v.v_csn = None then
          (* the reader's own in-flight write *)
          if v.v_present then Visible None else Invisible
        else
          match v.v_csn with
          | Some c when csn_le c snap -> if v.v_present then Visible (Some c) else Invisible
          | Some _ | None -> go rest)
  in
  go chain.ch_versions

let resolve t ~ix ~value ~rid ~txn ~snap =
  match find_chain t ~ix ~value ~rid with
  | None -> No_chain
  | Some ch -> resolve_chain ch ~txn ~snap

(* First chain at or after [value] (strictly after (value, rid) when [after]
   is given) visible at [snap]; readers merge this with the first
   unversioned tree key to answer range probes. *)
let first_visible t ~ix ?after ~txn ~snap value =
  let from = match after with Some rid -> canonical value rid ^ "\x00" | None -> value in
  let seq = Smap.to_seq_from from !(table t ix) in
  let rec go s =
    match s () with
    | Seq.Nil -> None
    | Seq.Cons ((_, ch), rest) -> (
        match resolve_chain ch ~txn ~snap with
        | Visible c -> Some (ch.ch_value, ch.ch_rid, c)
        | Invisible | No_chain -> go rest)
  in
  go seq

(* ------------------------------------------------------------------ *)
(* Garbage collection *)

(* Reclaim below [horizon]: in each chain, versions strictly older than the
   newest committed version at or below the horizon can never be reached by
   a live or future snapshot. A chain reduced to that single committed
   version agrees with the physical tree (the version is the key's latest
   state and its writer committed), so the whole chain collapses to the
   unversioned fallback and is dropped. Returns versions reclaimed. *)
let gc t ~horizon =
  let reclaimed = ref 0 in
  Hashtbl.iter
    (fun _ m ->
      let dropped_chains = ref [] in
      Smap.iter
        (fun canon ch ->
          let rec split kept = function
            | [] -> (List.rev kept, [])
            | v :: rest -> (
                match v.v_csn with
                | Some c when csn_le c horizon -> (List.rev (v :: kept), rest)
                | Some _ | None -> split (v :: kept) rest)
          in
          let kept, dropped = split [] ch.ch_versions in
          if dropped <> [] then begin
            reclaimed := !reclaimed + List.length dropped;
            ch.ch_versions <- kept
          end;
          match kept with
          | [ v ] when v.v_csn <> None && csn_le (Option.get v.v_csn) horizon ->
              incr reclaimed;
              dropped_chains := canon :: !dropped_chains
          | _ -> ())
        !m;
      List.iter (fun canon -> m := Smap.remove canon !m) !dropped_chains)
    t.tables;
  t.reclaimed <- t.reclaimed + !reclaimed;
  Stats.add c_mvcc_versions_reclaimed !reclaimed;
  !reclaimed

(* ------------------------------------------------------------------ *)
(* Census (leak audits) *)

let live_versions t =
  Hashtbl.fold
    (fun _ m acc -> Smap.fold (fun _ ch acc -> acc + List.length ch.ch_versions) !m acc)
    t.tables 0

let pending_txns t = Hashtbl.fold (fun id _ acc -> id :: acc) t.pending [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Codec: the store's wire format (ordered chain dump per index). Shares
   the Bytebuf discipline of the log-record and lock-list codecs. *)

type dump_version = { dv_present : bool; dv_csn : csn option; dv_txn : Ids.txn_id }

type dump_chain = {
  dc_value : string;
  dc_rid : Ids.rid;
  dc_base : bool;
  dc_versions : dump_version list;
}

let encode_chains chains =
  let w = Bytebuf.W.create () in
  Bytebuf.W.list w
    (fun w dc ->
      Bytebuf.W.string w dc.dc_value;
      Bytebuf.W.i64 w dc.dc_rid.Ids.rid_page;
      Bytebuf.W.u32 w dc.dc_rid.Ids.rid_slot;
      Bytebuf.W.bool w dc.dc_base;
      Bytebuf.W.list w
        (fun w dv ->
          Bytebuf.W.bool w dv.dv_present;
          (match dv.dv_csn with
          | None -> Bytebuf.W.u8 w 0
          | Some c ->
              Bytebuf.W.u8 w 1;
              Bytebuf.W.i64 w c.cs_epoch;
              Bytebuf.W.i64 w c.cs_gsn);
          Bytebuf.W.i64 w dv.dv_txn)
        dc.dc_versions)
    chains;
  Bytebuf.W.contents w

let decode_chains b =
  let r = Bytebuf.R.of_bytes b in
  let chains =
    Bytebuf.R.list r (fun r ->
        let dc_value = Bytebuf.R.string r in
        let rid_page = Bytebuf.R.i64 r in
        let rid_slot = Bytebuf.R.u32 r in
        let dc_base = Bytebuf.R.bool r in
        let dc_versions =
          Bytebuf.R.list r (fun r ->
              let dv_present = Bytebuf.R.bool r in
              let dv_csn =
                match Bytebuf.R.u8 r with
                | 0 -> None
                | 1 ->
                    let cs_epoch = Bytebuf.R.i64 r in
                    let cs_gsn = Bytebuf.R.i64 r in
                    Some { cs_epoch; cs_gsn }
                | n -> raise (Bytebuf.Corrupt (Printf.sprintf "bad csn tag %d" n))
              in
              let dv_txn = Bytebuf.R.i64 r in
              { dv_present; dv_csn; dv_txn })
        in
        { dc_value; dc_rid = { Ids.rid_page; rid_slot }; dc_base; dc_versions })
  in
  Bytebuf.R.expect_end r;
  chains
