open Aries_util
module Lockmgr = Aries_lock.Lockmgr
module Txnmgr = Aries_txn.Txnmgr
module Btree = Aries_btree.Btree
module Protocol = Aries_btree.Protocol
module Page = Aries_page.Page
module Bufpool = Aries_buffer.Bufpool
module Key = Aries_page.Key

type row = string array

type index_spec = {
  sp_name : string;
  sp_unique : bool;
  sp_key : row -> string;
}

type t = {
  tb_id : int;
  tb_db : Db.t;
  tb_heap : Recmgr.heap;
  tb_indexes : (index_spec * Btree.t) list;
}

let id t = t.tb_id

let heap t = t.tb_heap

let indexes t = t.tb_indexes

let index t name =
  match List.find_opt (fun (sp, _) -> String.equal sp.sp_name name) t.tb_indexes with
  | Some (_, bt) -> bt
  | None -> invalid_arg (Printf.sprintf "Table %d: no index %s" t.tb_id name)

let encode_row row =
  let w = Bytebuf.W.create () in
  Bytebuf.W.u32 w (Array.length row);
  Array.iter (Bytebuf.W.string w) row;
  Bytebuf.W.contents w

let decode_row b =
  let r = Bytebuf.R.of_bytes b in
  let n = Bytebuf.R.u32 r in
  let row = Array.init n (fun _ -> Bytebuf.R.string r) in
  Bytebuf.R.expect_end r;
  row

let ix_name tb_id sp = Printf.sprintf "tbl%d.%s" tb_id sp.sp_name

let create (db : Db.t) txn ~id specs =
  let tb_heap = Recmgr.create_heap db.Db.mgr db.Db.pool txn ~owner:id in
  let tb_indexes =
    List.map
      (fun sp -> (sp, Btree.create db.Db.benv txn ~name:(ix_name id sp) ~unique:sp.sp_unique))
      specs
  in
  { tb_id = id; tb_db = db; tb_heap; tb_indexes }

let open_existing (db : Db.t) ~id specs =
  let tb_heap =
    match List.assoc_opt id (Recmgr.open_heaps db.Db.mgr db.Db.pool) with
    | Some h -> h
    | None -> invalid_arg (Printf.sprintf "Table.open_existing: no heap with owner %d" id)
  in
  (* find index anchors by name, over the same candidates as the heaps: a
     never-flushed anchor may exist only in the pool or the redo backlog *)
  let anchors =
    List.filter_map
      (fun pid ->
        match Bufpool.fix_opt db.Db.pool pid with
        | Some page ->
            let r =
              match page.Page.content with
              | Page.Anchor a -> Some (a.Page.an_name, pid)
              | Page.Leaf _ | Page.Nonleaf _ | Page.Data _ -> None
            in
            Bufpool.unfix db.Db.pool page;
            r
        | None -> None)
      (Recmgr.known_pids db.Db.pool)
  in
  let tb_indexes =
    List.map
      (fun sp ->
        match List.assoc_opt (ix_name id sp) anchors with
        | Some pid -> (sp, Btree.open_existing db.Db.benv pid)
        | None ->
            invalid_arg (Printf.sprintf "Table.open_existing: index %s not found" (ix_name id sp)))
      specs
  in
  { tb_id = id; tb_db = db; tb_heap; tb_indexes }

let table_lock t txn mode = Txnmgr.lock t.tb_db.Db.mgr txn (Lockmgr.Table t.tb_id) mode Lockmgr.Commit

let insert t txn row =
  table_lock t txn Lockmgr.IX;
  (* the record manager takes the commit-duration X RID lock: under
     data-only locking this is the key lock for every index entry *)
  let rid = Recmgr.insert t.tb_heap txn (encode_row row) in
  List.iter (fun (sp, bt) -> Btree.insert bt txn ~value:(sp.sp_key row) ~rid) t.tb_indexes;
  rid

let delete t txn rid =
  table_lock t txn Lockmgr.IX;
  Txnmgr.lock t.tb_db.Db.mgr txn (Lockmgr.Rid rid) Lockmgr.X Lockmgr.Commit;
  let row =
    match Recmgr.read t.tb_heap rid with
    | Some b -> decode_row b
    | None -> invalid_arg (Printf.sprintf "Table.delete: no record at %s" (Ids.rid_to_string rid))
  in
  (* index entries first, then the record (the reverse of insert) *)
  List.iter (fun (sp, bt) -> Btree.delete bt txn ~value:(sp.sp_key row) ~rid) t.tb_indexes;
  ignore (Recmgr.delete t.tb_heap txn rid)

let update t txn rid row =
  table_lock t txn Lockmgr.IX;
  Txnmgr.lock t.tb_db.Db.mgr txn (Lockmgr.Rid rid) Lockmgr.X Lockmgr.Commit;
  let old_row =
    match Recmgr.read t.tb_heap rid with
    | Some b -> decode_row b
    | None -> invalid_arg (Printf.sprintf "Table.update: no record at %s" (Ids.rid_to_string rid))
  in
  List.iter
    (fun (sp, bt) ->
      let old_key = sp.sp_key old_row and new_key = sp.sp_key row in
      if not (String.equal old_key new_key) then begin
        Btree.delete bt txn ~value:old_key ~rid;
        Btree.insert bt txn ~value:new_key ~rid
      end)
    t.tb_indexes;
  ignore (Recmgr.update t.tb_heap txn rid (encode_row row))

let read t txn rid =
  table_lock t txn Lockmgr.IS;
  Txnmgr.lock t.tb_db.Db.mgr txn (Lockmgr.Rid rid) Lockmgr.S Lockmgr.Commit;
  Option.map decode_row (Recmgr.read t.tb_heap rid)

(* under index-specific/KVL/System-R locking the index key lock does not
   cover the record: lock the RID too (§2.1) *)
let record_fetch_lock t txn bt rid =
  if Protocol.fetch_locks_record_too (Btree.config bt).Btree.locking then
    Txnmgr.lock t.tb_db.Db.mgr txn (Lockmgr.Rid rid) Lockmgr.S Lockmgr.Commit

let fetch t txn ~index:name value =
  table_lock t txn Lockmgr.IS;
  let bt = index t name in
  match Btree.fetch bt txn ~comparison:`Eq value with
  | None -> None
  | Some key ->
      let rid = key.Key.rid in
      record_fetch_lock t txn bt rid;
      (match Recmgr.read t.tb_heap rid with
      | Some b -> Some (rid, decode_row b)
      | None ->
          invalid_arg
            (Printf.sprintf "Table.fetch: dangling index entry %s -> %s" value
               (Ids.rid_to_string rid)))

let scan t txn ~index:name ?(comparison = `Ge) value ?stop () =
  table_lock t txn Lockmgr.IS;
  let bt = index t name in
  let cursor = Btree.open_scan bt txn ~comparison value in
  let rec go acc =
    match Btree.fetch_next bt txn cursor ?stop () with
    | None -> List.rev acc
    | Some key ->
        let rid = key.Key.rid in
        record_fetch_lock t txn bt rid;
        (match Recmgr.read t.tb_heap rid with
        | Some b -> go ((rid, decode_row b) :: acc)
        | None ->
            invalid_arg
              (Printf.sprintf "Table.scan: dangling index entry %s" (Ids.rid_to_string rid)))
  in
  go []

let count t = Recmgr.record_count t.tb_heap

let check_consistency t =
  let fail fmt = Printf.ksprintf (fun m -> failwith (Printf.sprintf "Table %d: %s" t.tb_id m)) fmt in
  (* collect all live records *)
  let records = Hashtbl.create 64 in
  List.iter
    (fun pid ->
      Bufpool.with_fix t.tb_db.Db.pool pid (fun page ->
          let d = Page.as_data page in
          Aries_util.Vec.iteri
            (fun slot b ->
              match b with
              | Some bytes ->
                  Hashtbl.replace records { Ids.rid_page = pid; rid_slot = slot } (decode_row bytes)
              | None -> ())
            d.Page.dt_slots))
    (Recmgr.page_ids t.tb_heap);
  List.iter
    (fun (sp, bt) ->
      Btree.check_invariants bt;
      let entries = Btree.to_list bt in
      (* every index entry points at a live record with the matching key *)
      List.iter
        (fun (value, rid) ->
          match Hashtbl.find_opt records rid with
          | None -> fail "index %s: dangling entry %s -> %s" sp.sp_name value (Ids.rid_to_string rid)
          | Some row ->
              if not (String.equal (sp.sp_key row) value) then
                fail "index %s: entry %s does not match record key %s" sp.sp_name value
                  (sp.sp_key row))
        entries;
      (* every record appears exactly once *)
      let by_rid = Hashtbl.create 64 in
      List.iter
        (fun (_, rid) ->
          if Hashtbl.mem by_rid rid then
            fail "index %s: record %s indexed twice" sp.sp_name (Ids.rid_to_string rid);
          Hashtbl.replace by_rid rid ())
        entries;
      Hashtbl.iter
        (fun rid _row ->
          if not (Hashtbl.mem by_rid rid) then
            fail "index %s: record %s missing from index" sp.sp_name (Ids.rid_to_string rid))
        records)
    t.tb_indexes
