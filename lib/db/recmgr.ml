open Aries_util
module Lsn = Aries_wal.Lsn
module Logrec = Aries_wal.Logrec
module Page = Aries_page.Page
module Disk = Aries_page.Disk
module Bufpool = Aries_buffer.Bufpool
module Lockmgr = Aries_lock.Lockmgr
module Txnmgr = Aries_txn.Txnmgr
module Latch = Aries_sched.Latch

type heap = {
  h_owner : int;
  h_mgr : Txnmgr.t;
  h_pool : Bufpool.t;
  mutable h_pages : Ids.page_id list;  (* oldest first *)
}

let page_ids h = h.h_pages

(* ---------- page-oriented application (forward = redo = CLR) ---------- *)

let apply_data page (body : Reclog.body) =
  match body with
  | Reclog.Rec_insert { rid; data } ->
      let d = Page.as_data page in
      while Vec.length d.Page.dt_slots <= rid.Ids.rid_slot do
        Vec.push d.Page.dt_slots None
      done;
      (match Vec.get d.Page.dt_slots rid.Ids.rid_slot with
      | None -> Vec.set d.Page.dt_slots rid.Ids.rid_slot (Some data)
      | Some _ ->
          invalid_arg (Printf.sprintf "Recmgr: insert into occupied slot %s" (Ids.rid_to_string rid)))
  | Reclog.Rec_delete { rid; _ } -> (
      let d = Page.as_data page in
      match Vec.get d.Page.dt_slots rid.Ids.rid_slot with
      | Some _ -> Vec.set d.Page.dt_slots rid.Ids.rid_slot None
      | None ->
          invalid_arg (Printf.sprintf "Recmgr: delete of empty slot %s" (Ids.rid_to_string rid)))
  | Reclog.Rec_update { rid; new_data; _ } -> (
      let d = Page.as_data page in
      match Vec.get d.Page.dt_slots rid.Ids.rid_slot with
      | Some _ -> Vec.set d.Page.dt_slots rid.Ids.rid_slot (Some new_data)
      | None ->
          invalid_arg (Printf.sprintf "Recmgr: update of empty slot %s" (Ids.rid_to_string rid)))
  | Reclog.Format_data { owner } ->
      page.Page.content <- Page.empty_data ~owner

(* ---------- logging helpers ---------- *)

let log_apply mgr pool txn page body ~undoable =
  let lsn =
    Txnmgr.log_update mgr txn ~page:page.Page.pid ~undoable ~rm_id:Reclog.rm_id
      ~op:(Reclog.op_of_body body) ~body:(Reclog.encode body) ()
  in
  apply_data page body;
  page.Page.page_lsn <- lsn;
  Bufpool.mark_dirty pool page lsn

let log_clr_apply mgr pool txn page body ~undo_stream ~undo_nxt =
  let lsn =
    Txnmgr.log_clr mgr txn ~page:page.Page.pid ~undo_stream ~rm_id:Reclog.rm_id
      ~op:(Reclog.op_of_body body) ~body:(Reclog.encode body) ~undo_nxt ()
  in
  apply_data page body;
  page.Page.page_lsn <- lsn;
  Bufpool.mark_dirty pool page lsn

(* ---------- resource-manager callbacks ---------- *)

let rm_redo pool (r : Logrec.t) =
  let body = Reclog.decode ~op:r.Logrec.op r.Logrec.body in
  let page =
    match Bufpool.fix_opt pool r.Logrec.page with
    | Some p -> p
    | None -> (
        match body with
        | Reclog.Format_data { owner } ->
            Bufpool.fix_new pool r.Logrec.page (Page.empty_data ~owner)
        | _ ->
            invalid_arg
              (Printf.sprintf "Recmgr.redo: page %d missing for %s" r.Logrec.page
                 (Reclog.op_name r.Logrec.op)))
  in
  if Lsn.( < ) page.Page.page_lsn r.Logrec.lsn then begin
    apply_data page body;
    page.Page.page_lsn <- r.Logrec.lsn;
    Bufpool.mark_dirty pool page r.Logrec.lsn
  end;
  Bufpool.unfix pool page

let rm_undo mgr pool txn (r : Logrec.t) =
  let body = Reclog.decode ~op:r.Logrec.op r.Logrec.body in
  let comp =
    match body with
    | Reclog.Rec_insert { rid; data } -> Reclog.Rec_delete { rid; data }
    | Reclog.Rec_delete { rid; data } -> Reclog.Rec_insert { rid; data }
    | Reclog.Rec_update { rid; old_data; new_data } ->
        Reclog.Rec_update { rid; old_data = new_data; new_data = old_data }
    | Reclog.Format_data _ -> invalid_arg "Recmgr.undo: format records are redo-only"
  in
  let page = Bufpool.fix pool r.Logrec.page in
  Latch.acquire page.Page.latch Latch.X;
  Fun.protect
    ~finally:(fun () ->
      Latch.release page.Page.latch;
      Bufpool.unfix pool page)
    (fun () -> log_clr_apply mgr pool txn page comp ~undo_stream:r.Logrec.stream ~undo_nxt:r.Logrec.prev_lsn)

let rm_install mgr pool =
  Txnmgr.register_rm mgr ~rm_id:Reclog.rm_id
    ~locks:(fun r ->
      (* Record operations are protected by a commit-duration X record
         lock; Format_data is a structure record with no lock of its own. *)
      match Reclog.decode ~op:r.Logrec.op r.Logrec.body with
      | Reclog.Rec_insert { rid; _ } | Reclog.Rec_delete { rid; _ }
      | Reclog.Rec_update { rid; _ } ->
          [ (Lockmgr.Rid rid, Lockmgr.X) ]
      | Reclog.Format_data _ -> [])
    ~redo:(fun r -> rm_redo pool r)
    ~undo:(fun txn r -> rm_undo mgr pool txn r)
    ()

(* ---------- heap operations ---------- *)

let add_page h txn =
  let disk = Bufpool.disk h.h_pool in
  let pid = Disk.alloc_pid disk in
  let page = Bufpool.fix_new h.h_pool pid (Page.empty_data ~owner:h.h_owner) in
  Latch.acquire page.Page.latch Latch.X;
  Fun.protect
    ~finally:(fun () ->
      Latch.release page.Page.latch;
      Bufpool.unfix h.h_pool page)
    (fun () ->
      log_apply h.h_mgr h.h_pool txn page (Reclog.Format_data { owner = h.h_owner })
        ~undoable:false);
  h.h_pages <- h.h_pages @ [ pid ];
  pid

let create_heap mgr pool txn ~owner =
  let h = { h_owner = owner; h_mgr = mgr; h_pool = pool; h_pages = [] } in
  ignore (add_page h txn);
  h

(* Every page that may exist: stored images, resident frames, and the
   dirty-page table — which, during an instant-restart drain, also lists
   the pages still pending redo (a never-flushed page is neither stored
   nor resident until its history is repeated; fixing it does that). *)
let known_pids pool =
  List.sort_uniq compare
    (Disk.pids (Bufpool.disk pool)
    @ Bufpool.resident_pids pool
    @ List.map fst (Bufpool.dirty_page_table pool))

let open_heaps mgr pool =
  let by_owner : (int, Ids.page_id list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun pid ->
      match Bufpool.fix_opt pool pid with
      | Some page ->
          (match page.Page.content with
          | Page.Data d ->
              let l =
                match Hashtbl.find_opt by_owner d.Page.dt_owner with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.replace by_owner d.Page.dt_owner l;
                    l
              in
              l := pid :: !l
          | Page.Leaf _ | Page.Nonleaf _ | Page.Anchor _ -> ());
          Bufpool.unfix pool page
      | None -> ())
    (known_pids pool);
  Hashtbl.fold
    (fun owner pids acc ->
      (owner, { h_owner = owner; h_mgr = mgr; h_pool = pool; h_pages = List.sort compare !pids })
      :: acc)
    by_owner []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let record_fits page data = Page.free_space page >= Bytes.length data + 12

(* a tombstone slot may be reused only if no transaction retains (or waits
   for) its RID lock: an uncommitted delete must be able to reclaim it *)
let slot_reusable h rid =
  let locks = Txnmgr.locks h.h_mgr in
  Lockmgr.holders locks (Lockmgr.Rid rid) = [] && Lockmgr.waiter_count locks (Lockmgr.Rid rid) = 0

let insert h txn data =
  let try_page pid =
    let page = Bufpool.fix h.h_pool pid in
    Latch.acquire page.Page.latch Latch.X;
    let result =
      if not (record_fits page data) then None
      else begin
        let d = Page.as_data page in
        let slot =
          let reusable = ref None in
          Vec.iteri
            (fun i s ->
              if
                !reusable = None && s = None
                && slot_reusable h { Ids.rid_page = pid; rid_slot = i }
              then reusable := Some i)
            d.Page.dt_slots;
          match !reusable with Some i -> i | None -> Vec.length d.Page.dt_slots
        in
        let rid = { Ids.rid_page = pid; rid_slot = slot } in
        (* grantable immediately: the slot is fresh or verified unlocked *)
        Txnmgr.lock h.h_mgr txn (Lockmgr.Rid rid) Lockmgr.X Lockmgr.Commit;
        log_apply h.h_mgr h.h_pool txn page (Reclog.Rec_insert { rid; data }) ~undoable:true;
        Some rid
      end
    in
    Latch.release page.Page.latch;
    Bufpool.unfix h.h_pool page;
    result
  in
  (* last page first: it is the most likely to have space *)
  let rec go = function
    | [] ->
        let pid = add_page h txn in
        (match try_page pid with
        | Some rid -> rid
        | None -> invalid_arg "Recmgr.insert: record larger than a page")
    | pid :: rest -> ( match try_page pid with Some rid -> rid | None -> go rest)
  in
  go (List.rev h.h_pages)

let with_data_page h rid f =
  let page = Bufpool.fix h.h_pool rid.Ids.rid_page in
  Latch.acquire page.Page.latch Latch.X;
  Fun.protect
    ~finally:(fun () ->
      Latch.release page.Page.latch;
      Bufpool.unfix h.h_pool page)
    (fun () -> f page)

let slot_data page rid =
  let d = Page.as_data page in
  if rid.Ids.rid_slot >= Vec.length d.Page.dt_slots then None
  else Vec.get d.Page.dt_slots rid.Ids.rid_slot

let delete h txn rid =
  with_data_page h rid (fun page ->
      match slot_data page rid with
      | None -> invalid_arg (Printf.sprintf "Recmgr.delete: no record at %s" (Ids.rid_to_string rid))
      | Some data ->
          log_apply h.h_mgr h.h_pool txn page (Reclog.Rec_delete { rid; data }) ~undoable:true;
          data)

let update h txn rid new_data =
  with_data_page h rid (fun page ->
      match slot_data page rid with
      | None -> invalid_arg (Printf.sprintf "Recmgr.update: no record at %s" (Ids.rid_to_string rid))
      | Some old_data ->
          if Bytes.length new_data > Bytes.length old_data && not (record_fits page new_data) then
            invalid_arg "Recmgr.update: new image does not fit (records do not move)";
          log_apply h.h_mgr h.h_pool txn page
            (Reclog.Rec_update { rid; old_data; new_data })
            ~undoable:true;
          old_data)

let read h rid =
  let page = Bufpool.fix h.h_pool rid.Ids.rid_page in
  Latch.acquire page.Page.latch Latch.S;
  Fun.protect
    ~finally:(fun () ->
      Latch.release page.Page.latch;
      Bufpool.unfix h.h_pool page)
    (fun () -> slot_data page rid)

let record_count h =
  List.fold_left
    (fun acc pid ->
      let page = Bufpool.fix h.h_pool pid in
      let d = Page.as_data page in
      let n = Vec.fold (fun n s -> match s with Some _ -> n + 1 | None -> n) 0 d.Page.dt_slots in
      Bufpool.unfix h.h_pool page;
      acc + n)
    0 h.h_pages
