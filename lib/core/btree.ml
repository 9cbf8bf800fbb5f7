open Aries_util
module Lsn = Aries_wal.Lsn
module Key = Aries_page.Key
module Page = Aries_page.Page
module Disk = Aries_page.Disk
module Bufpool = Aries_buffer.Bufpool
module Lockmgr = Aries_lock.Lockmgr
module Txnmgr = Aries_txn.Txnmgr
module Sched = Aries_sched.Sched
module Latch = Aries_sched.Latch
module Logrec = Aries_wal.Logrec
module Logset = Aries_wal.Logset
module Trace = Aries_trace.Trace

let c_tree_traversals = Stats.counter Stats.tree_traversals
let c_smo_splits = Stats.counter Stats.smo_splits
let c_smo_page_deletes = Stats.counter Stats.smo_page_deletes
let c_mvcc_snapshot_reads = Stats.counter Stats.mvcc_snapshot_reads
let c_page_oriented_undos = Stats.counter Stats.page_oriented_undos
let c_logical_undos = Stats.counter Stats.logical_undos

exception Unique_violation of string

exception Key_not_found of string

exception Structural_fault of string

type config = {
  locking : Protocol.locking;
  delete_bit_enabled : bool;
  reset_sm_bits : bool;
  serialize_smo_ops : bool;
  concurrent_smos : bool;
}

let default_config =
  {
    locking = Protocol.Data_only;
    delete_bit_enabled = true;
    reset_sm_bits = true;
    serialize_smo_ops = false;
    concurrent_smos = false;
  }

type env = {
  e_mgr : Txnmgr.t;
  e_pool : Bufpool.t;
  e_trees : (Ids.index_id, t) Hashtbl.t;
  e_default_cfg : config;
  e_smo_owners : (Ids.page_id, int) Hashtbl.t;
      (** volatile: how many in-flight SMOs have set this page's SM_Bit.
          A completed SMO resets the bit only when the count drops to zero,
          so concurrent SMOs never erase each other's warnings. Lost at a
          crash, which only leaves bits conservatively stale. *)
  e_mvstore : Mvstore.t;
      (** MVCC version chains for trees opened under {!Protocol.Mvcc};
          volatile, rebuilt through recovery by {!rebuild_versions} *)
  mutable e_pause : (unit -> unit) option;
}

and t = {
  bt_env : env;
  bt_ix : Ids.index_id;  (* anchor page id = index id *)
  bt_name : string;
  bt_unique : bool;
  bt_cfg : config;
  bt_latch : Latch.t;  (* the tree latch *)
}

let env_config e = e.e_default_cfg

let env_mvstore e = e.e_mvstore

let index_id t = t.bt_ix

let name t = t.bt_name

let unique t = t.bt_unique

let config t = t.bt_cfg

let set_smo_pause e f = e.e_pause <- f

let max_restarts = 10_000

exception Op_restart of string
(* internal: drop everything and retry the whole operation *)

exception Traverse_restart
(* internal to [traverse] *)

exception Op_done
(* internal: the operation completed through a side path (page delete) *)

(* ------------------------------------------------------------------ *)
(* Held-page context: every latched page is also fixed and tracked, so
   restarts and exceptions release everything exactly once. *)

type ctx = { mutable held : Page.t list }

let new_ctx () = { held = [] }

let hold_fixed ctx page mode =
  Latch.acquire page.Page.latch mode;
  ctx.held <- page :: ctx.held

let hold t ctx pid mode =
  let page = Bufpool.fix t.bt_env.e_pool pid in
  hold_fixed ctx page mode;
  page

let hold_new t ctx pid content mode =
  let page = Bufpool.fix_new t.bt_env.e_pool pid content in
  hold_fixed ctx page mode;
  page

let drop t ctx page =
  if List.memq page ctx.held then begin
    ctx.held <- List.filter (fun p -> p != page) ctx.held;
    Latch.release page.Page.latch;
    Bufpool.unfix t.bt_env.e_pool page
  end

let drop_all t ctx = List.iter (drop t ctx) ctx.held

(* ------------------------------------------------------------------ *)
(* Tree synchronization. By default, SMOs serialize on the per-index X tree
   latch. With [concurrent_smos] (the §5 extension) the latch becomes a
   tree LOCK: leaf-level SMOs take IX (and so run concurrently), SMOs that
   must restructure nonleaf levels upgrade to X (the upgrade can deadlock —
   the paper's §5 point — in which case the transaction is a victim and its
   partial SMO rolls back page-oriented), and rolling-back transactions take
   X outright so they never deadlock. Traversal waits and POSCs use S,
   which conflicts with any in-flight SMO. *)

let tree_lock_name t = Lockmgr.Tree_lock t.bt_ix

(* wait until no SMO is in progress; caller holds no latches *)
let sync_wait_smos t txn =
  if t.bt_cfg.concurrent_smos then
    Txnmgr.lock t.bt_env.e_mgr txn (tree_lock_name t) Lockmgr.S Lockmgr.Instant
  else Latch.instant t.bt_latch Latch.S

(* true iff no SMO is in progress right now; never blocks *)
let sync_try_no_smo t txn =
  if t.bt_cfg.concurrent_smos then
    Txnmgr.try_lock t.bt_env.e_mgr txn (tree_lock_name t) Lockmgr.S Lockmgr.Instant
  else if Latch.try_acquire t.bt_latch Latch.S then begin
    Latch.release t.bt_latch;
    true
  end
  else false

(* POSC for boundary-key deletes: S held through the delete (Figure 7) *)
let sync_posc_try_hold t txn =
  if t.bt_cfg.concurrent_smos then
    Txnmgr.try_lock t.bt_env.e_mgr txn (tree_lock_name t) Lockmgr.S Lockmgr.Manual
  else Latch.try_acquire t.bt_latch Latch.S

let sync_posc_release t txn =
  if t.bt_cfg.concurrent_smos then
    Lockmgr.release (Txnmgr.locks t.bt_env.e_mgr) ~txn:txn.Txnmgr.txn_id (tree_lock_name t)
  else Latch.release t.bt_latch

(* SMO bracket. [exclusive] requests X up front (page deletes, root splits,
   probable nonleaf splits); otherwise IX. Rolling-back transactions always
   take X (§5) directly through the lock manager: they are exempt from
   victim selection and, by the argument of §4/§5, can never be part of a
   waits-for cycle through the tree lock. *)
let trace_smo_begin t txn ~exclusive =
  if Trace.enabled () then
    Trace.emit (Trace.Smo_begin { tree = t.bt_ix; txn = txn.Txnmgr.txn_id; exclusive })

let smo_acquire t txn ~exclusive =
  if t.bt_cfg.concurrent_smos then begin
    let mode = if exclusive then Lockmgr.X else Lockmgr.IX in
    let rolling = txn.Txnmgr.state = Txnmgr.Rolling_back in
    (if rolling then
       match
         Lockmgr.lock (Txnmgr.locks t.bt_env.e_mgr) ~txn:txn.Txnmgr.txn_id (tree_lock_name t)
           Lockmgr.X Lockmgr.Manual
       with
       | Lockmgr.Granted -> ()
       | Lockmgr.Denied | Lockmgr.Deadlock ->
           raise (Structural_fault (t.bt_name ^ ": rolling-back txn deadlocked on tree lock"))
     else Txnmgr.lock t.bt_env.e_mgr txn (tree_lock_name t) mode Lockmgr.Manual);
    (* rolling-back transactions hold X outright: their SMO is exclusive *)
    trace_smo_begin t txn ~exclusive:(exclusive || rolling)
  end
  else begin
    Latch.acquire t.bt_latch Latch.X;
    (* serial-SMO mode: the tree latch X makes every SMO exclusive *)
    trace_smo_begin t txn ~exclusive:true
  end

(* upgrade IX -> X mid-SMO; caller must hold NO latches. May abort the
   transaction (deadlock between two upgraders — §5). *)
let smo_upgrade_x t txn =
  assert t.bt_cfg.concurrent_smos;
  if txn.Txnmgr.state = Txnmgr.Rolling_back then () (* rollers hold X already *)
  else begin
    Txnmgr.lock t.bt_env.e_mgr txn (tree_lock_name t) Lockmgr.X Lockmgr.Manual;
    (* grant point of the IX->X conversion: R3 requires we are now alone *)
    if Trace.enabled () then
      Trace.emit (Trace.Smo_upgrade { tree = t.bt_ix; txn = txn.Txnmgr.txn_id })
  end

let smo_release t txn =
  (* emitted before the lock/latch release so a successor SMO's begin can
     never be interleaved ahead of this end in the event stream *)
  if Trace.enabled () then
    Trace.emit (Trace.Smo_end { tree = t.bt_ix; txn = txn.Txnmgr.txn_id });
  if t.bt_cfg.concurrent_smos then
    Lockmgr.release (Txnmgr.locks t.bt_env.e_mgr) ~txn:txn.Txnmgr.txn_id (tree_lock_name t)
  else Latch.release t.bt_latch

(* ------------------------------------------------------------------ *)
(* Logging + applying *)

let log_apply t txn page body ~undoable =
  let op = Ixlog.op_of_body body in
  let lsn =
    Txnmgr.log_update t.bt_env.e_mgr txn ~page:page.Page.pid ~undoable ~rm_id:Ixlog.rm_id ~op
      ~body:(Ixlog.encode body) ()
  in
  Apply.apply page body;
  page.Page.page_lsn <- lsn;
  Bufpool.mark_dirty t.bt_env.e_pool page lsn;
  Sched.maybe_yield ()

let log_clr_apply t txn page body ~undo_stream ~undo_nxt =
  let op = Ixlog.op_of_body body in
  let lsn =
    Txnmgr.log_clr t.bt_env.e_mgr txn ~page:page.Page.pid ~undo_stream ~rm_id:Ixlog.rm_id ~op
      ~body:(Ixlog.encode body) ~undo_nxt ()
  in
  Apply.apply page body;
  page.Page.page_lsn <- lsn;
  Bufpool.mark_dirty t.bt_env.e_pool page lsn

(* MVCC (protocol #5): the pending version is appended BEFORE the page
   change is logged/applied — [log_apply] yields, so recording after it
   would open a window where the physical tree disagrees with committed
   state and no chain marks the key as in flight. *)
let mv_record t txn ~key ~present =
  if t.bt_cfg.locking = Protocol.Mvcc then
    Mvstore.record t.bt_env.e_mvstore ~ix:t.bt_ix ~value:key.Key.value ~rid:key.Key.rid
      ~txn:txn.Txnmgr.txn_id ~present

(* rollback undo compensated one operation: drop its pending version *)
let mv_unrecord t txn ~key =
  if t.bt_cfg.locking = Protocol.Mvcc then
    Mvstore.unrecord t.bt_env.e_mvstore ~ix:t.bt_ix ~value:key.Key.value ~rid:key.Key.rid
      ~txn:txn.Txnmgr.txn_id

(* ------------------------------------------------------------------ *)
(* Key comparison. In a unique index the search logic compares values only
   (§1.1: "For a unique index, the search logic is called to look for only
   the key value"). *)

let kcmp t a b = if t.bt_unique then String.compare a.Key.value b.Key.value else Key.compare a b

(* a probe compares a stored key against the search target:
   negative = key before target, 0 = match, positive = key at/after *)
let probe_exact t target k = kcmp t k target

let probe_ge v k = if String.compare k.Key.value v < 0 then -1 else 1

let probe_gt v k = if String.compare k.Key.value v <= 0 then -1 else 1

let probe_after t after k = if kcmp t k after <= 0 then -1 else 1

(* first index whose key has probe >= 0; Vec.length if none *)
let lower_bound keys probe =
  let rec bs lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if probe (Vec.get keys mid) >= 0 then bs lo mid else bs (mid + 1) hi
  in
  bs 0 (Vec.length keys)

(* ------------------------------------------------------------------ *)
(* Anchor access *)

let read_anchor t ctx =
  let page = hold t ctx t.bt_ix Latch.S in
  let a = Page.as_anchor page in
  let root = a.Page.an_root and height = a.Page.an_height in
  drop t ctx page;
  (root, height)

(* ------------------------------------------------------------------ *)
(* Traversal (Figure 4).

   Returns the leaf (held: fixed + latched, X for writers) and the ancestor
   path as (pid, noted page LSN) pairs, root first. [ignore_sm] is set when
   the caller holds the tree latch/lock exclusively: no SMO can then be in
   progress, so SM_Bit ambiguity cannot arise and stale bits are ignored.

   On ambiguity (rightmost route with SM_Bit = 1), waiting for the SMO is
   not by itself enough to make progress when bits are left stale (resets
   disabled, or the concurrent-SMO mode which must leave them): the retry
   descends while HOLDING the tree sync in S — no SMO can be in flight, so
   the stale bit is provably stale and the rightmost route is trustworthy. *)
let traverse t ctx txn ~write ~ignore_sm ~probe =
  Stats.incr c_tree_traversals;
  (* If the transaction already holds the tree lock (it is inside its own
     SMO), the S hold is a temporary conversion: remember the prior mode and
     downgrade back instead of releasing. *)
  let prior_mode = ref None in
  let hold_s () =
    if t.bt_cfg.concurrent_smos then begin
      prior_mode :=
        Lockmgr.holds (Txnmgr.locks t.bt_env.e_mgr) ~txn:txn.Txnmgr.txn_id (tree_lock_name t);
      Txnmgr.lock t.bt_env.e_mgr txn (tree_lock_name t) Lockmgr.S Lockmgr.Manual
    end
    else Latch.acquire t.bt_latch Latch.S
  in
  let release_s () =
    (if t.bt_cfg.concurrent_smos then
       let locks = Txnmgr.locks t.bt_env.e_mgr in
       match !prior_mode with
       | Some m -> Lockmgr.downgrade locks ~txn:txn.Txnmgr.txn_id (tree_lock_name t) m
       | None -> Lockmgr.release locks ~txn:txn.Txnmgr.txn_id (tree_lock_name t)
     else Latch.release t.bt_latch)
  in
  let rec attempt n ~trusted =
    if n > max_restarts then raise (Structural_fault (t.bt_name ^ ": traversal livelock"));
    let root, _height = read_anchor t ctx in
    let rec go parent path pid =
      let page = Bufpool.fix t.bt_env.e_pool pid in
      let was_leaf = Page.is_leaf page in
      let mode = if was_leaf && write then Latch.X else Latch.S in
      hold_fixed ctx page mode;
      if Page.is_leaf page <> was_leaf then begin
        (* the page changed identity before we got the latch *)
        drop t ctx page;
        (match parent with Some p -> drop t ctx p | None -> ());
        raise Traverse_restart
      end;
      match page.Page.content with
      | Page.Leaf _ ->
          (match parent with Some p -> drop t ctx p | None -> ());
          (page, List.rev path)
      | Page.Nonleaf nl ->
          let nc = Vec.length nl.Page.nl_children in
          let nk = Vec.length nl.Page.nl_high_keys in
          (* Figure 4's condition: trusting the rightmost-child route needs
             SM_Bit = 0; routing under a separator is always safe *)
          let past_all = nk = 0 || probe (Vec.get nl.Page.nl_high_keys (nk - 1)) < 0 in
          let ambiguous =
            nc = 0 || (past_all && nl.Page.nl_sm_bit && (not ignore_sm) && not trusted)
          in
          if ambiguous then begin
            drop t ctx page;
            (match parent with Some p -> drop t ctx p | None -> ());
            if ignore_sm || trusted then
              raise (Structural_fault (t.bt_name ^ ": empty nonleaf under tree latch"))
            else raise Traverse_restart
          end
          else begin
            let idx =
              let rec find i =
                if i >= nk then nc - 1
                else if probe (Vec.get nl.Page.nl_high_keys i) > 0 then i
                else find (i + 1)
              in
              find 0
            in
            let child = Vec.get nl.Page.nl_children idx in
            (match parent with Some p -> drop t ctx p | None -> ());
            go (Some page) ((pid, page.Page.page_lsn) :: path) child
          end
      | Page.Data _ | Page.Anchor _ ->
          raise (Structural_fault (Printf.sprintf "%s: non-index page %d in tree" t.bt_name pid))
    in
    match go None [] root with
    | result -> result
    | exception Traverse_restart ->
        (* Figure 4: wait for the unfinished SMO, then search again — the
           retry holds S so a stale bit cannot re-trigger the ambiguity *)
        hold_s ();
        Fun.protect ~finally:release_s (fun () -> attempt (n + 1) ~trusted:true)
  in
  attempt 0 ~trusted:false

(* ------------------------------------------------------------------ *)
(* Next-key location (§2.2/2.4: "the next key may be on the next page";
   the next page is latched while holding the latch on the current page).
   Walks right over the chain, skipping empty pages (mid-SMO victims),
   releasing intermediates as it couples. The landing page stays held. *)

type next_loc =
  | Nk_here of int  (* index within the starting leaf *)
  | Nk_right of Page.t * int  (* on a later page, which is now held *)
  | Nk_eof

let next_key_loc t ctx leaf pos =
  let l = Page.as_leaf leaf in
  if pos < Vec.length l.Page.lf_keys then Nk_here pos
  else begin
    let rec go cur =
      let cl = Page.as_leaf cur in
      if cl.Page.lf_next = Ids.nil_page then begin
        if cur != leaf then drop t ctx cur;
        Nk_eof
      end
      else begin
        let next = hold t ctx cl.Page.lf_next Latch.S in
        if cur != leaf then drop t ctx cur;
        let nl = Page.as_leaf next in
        if Vec.length nl.Page.lf_keys > 0 then Nk_right (next, 0) else go next
      end
    in
    go leaf
  end

let loc_key leaf loc =
  match loc with
  | Nk_here i -> Protocol.At (Vec.get (Page.as_leaf leaf).Page.lf_keys i)
  | Nk_right (p, i) -> Protocol.At (Vec.get (Page.as_leaf p).Page.lf_keys i)
  | Nk_eof -> Protocol.Eof

(* ------------------------------------------------------------------ *)
(* The conditional-lock / unlatch / unconditional-lock / retry dance
   (§2.2). [`Ok]: everything granted while the latches stayed held.
   [`Retry]: latches were released, the blocking lock has now been granted
   unconditionally, and the operation must recompute its state. *)

let acquire_locks t ctx txn (reqs : Protocol.lock_req list) =
  let mgr = t.bt_env.e_mgr in
  let rec go = function
    | [] -> `Ok
    | (r : Protocol.lock_req) :: rest ->
        if Txnmgr.try_lock mgr txn r.Protocol.lk_name r.Protocol.lk_mode r.Protocol.lk_duration
        then go rest
        else begin
          (* The unlatch before the unconditional request is the essence of
             the §2.2 dance. The [Lock_uncond_under_latch] fault
             deliberately skips it, waiting for the lock with the page
             latches still held — the undetectable-deadlock hazard the
             online discipline checker must flag as an R1 violation. *)
          if not (Crashpoint.active Crashpoint.Lock_uncond_under_latch) then
            drop_all t ctx;
          Txnmgr.lock mgr txn r.Protocol.lk_name r.Protocol.lk_mode r.Protocol.lk_duration;
          `Retry
        end
  in
  go reqs

(* ------------------------------------------------------------------ *)
(* Tree creation / opening *)

let make_tree ?config env ~ix ~name ~unique =
  let cfg = match config with Some c -> c | None -> env.e_default_cfg in
  let t =
    {
      bt_env = env;
      bt_ix = ix;
      bt_name = name;
      bt_unique = unique;
      bt_cfg = cfg;
      bt_latch = Latch.create ~kind:Latch.Tree_latch (Printf.sprintf "tree-%d" ix);
    }
  in
  Hashtbl.replace env.e_trees ix t;
  t

let create ?config env txn ~name ~unique =
  let pool = env.e_pool in
  let disk = Bufpool.disk pool in
  let anchor_pid = Disk.alloc_pid disk in
  let root_pid = Disk.alloc_pid disk in
  let t = make_tree ?config env ~ix:anchor_pid ~name ~unique in
  let ctx = new_ctx () in
  Fun.protect
    ~finally:(fun () -> drop_all t ctx)
    (fun () ->
      let anchor = hold_new t ctx anchor_pid (Page.empty_anchor ~name ~unique) Latch.X in
      log_apply t txn anchor
        (Ixlog.Format_anchor { name; unique; root = root_pid; height = 0 })
        ~undoable:false;
      let root = hold_new t ctx root_pid (Page.empty_leaf ()) Latch.X in
      log_apply t txn root
        (Ixlog.Format_leaf { keys = []; prev = Ids.nil_page; next = Ids.nil_page; sm_bit = false })
        ~undoable:false);
  t

let open_existing ?config env ix =
  match Hashtbl.find_opt env.e_trees ix with
  | Some t -> t
  | None ->
      let page = Bufpool.fix env.e_pool ix in
      let a = Page.as_anchor page in
      let name = a.Page.an_name and unique = a.Page.an_unique in
      Bufpool.unfix env.e_pool page;
      make_tree ?config env ~ix ~name ~unique

let tree_for env ix =
  match Hashtbl.find_opt env.e_trees ix with Some t -> t | None -> open_existing env ix

(* ------------------------------------------------------------------ *)
(* SMO: page split (Figures 8 and 9), bottom-up, as a nested top action
   under the X tree latch. *)

(* split point: first index such that the kept prefix holds at least half
   the used bytes; clamped so both halves are nonempty *)
let split_point keys =
  let n = Vec.length keys in
  assert (n >= 2);
  let total = Vec.fold (fun acc k -> acc + Key.on_page_cost k) 0 keys in
  let rec go i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc + Key.on_page_cost (Vec.get keys i) in
      if 2 * acc >= total then i + 1 else go (i + 1) acc
  in
  max 1 (min (n - 1) (go 0 0))

let smo_pause t = match t.bt_env.e_pause with Some f -> f () | None -> ()

(* SM_Bit ownership bookkeeping: [touch] registers a page whose bit this SMO
   set (deduplicated into [touched]); [finish_touched] releases ownership
   and, if the SMO completed and no other SMO still owns the page, logs the
   optional redo-only bit reset (Figure 8). *)
let touch t touched pid =
  if not (List.mem pid !touched) then begin
    touched := pid :: !touched;
    let owners = t.bt_env.e_smo_owners in
    Hashtbl.replace owners pid (1 + Option.value ~default:0 (Hashtbl.find_opt owners pid))
  end

let finish_touched t ctx txn touched ~completed ~skip =
  let owners = t.bt_env.e_smo_owners in
  List.iter
    (fun pid ->
      let n = Option.value ~default:1 (Hashtbl.find_opt owners pid) - 1 in
      if n <= 0 then Hashtbl.remove owners pid else Hashtbl.replace owners pid n;
      if completed && n <= 0 && t.bt_cfg.reset_sm_bits && not (List.mem pid skip) then begin
        let page = hold t ctx pid Latch.X in
        log_apply t txn page (Ixlog.Reset_bits { sm = true; delete = false }) ~undoable:false;
        drop t ctx page
      end)
    (List.sort_uniq compare !touched)

(* Post (sep, new_pid) to the parent of [child_pid]; splits nonleaf pages
   recursively. [path]: remaining ancestors, nearest parent last. Under the
   X tree latch, inside the NTA. *)
let rec post_to_parent t ctx txn ~path ~child_pid ~sep ~new_pid ~touched ~smo_mode =
  match path with
  | [] ->
      (* root split: grow the tree — a nonleaf-level SMO, X required *)
      if t.bt_cfg.concurrent_smos && !smo_mode = `IX then begin
        (* caller ensured no latches are held when entering with path=[];
           the brief drop below covers the recursive cases *)
        drop_all t ctx;
        smo_upgrade_x t txn;
        smo_mode := `X
      end;
      let disk = Bufpool.disk t.bt_env.e_pool in
      let new_root_pid = Disk.alloc_pid disk in
      let anchor = hold t ctx t.bt_ix Latch.X in
      let a = Page.as_anchor anchor in
      let old_height = a.Page.an_height in
      let level = old_height + 1 in
      let new_root = hold_new t ctx new_root_pid (Page.empty_nonleaf ~level) Latch.X in
      log_apply t txn new_root
        (Ixlog.Format_nonleaf
           { level; children = [ child_pid; new_pid ]; high_keys = [ sep ]; sm_bit = true })
        ~undoable:true;
      touch t touched new_root_pid;
      drop t ctx new_root;
      log_apply t txn anchor
        (Ixlog.Anchor_set
           { old_root = child_pid; new_root = new_root_pid; old_height; new_height = level })
        ~undoable:true;
      drop t ctx anchor
  | ancestors ->
      let parent_pid, _noted = List.nth ancestors (List.length ancestors - 1) in
      let path_above = List.filteri (fun i _ -> i < List.length ancestors - 1) ancestors in
      let parent = hold t ctx parent_pid Latch.X in
      let nl = Page.as_nonleaf parent in
      let idx =
        match Vec.find_index (fun c -> c = child_pid) nl.Page.nl_children with
        | Some i -> i
        | None ->
            raise
              (Structural_fault
                 (Printf.sprintf "%s: child %d missing from parent %d during SMO" t.bt_name
                    child_pid parent_pid))
      in
      let cost = Key.on_page_cost sep + 8 in
      if Page.free_space parent >= cost then begin
        log_apply t txn parent
          (Ixlog.Nl_insert_child { child_idx = idx + 1; sep_idx = idx; sep; child = new_pid })
          ~undoable:true;
        touch t touched parent_pid;
        drop t ctx parent
      end
      else if t.bt_cfg.concurrent_smos && !smo_mode = `IX then begin
        (* the parent must split: a nonleaf-level SMO needs the X tree lock
           (§5). Release latches, upgrade (which may abort this txn on an
           upgrade deadlock), and retry the post: the parent may have been
           reshaped meanwhile. *)
        drop t ctx parent;
        drop_all t ctx;
        smo_upgrade_x t txn;
        smo_mode := `X;
        post_to_parent t ctx txn ~path:ancestors ~child_pid ~sep ~new_pid ~touched ~smo_mode
      end
      else begin
        (* split the parent, then retry the post into the correct half *)
        let disk = Bufpool.disk t.bt_env.e_pool in
        let m_pid = Disk.alloc_pid disk in
        let nc = Vec.length nl.Page.nl_children in
        let j = max 1 (min (nc - 2) (nc / 2)) in
        (* left keeps children[0..j] and high_keys[0..j-1]; high_keys[j] is
           pushed up; the right page gets the rest *)
        let pushup = Vec.get nl.Page.nl_high_keys j in
        let right_children = ref [] and right_keys = ref [] in
        for i = nc - 1 downto j + 1 do
          right_children := Vec.get nl.Page.nl_children i :: !right_children
        done;
        for i = Vec.length nl.Page.nl_high_keys - 1 downto j + 1 do
          right_keys := Vec.get nl.Page.nl_high_keys i :: !right_keys
        done;
        let level = nl.Page.nl_level in
        let m_page = hold_new t ctx m_pid (Page.empty_nonleaf ~level) Latch.X in
        log_apply t txn m_page
          (Ixlog.Format_nonleaf
             { level; children = !right_children; high_keys = !right_keys; sm_bit = true })
          ~undoable:true;
        touch t touched m_pid;
        drop t ctx m_page;
        log_apply t txn parent
          (Ixlog.Nl_truncate
             {
               keep_children = j + 1;
               removed_children = !right_children;
               (* the dropped suffix of high keys, left-to-right, so that a
                  page-oriented undo re-appends them in order *)
               removed_high_keys = pushup :: !right_keys;
             })
          ~undoable:true;
        touch t touched parent_pid;
        drop t ctx parent;
        post_to_parent t ctx txn ~path:path_above ~child_pid:parent_pid ~sep:pushup ~new_pid:m_pid
          ~touched ~smo_mode;
        (* now post the original (sep, new_pid) into the proper half *)
        let target_pid = if idx <= j then parent_pid else m_pid in
        let target = hold t ctx target_pid Latch.X in
        let tnl = Page.as_nonleaf target in
        let idx2 =
          match Vec.find_index (fun c -> c = child_pid) tnl.Page.nl_children with
          | Some i -> i
          | None -> raise (Structural_fault (t.bt_name ^ ": lost child after parent split"))
        in
        log_apply t txn target
          (Ixlog.Nl_insert_child { child_idx = idx2 + 1; sep_idx = idx2; sep; child = new_pid })
          ~undoable:true;
        drop t ctx target
      end

(* the split body, assuming the X tree latch is already held *)
let split_smo_held t txn ~probe ~needed ~exclusive =
  let ctx = new_ctx () in
  Fun.protect
    ~finally:(fun () -> drop_all t ctx)
    (fun () ->
      (* under the X tree latch/lock no other SMO runs, so stale bits can be
         ignored; under IX they cannot *)
      let ignore_sm = exclusive || not t.bt_cfg.concurrent_smos in
      let leaf, path = traverse t ctx txn ~write:true ~ignore_sm ~probe in
      let l = Page.as_leaf leaf in
      if Page.free_space leaf >= needed || Vec.length l.Page.lf_keys < 2 then
        (* someone made room (or the page is too empty to split) *)
        ()
      else begin
        Stats.incr c_smo_splits;
        let touched = ref [] in
        let smo_done = ref false in
        touch t touched leaf.Page.pid;
        let nta = Txnmgr.nta_begin txn in
        let disk = Bufpool.disk t.bt_env.e_pool in
        let n_pid = Disk.alloc_pid disk in
        let sp = split_point l.Page.lf_keys in
        let moved = ref [] in
        for i = Vec.length l.Page.lf_keys - 1 downto sp do
          moved := Vec.get l.Page.lf_keys i :: !moved
        done;
        let moved = !moved in
        let sep = List.hd moved in
        let r_pid = l.Page.lf_next in
        let n_page = hold_new t ctx n_pid (Page.empty_leaf ()) Latch.X in
        log_apply t txn n_page
          (Ixlog.Format_leaf { keys = moved; prev = leaf.Page.pid; next = r_pid; sm_bit = true })
          ~undoable:true;
        touch t touched n_pid;
        log_apply t txn leaf
          (Ixlog.Leaf_truncate { removed = moved; old_next = r_pid; new_next = n_pid })
          ~undoable:true;
        drop t ctx n_page;
        drop t ctx leaf;
        if r_pid <> Ids.nil_page then begin
          let r_page = hold t ctx r_pid Latch.X in
          let rl = Page.as_leaf r_page in
          log_apply t txn r_page
            (Ixlog.Leaf_relink
               {
                 old_prev = leaf.Page.pid;
                 new_prev = n_pid;
                 old_next = rl.Page.lf_next;
                 new_next = rl.Page.lf_next;
               })
            ~undoable:true;
          touch t touched r_pid;
          drop t ctx r_page
        end;
        (* the Figure-3 window: leaf-level split done, parent not posted *)
        smo_pause t;
        let smo_mode = ref (if exclusive then `X else `IX) in
        Fun.protect
          ~finally:(fun () ->
            (* on abort, ownership is released without resets (the rollback
               compensation clears the bits) *)
            if not !smo_done then finish_touched t ctx txn touched ~completed:false ~skip:[])
          (fun () ->
            post_to_parent t ctx txn ~path ~child_pid:leaf.Page.pid ~sep ~new_pid:n_pid ~touched
              ~smo_mode;
            ignore (Txnmgr.nta_end t.bt_env.e_mgr txn nta);
            smo_done := true);
        finish_touched t ctx txn touched ~completed:true ~skip:[]
      end)

(* unlatched estimate: will this split need to restructure nonleaf levels?
   Used to choose IX vs X up front in §5 mode; a wrong "no" is corrected by
   the mid-SMO upgrade in post_to_parent. *)
let split_probably_nonleaf t ~probe =
  let pool = t.bt_env.e_pool in
  let anchor = Bufpool.fix pool t.bt_ix in
  let a = Page.as_anchor anchor in
  let root = a.Page.an_root in
  Bufpool.unfix pool anchor;
  let rec go parent pid =
    let page = Bufpool.fix pool pid in
    let r =
      match page.Page.content with
      | Page.Leaf l -> (
          let max_key_cost =
            Vec.fold (fun acc k -> max acc (Key.on_page_cost k)) 24 l.Page.lf_keys
          in
          match parent with
          | None -> true (* root leaf: a split grows the tree *)
          | Some free -> free < max_key_cost + 8)
      | Page.Nonleaf nl ->
          let nk = Vec.length nl.Page.nl_high_keys in
          let idx =
            let rec find i =
              if i >= nk then Vec.length nl.Page.nl_children - 1
              else if probe (Vec.get nl.Page.nl_high_keys i) > 0 then i
              else find (i + 1)
            in
            find 0
          in
          let child =
            if Vec.length nl.Page.nl_children = 0 then Ids.nil_page
            else Vec.get nl.Page.nl_children idx
          in
          if child = Ids.nil_page then true else go (Some (Page.free_space page)) child
      | Page.Data _ | Page.Anchor _ -> true
    in
    Bufpool.unfix pool page;
    r
  in
  go None root

(* split entry point for forward processing: caller holds nothing *)
let split_smo t txn ~probe ~needed =
  let exclusive = (not t.bt_cfg.concurrent_smos) || split_probably_nonleaf t ~probe in
  smo_acquire t txn ~exclusive;
  Fun.protect
    ~finally:(fun () -> smo_release t txn)
    (fun () -> split_smo_held t txn ~probe ~needed ~exclusive)

(* ------------------------------------------------------------------ *)
(* SMO: page delete (Figures 8 and 10). [leaf_pid] is already empty and
   unlatched; the caller holds the X tree latch. Runs as its own NTA. *)
let page_delete_smo_inner t txn ~leaf_pid ~path =
  Stats.incr c_smo_page_deletes;
  let ctx = new_ctx () in
  Fun.protect
    ~finally:(fun () -> drop_all t ctx)
    (fun () ->
      let touched = ref [] in
      let smo_done = ref false in
      let nta = Txnmgr.nta_begin txn in
      (* links are stable under the tree latch *)
      let leaf = hold t ctx leaf_pid Latch.X in
      let l = Page.as_leaf leaf in
      let p_pid = l.Page.lf_prev and n_pid = l.Page.lf_next in
      drop t ctx leaf;
      (* latch strictly left to right *)
      if p_pid <> Ids.nil_page then begin
        let p = hold t ctx p_pid Latch.X in
        let pl = Page.as_leaf p in
        if pl.Page.lf_next <> leaf_pid then
          raise (Structural_fault (t.bt_name ^ ": leaf chain mismatch during page delete"));
        log_apply t txn p
          (Ixlog.Leaf_relink
             {
               old_prev = pl.Page.lf_prev;
               new_prev = pl.Page.lf_prev;
               old_next = leaf_pid;
               new_next = n_pid;
             })
          ~undoable:true;
        touch t touched p_pid;
        drop t ctx p
      end;
      let leaf = hold t ctx leaf_pid Latch.X in
      log_apply t txn leaf
        (Ixlog.Leaf_unlink { old_prev = p_pid; old_next = n_pid })
        ~undoable:true;
      touch t touched leaf_pid;
      drop t ctx leaf;
      if n_pid <> Ids.nil_page then begin
        let np = hold t ctx n_pid Latch.X in
        let nl = Page.as_leaf np in
        if nl.Page.lf_prev <> leaf_pid then
          raise (Structural_fault (t.bt_name ^ ": leaf chain mismatch during page delete"));
        log_apply t txn np
          (Ixlog.Leaf_relink
             {
               old_prev = leaf_pid;
               new_prev = p_pid;
               old_next = nl.Page.lf_next;
               new_next = nl.Page.lf_next;
             })
          ~undoable:true;
        touch t touched n_pid;
        drop t ctx np
      end;
      smo_pause t;
      (* remove from ancestors, collapsing as needed *)
      let rec remove_from_parent path child_pid =
        match path with
        | [] ->
            raise (Structural_fault (t.bt_name ^ ": page delete reached above the root"))
        | ancestors ->
            let parent_pid, _ = List.nth ancestors (List.length ancestors - 1) in
            let path_above = List.filteri (fun i _ -> i < List.length ancestors - 1) ancestors in
            let parent = hold t ctx parent_pid Latch.X in
            let nl = Page.as_nonleaf parent in
            let idx =
              match Vec.find_index (fun c -> c = child_pid) nl.Page.nl_children with
              | Some i -> i
              | None ->
                  raise
                    (Structural_fault
                       (Printf.sprintf "%s: child %d missing from parent %d" t.bt_name child_pid
                          parent_pid))
            in
            let nc = Vec.length nl.Page.nl_children in
            let level = nl.Page.nl_level in
            let body =
              if nc = 1 then
                Ixlog.Nl_remove_child
                  { child_idx = idx; child = child_pid; sep_idx = 0; sep = None; level }
              else if idx < nc - 1 then
                Ixlog.Nl_remove_child
                  {
                    child_idx = idx;
                    child = child_pid;
                    sep_idx = idx;
                    sep = Some (Vec.get nl.Page.nl_high_keys idx);
                    level;
                  }
              else
                Ixlog.Nl_remove_child
                  {
                    child_idx = idx;
                    child = child_pid;
                    sep_idx = idx - 1;
                    sep = Some (Vec.get nl.Page.nl_high_keys (idx - 1));
                    level;
                  }
            in
            log_apply t txn parent body ~undoable:true;
            touch t touched parent_pid;
            let remaining = Vec.length nl.Page.nl_children in
            drop t ctx parent;
            if remaining = 0 then
              (* the parent was a single-child chain node: remove it too *)
              remove_from_parent path_above parent_pid
            else if remaining = 1 && path_above = [] then begin
              (* the root has a single child left: shrink the tree *)
              let anchor = hold t ctx t.bt_ix Latch.X in
              let a = Page.as_anchor anchor in
              if a.Page.an_root = parent_pid && a.Page.an_height >= 1 then begin
                let parent = hold t ctx parent_pid Latch.X in
                let pnl = Page.as_nonleaf parent in
                let only_child = Vec.get pnl.Page.nl_children 0 in
                log_apply t txn anchor
                  (Ixlog.Anchor_set
                     {
                       old_root = parent_pid;
                       new_root = only_child;
                       old_height = a.Page.an_height;
                       new_height = a.Page.an_height - 1;
                     })
                  ~undoable:true;
                (* orphan the old root *)
                log_apply t txn parent
                  (Ixlog.Format_nonleaf { level; children = []; high_keys = []; sm_bit = true })
                  ~undoable:true;
                drop t ctx parent
              end;
              drop t ctx anchor
            end
      in
      Fun.protect
        ~finally:(fun () ->
          if not !smo_done then finish_touched t ctx txn touched ~completed:false ~skip:[])
        (fun () ->
          remove_from_parent path leaf_pid;
          ignore (Txnmgr.nta_end t.bt_env.e_mgr txn nta);
          smo_done := true);
      (* skip the orphan leaf: it is unreachable and must not masquerade as
         a live empty page *)
      finish_touched t ctx txn touched ~completed:true ~skip:[ leaf_pid ])

(* ------------------------------------------------------------------ *)
(* Operation drivers *)

let with_retries t what f =
  let rec go n =
    if n > max_restarts then raise (Structural_fault (t.bt_name ^ ": livelock in " ^ what));
    (* preemption point: read-only operations otherwise never suspend, which
       would let a polling reader starve every other fiber *)
    Sched.maybe_yield ();
    let ctx = new_ctx () in
    match Fun.protect ~finally:(fun () -> drop_all t ctx) (fun () -> f ctx) with
    | v -> v
    | exception Op_restart _ -> go (n + 1)
  in
  go 0

let serialize_point t = if t.bt_cfg.serialize_smo_ops then Latch.instant t.bt_latch Latch.X

(* --- Insert (Figure 6) --- *)

let insert t txn ~value ~rid =
  let key = Key.make value rid in
  let probe = probe_exact t key in
  serialize_point t;
  with_retries t "insert" (fun ctx ->
      let leaf, _path = traverse t ctx txn ~write:true ~ignore_sm:false ~probe in
      let l = Page.as_leaf leaf in
      (* Figure 6: the SM_Bit | Delete_Bit check comes FIRST — before any
         decision based on the leaf's contents, which an incomplete SMO may
         have moved to an unposted sibling *)
      let sm = Page.sm_bit leaf in
      let del = Page.delete_bit leaf in
      if sm || (del && t.bt_cfg.delete_bit_enabled) then begin
        if sync_try_no_smo t txn then
          (* no SMO in progress: stale bits, reset with the insert record *)
          ()
        else begin
          drop_all t ctx;
          sync_wait_smos t txn;
          raise (Op_restart "waited for SMO (bits set)")
        end
      end;
      let pos = lower_bound l.Page.lf_keys probe in
      (* duplicate detection: a same-value key in a unique index needs the
         committed-state check (§2.4); an exact duplicate is always an error *)
      (match
         if pos < Vec.length l.Page.lf_keys then
           let k = Vec.get l.Page.lf_keys pos in
           if probe k = 0 then Some k else None
         else None
       with
      | Some k ->
          let lock_name = Protocol.key_name t.bt_cfg.locking t.bt_ix k in
          let req =
            { Protocol.lk_name = lock_name; lk_mode = Lockmgr.S; lk_duration = Lockmgr.Commit }
          in
          (match acquire_locks t ctx txn [ req ] with
          | `Ok ->
              raise
                (Unique_violation
                   (Printf.sprintf "index %s: value %S already present" t.bt_name value))
          | `Retry -> raise (Op_restart "unique check lock wait"))
      | None -> ());
      (* space check: split first, insert after (Figure 8) *)
      let needed = Key.on_page_cost key in
      if needed > leaf.Page.psize - Page.header_bytes then begin
        drop_all t ctx;
        invalid_arg
          (Printf.sprintf "Btree.insert: key of %d bytes cannot fit a %d-byte page" needed
             leaf.Page.psize)
      end;
      if Page.free_space leaf < needed then begin
        drop_all t ctx;
        split_smo t txn ~probe ~needed;
        raise (Op_restart "page split")
      end;
      (* next-key locking *)
      let loc = next_key_loc t ctx leaf pos in
      let next = loc_key leaf loc in
      let value_exists =
        (not t.bt_unique)
        && ((pos > 0 && String.equal (Vec.get l.Page.lf_keys (pos - 1)).Key.value value)
           ||
           match next with
           | Protocol.At k -> String.equal k.Key.value value
           | Protocol.Eof -> false)
      in
      let reqs =
        Protocol.insert_locks t.bt_cfg.locking t.bt_ix ~unique:t.bt_unique ~key ~next ~value_exists
      in
      (match acquire_locks t ctx txn reqs with
      | `Ok -> ()
      | `Retry -> raise (Op_restart "insert lock wait"));
      mv_record t txn ~key ~present:true;
      log_apply t txn leaf
        (Ixlog.Insert_key { ix = t.bt_ix; key; reset_sm = sm; reset_delete = del })
        ~undoable:true;
      drop_all t ctx)

(* --- Delete (Figure 7) --- *)

(* the page-delete flow: re-run the delete protocol under the X tree latch,
   then run the SMO (Figure 8 bottom path). Returns [`Lock_wait reqs] when a
   conditional lock was denied: no lock may be waited for while the tree
   latch is held (§4), so the caller waits after this function's finalizer
   has released the latch, then restarts. *)
let delete_via_page_delete t txn ~probe =
  (* page deletes restructure parents by definition: always exclusive *)
  smo_acquire t txn ~exclusive:true;
  let ctx = new_ctx () in
  Fun.protect
    ~finally:(fun () ->
      drop_all t ctx;
      smo_release t txn)
    (fun () ->
      let leaf, path = traverse t ctx txn ~write:true ~ignore_sm:true ~probe in
      let l = Page.as_leaf leaf in
      let pos = lower_bound l.Page.lf_keys probe in
      let present = pos < Vec.length l.Page.lf_keys && probe (Vec.get l.Page.lf_keys pos) = 0 in
      if not present then raise (Op_restart "page-delete: key moved");
      if Vec.length l.Page.lf_keys > 1 then raise (Op_restart "page-delete: page refilled");
      let root, _ = read_anchor t ctx in
      let is_root = leaf.Page.pid = root in
      let stored_key = Vec.get l.Page.lf_keys pos in
      (* Figure 7 locking, conditional only: no lock waits under the tree
         latch (§4) *)
      let loc = next_key_loc t ctx leaf (pos + 1) in
      let next = loc_key leaf loc in
      let reqs =
        Protocol.delete_locks t.bt_cfg.locking t.bt_ix ~unique:t.bt_unique ~key:stored_key ~next
          ~value_remains:false
      in
      let denied =
        List.filter
          (fun (r : Protocol.lock_req) ->
            not
              (Txnmgr.try_lock t.bt_env.e_mgr txn r.Protocol.lk_name r.Protocol.lk_mode
                 r.Protocol.lk_duration))
          reqs
      in
      if denied <> [] then `Lock_wait denied
      else begin
        (* the key delete itself, logged before the SMO starts (Figure 10),
           with SM_Bit set so the emptied page is never reachable clean *)
        mv_record t txn ~key:stored_key ~present:false;
        log_apply t txn leaf
          (Ixlog.Delete_key
             {
               ix = t.bt_ix;
               key = stored_key;
               reset_sm = false;
               set_sm = not is_root;
               mark_delete_bit = false;
             })
          ~undoable:true;
        let leaf_pid = leaf.Page.pid in
        drop_all t ctx;
        if not is_root then page_delete_smo_inner t txn ~leaf_pid ~path;
        `Done
      end)

let delete t txn ~value ~rid =
  let key = Key.make value rid in
  let probe = probe_exact t key in
  serialize_point t;
  try
    with_retries t "delete" (fun ctx ->
        let leaf, _path = traverse t ctx txn ~write:true ~ignore_sm:false ~probe in
        let l = Page.as_leaf leaf in
        (* Figure 7: the SM_Bit check comes FIRST — an incomplete SMO may
           have moved the key to an unposted sibling, so no content-based
           decision (including "not found") is trustworthy before it *)
        let sm = Page.sm_bit leaf in
        if sm then begin
          if sync_try_no_smo t txn then ()
          else begin
            drop_all t ctx;
            sync_wait_smos t txn;
            raise (Op_restart "waited for SMO (SM bit)")
          end
        end;
        let pos = lower_bound l.Page.lf_keys probe in
        let present = pos < Vec.length l.Page.lf_keys && probe (Vec.get l.Page.lf_keys pos) = 0 in
        if not present then begin
          drop_all t ctx;
          raise (Key_not_found (Printf.sprintf "index %s: %S not found" t.bt_name value))
        end;
        let stored_key = Vec.get l.Page.lf_keys pos in
        if t.bt_unique && Ids.compare_rid stored_key.Key.rid rid <> 0 then begin
          drop_all t ctx;
          raise
            (Key_not_found
               (Printf.sprintf "index %s: %S present with a different RID" t.bt_name value))
        end;
        let nkeys = Vec.length l.Page.lf_keys in
        if nkeys = 1 then begin
          (* the delete will empty the page: switch to the page-delete flow *)
          drop_all t ctx;
          match delete_via_page_delete t txn ~probe with
          | `Done -> raise Op_done
          | `Lock_wait reqs ->
              (* the tree latch is released now: wait, then retry (§4) *)
              List.iter
                (fun (r : Protocol.lock_req) ->
                  Txnmgr.lock t.bt_env.e_mgr txn r.Protocol.lk_name r.Protocol.lk_mode
                    r.Protocol.lk_duration)
                reqs;
              raise (Op_restart "page-delete lock wait")
        end;
        (* next-key lock (commit-duration X: the tripping point, §2.6) *)
        let loc = next_key_loc t ctx leaf (pos + 1) in
        let next = loc_key leaf loc in
        let value_remains =
          (not t.bt_unique)
          && ((pos > 0 && String.equal (Vec.get l.Page.lf_keys (pos - 1)).Key.value value)
             || (pos + 1 < Vec.length l.Page.lf_keys
                && String.equal (Vec.get l.Page.lf_keys (pos + 1)).Key.value value))
        in
        let reqs =
          Protocol.delete_locks t.bt_cfg.locking t.bt_ix ~unique:t.bt_unique ~key:stored_key
            ~next ~value_remains
        in
        (match acquire_locks t ctx txn reqs with
        | `Ok -> ()
        | `Retry -> raise (Op_restart "delete lock wait"));
        (* boundary key? establish a POSC and hold it through the delete
           (Figure 7 / §3) *)
        let boundary = pos = 0 || pos = nkeys - 1 in
        let tree_latched =
          if boundary then
            if sync_posc_try_hold t txn then true
            else begin
              drop_all t ctx;
              sync_wait_smos t txn;
              raise (Op_restart "boundary delete waited for SMO")
            end
          else false
        in
        Fun.protect
          ~finally:(fun () -> if tree_latched then sync_posc_release t txn)
          (fun () ->
            mv_record t txn ~key:stored_key ~present:false;
            log_apply t txn leaf
              (Ixlog.Delete_key
                 {
                   ix = t.bt_ix;
                   key = stored_key;
                   reset_sm = sm;
                   set_sm = false;
                   mark_delete_bit = (not tree_latched) && t.bt_cfg.delete_bit_enabled;
                 })
              ~undoable:true);
        drop_all t ctx)
  with Op_done -> ()

(* --- Fetch (Figure 5) --- *)

let fetch_probe comparison value =
  match comparison with `Eq | `Ge -> probe_ge value | `Gt -> probe_gt value

(* Cursor stability (degree 2): current-key locks are held only while the
   cursor is positioned on the key, not until commit. Implemented by taking
   the Figure-2 fetch locks with Manual duration and releasing them when
   the cursor moves (or when a standalone fetch returns). *)
let cs_adjust isolation reqs =
  match isolation with
  | `Rr -> reqs
  | `Cs ->
      List.map
        (fun (r : Protocol.lock_req) ->
          if r.Protocol.lk_duration = Lockmgr.Commit then
            { r with Protocol.lk_duration = Lockmgr.Manual }
          else r)
        reqs

let cs_release t txn (reqs : Protocol.lock_req list) =
  List.iter
    (fun (r : Protocol.lock_req) ->
      ignore
        (Lockmgr.release_manual (Txnmgr.locks t.bt_env.e_mgr) ~txn:txn.Txnmgr.txn_id
           r.Protocol.lk_name))
    reqs

(* --- Mvcc snapshot reads (protocol #5, rule R9) ---

   Readers never touch the lock manager: the version store replaces both
   the current-key and the next-key lock. They also never park on the SMO
   sync: the descent below ignores SM_Bit ambiguity entirely, which is
   sound for a reader that afterwards walks RIGHT along the leaf chain —
   a split links the new sibling into the chain before (and regardless of
   whether) its separator is posted, so the rightmost route can only land
   at-or-left of the target, never beyond it. A mid-SMO structural hiccup
   (empty nonleaf, page changing identity) just drops everything, yields,
   and retries: the SMO holds no lock the reader needs and completes in a
   bounded number of steps. *)

let mv_descend t ctx ~probe =
  Stats.incr c_tree_traversals;
  let rec attempt n =
    if n > max_restarts then raise (Structural_fault (t.bt_name ^ ": mvcc reader livelock"));
    let root, _height = read_anchor t ctx in
    let rec go parent pid =
      let page = Bufpool.fix t.bt_env.e_pool pid in
      let was_leaf = Page.is_leaf page in
      hold_fixed ctx page Latch.S;
      if Page.is_leaf page <> was_leaf then begin
        drop t ctx page;
        (match parent with Some p -> drop t ctx p | None -> ());
        raise Traverse_restart
      end;
      match page.Page.content with
      | Page.Leaf _ ->
          (match parent with Some p -> drop t ctx p | None -> ());
          page
      | Page.Nonleaf nl ->
          let nc = Vec.length nl.Page.nl_children in
          let nk = Vec.length nl.Page.nl_high_keys in
          if nc = 0 then begin
            drop t ctx page;
            (match parent with Some p -> drop t ctx p | None -> ());
            raise Traverse_restart
          end
          else begin
            let idx =
              let rec find i =
                if i >= nk then nc - 1
                else if probe (Vec.get nl.Page.nl_high_keys i) > 0 then i
                else find (i + 1)
              in
              find 0
            in
            let child = Vec.get nl.Page.nl_children idx in
            (match parent with Some p -> drop t ctx p | None -> ());
            go (Some page) child
          end
      | Page.Data _ | Page.Anchor _ ->
          raise (Structural_fault (Printf.sprintf "%s: non-index page %d in tree" t.bt_name pid))
    in
    match go None root with
    | leaf -> leaf
    | exception Traverse_restart ->
        drop_all t ctx;
        Sched.yield ();
        attempt (n + 1)
  in
  attempt 0

(* pin the snapshot at the first Mvcc read: everything committed so far —
   CSN = current (epoch, gsn) — is visible, every later commit is not *)
let mvcc_snap t txn =
  let store = t.bt_env.e_mvstore in
  let txid = txn.Txnmgr.txn_id in
  match Mvstore.pinned store ~txn:txid with
  | Some c -> c
  | None ->
      let logs = Txnmgr.logs t.bt_env.e_mgr in
      let c =
        { Mvstore.cs_epoch = Logset.current_epoch logs; cs_gsn = Logset.current_gsn logs }
      in
      Mvstore.pin store ~txn:txid ~csn:c;
      if Trace.enabled () then
        Trace.emit
          (Trace.Mvcc_pin { txn = txid; epoch = c.Mvstore.cs_epoch; gsn = c.Mvstore.cs_gsn });
      c

(* The range probe both fetch and scans reduce to: the first key at/after
   the probe visible at the snapshot. Two candidates, merged by (value,
   rid) order:

   - the first {e physically present} visible key — a latch-coupled
     rightward leaf walk resolving each chained key against the snapshot
     (an unversioned key is visible as-is: a chain exists whenever the
     tree can disagree with committed state, and GC collapses a chain only
     once its single surviving version agrees with the tree below every
     live snapshot);
   - the first {e chained} visible key ([Mvstore.first_visible]) — covers
     keys visible at the snapshot but no longer (or not yet) in the tree.

   The tree walk runs FIRST: while this reader's pin holds, a chain it
   skipped cannot collapse (its deciding version is at or above the GC
   horizon), so the store scan is guaranteed to still see every skipped
   key; the reverse order would race a writer chaining a key between the
   store scan and the walk. [skip_value] excludes one value from the store
   scan (strict bounds; the tree probes exclude it already). *)
let mvcc_locate t txn ~probe ~from_value ~after_rid ~skip_value =
  Sched.maybe_yield ();
  let store = t.bt_env.e_mvstore in
  let txid = txn.Txnmgr.txn_id in
  let snap = mvcc_snap t txn in
  Stats.incr c_mvcc_snapshot_reads;
  if Trace.enabled () then Trace.emit (Trace.Mvcc_read_begin { txn = txid });
  Fun.protect
    ~finally:(fun () ->
      if Trace.enabled () then Trace.emit (Trace.Mvcc_read_end { txn = txid }))
    (fun () ->
      if Crashpoint.active Crashpoint.Mvcc_reader_key_lock then begin
        (* meta-fault: the lock-manager interaction R9 exists to forbid *)
        let k = Key.make from_value { Ids.rid_page = 0; Ids.rid_slot = 0 } in
        ignore
          (Txnmgr.try_lock t.bt_env.e_mgr txn
             (Protocol.key_name Protocol.Data_only t.bt_ix k)
             Lockmgr.S Lockmgr.Instant)
      end;
      let emit_read c visible =
        if Trace.enabled () then
          match c with
          | Some c ->
              Trace.emit
                (Trace.Mvcc_read
                   { txn = txid; epoch = c.Mvstore.cs_epoch; gsn = c.Mvstore.cs_gsn; visible })
          | None -> ()
      in
      let ctx = new_ctx () in
      let tree_cand =
        Fun.protect
          ~finally:(fun () -> drop_all t ctx)
          (fun () ->
            let leaf = mv_descend t ctx ~probe in
            let rec walk leaf pos =
              let l = Page.as_leaf leaf in
              if pos >= Vec.length l.Page.lf_keys then begin
                let next = l.Page.lf_next in
                if next = Ids.nil_page then None
                else begin
                  let np = hold t ctx next Latch.S in
                  drop t ctx leaf;
                  walk np 0
                end
              end
              else
                let k = Vec.get l.Page.lf_keys pos in
                if probe k < 0 then walk leaf (pos + 1)
                else
                  match
                    Mvstore.resolve store ~ix:t.bt_ix ~value:k.Key.value ~rid:k.Key.rid
                      ~txn:txid ~snap
                  with
                  | Mvstore.No_chain -> Some k
                  | Mvstore.Visible c ->
                      emit_read c true;
                      Some k
                  | Mvstore.Invisible -> walk leaf (pos + 1)
            in
            walk leaf (lower_bound (Page.as_leaf leaf).Page.lf_keys probe))
      in
      let rec store_cand after =
        match Mvstore.first_visible store ~ix:t.bt_ix ?after ~txn:txid ~snap from_value with
        | Some (v, rid, _) when (match skip_value with Some s -> String.equal v s | None -> false)
          ->
            store_cand (Some rid)
        | r -> r
      in
      match (tree_cand, store_cand after_rid) with
      | None, None -> None
      | Some k, None -> Some k
      | None, Some (v, rid, c) ->
          emit_read c true;
          Some (Key.make v rid)
      | Some k, Some (v, rid, c) ->
          let store_first =
            let cv = String.compare v k.Key.value in
            cv < 0 || (cv = 0 && Ids.compare_rid rid k.Key.rid < 0)
          in
          if store_first then begin
            emit_read c true;
            Some (Key.make v rid)
          end
          else Some k)

let mvcc_fetch t txn ~comparison value =
  let probe = fetch_probe comparison value in
  let skip_value = match comparison with `Gt -> Some value | `Eq | `Ge -> None in
  match mvcc_locate t txn ~probe ~from_value:value ~after_rid:None ~skip_value with
  | None -> None
  | Some k -> (
      match comparison with
      | `Eq -> if String.equal k.Key.value value then Some k else None
      | `Ge | `Gt -> Some k)

let fetch t txn ?(comparison = `Eq) ?(isolation = `Rr) value =
  if t.bt_cfg.locking = Protocol.Mvcc then begin
    (* snapshot isolation supersedes the RR/CS lock-duration distinction *)
    ignore isolation;
    mvcc_fetch t txn ~comparison value
  end
  else begin
  let probe = fetch_probe comparison value in
  serialize_point t;
  with_retries t "fetch" (fun ctx ->
      let leaf, _path = traverse t ctx txn ~write:false ~ignore_sm:false ~probe in
      let l = Page.as_leaf leaf in
      let pos = lower_bound l.Page.lf_keys probe in
      let loc = next_key_loc t ctx leaf pos in
      let found = loc_key leaf loc in
      let reqs =
        cs_adjust isolation (Protocol.fetch_locks t.bt_cfg.locking t.bt_ix ~current:found)
      in
      (match acquire_locks t ctx txn reqs with
      | `Ok -> ()
      | `Retry -> raise (Op_restart "fetch lock wait"));
      drop_all t ctx;
      (* under CS the lock's job (seeing only committed state) is done once
         granted under the latch; a standalone fetch releases immediately *)
      if isolation = `Cs then cs_release t txn reqs;
      match found with
      | Protocol.Eof -> None
      | Protocol.At k -> (
          match comparison with
          | `Eq -> if String.equal k.Key.value value then Some k else None
          | `Ge | `Gt -> Some k))
  end

(* --- Scans (Fetch Next, §2.3) --- *)

type cursor = {
  cr_bound : string;
  cr_strict : bool;
  cr_isolation : [ `Rr | `Cs ];
  mutable cr_locked : Protocol.lock_req list;  (* CS: locks to drop on move *)
  mutable cr_last : Key.t option;
  mutable cr_leaf : Ids.page_id;
  mutable cr_lsn : Lsn.t;
  mutable cr_pos : int;  (* position of the last returned key *)
  mutable cr_done : bool;
}

let open_scan t txn ?(comparison = `Ge) ?(isolation = `Rr) value =
  ignore t;
  ignore txn;
  {
    cr_bound = value;
    cr_strict = (comparison = `Gt);
    cr_isolation = isolation;
    cr_locked = [];
    cr_last = None;
    cr_leaf = Ids.nil_page;
    cr_lsn = Lsn.nil;
    cr_pos = -1;
    cr_done = false;
  }

let fetch_next t txn cursor ?stop () =
  if cursor.cr_done then None
  else if t.bt_cfg.locking = Protocol.Mvcc then begin
    (* snapshot scan: reposition strictly after the last returned key (by
       value only in a unique index, matching [probe_after]); no cursor
       locks, no fast-path page revalidation — the snapshot cannot move *)
    let probe, from_value, after_rid, skip_value =
      match cursor.cr_last with
      | Some k ->
          ( probe_after t k,
            k.Key.value,
            Some k.Key.rid,
            if t.bt_unique then Some k.Key.value else None )
      | None ->
          if cursor.cr_strict then
            (probe_gt cursor.cr_bound, cursor.cr_bound, None, Some cursor.cr_bound)
          else (probe_ge cursor.cr_bound, cursor.cr_bound, None, None)
    in
    match mvcc_locate t txn ~probe ~from_value ~after_rid ~skip_value with
    | None ->
        cursor.cr_done <- true;
        None
    | Some k ->
        let beyond =
          match stop with
          | None -> false
          | Some (bound, `Le) -> String.compare k.Key.value bound > 0
          | Some (bound, `Lt) -> String.compare k.Key.value bound >= 0
        in
        if beyond then begin
          cursor.cr_done <- true;
          None
        end
        else begin
          cursor.cr_last <- Some k;
          Some k
        end
  end
  else begin
    serialize_point t;
    let probe =
      match cursor.cr_last with
      | Some k -> probe_after t k
      | None -> if cursor.cr_strict then probe_gt cursor.cr_bound else probe_ge cursor.cr_bound
    in
    with_retries t "fetch_next" (fun ctx ->
        (* fast path (§2.3): the remembered leaf did not change since the
           last positioning *)
        let leaf, pos =
          let fast =
            if cursor.cr_leaf = Ids.nil_page then None
            else begin
              let page = hold t ctx cursor.cr_leaf Latch.S in
              if Page.is_leaf page && Lsn.compare page.Page.page_lsn cursor.cr_lsn = 0 then
                Some (page, cursor.cr_pos + 1)
              else begin
                drop t ctx page;
                None
              end
            end
          in
          match fast with
          | Some (page, pos) -> (page, pos)
          | None ->
              let leaf, _ = traverse t ctx txn ~write:false ~ignore_sm:false ~probe in
              (leaf, lower_bound (Page.as_leaf leaf).Page.lf_keys probe)
        in
        let loc = next_key_loc t ctx leaf pos in
        let found = loc_key leaf loc in
        let reqs =
          cs_adjust cursor.cr_isolation
            (Protocol.fetch_locks t.bt_cfg.locking t.bt_ix ~current:found)
        in
        (match acquire_locks t ctx txn reqs with
        | `Ok -> ()
        | `Retry -> raise (Op_restart "fetch_next lock wait"));
        (* cursor stability: the cursor has moved — drop the previous
           position's lock, keep the new one until the next move *)
        if cursor.cr_isolation = `Cs then begin
          cs_release t txn cursor.cr_locked;
          cursor.cr_locked <- reqs
        end;
        let beyond_stop k =
          match stop with
          | None -> false
          | Some (bound, `Le) -> String.compare k.Key.value bound > 0
          | Some (bound, `Lt) -> String.compare k.Key.value bound >= 0
        in
        let result =
          match loc with
          | Nk_eof ->
              cursor.cr_done <- true;
              None
          | Nk_here i ->
              let k = Vec.get (Page.as_leaf leaf).Page.lf_keys i in
              if beyond_stop k then begin
                cursor.cr_done <- true;
                None
              end
              else begin
                cursor.cr_last <- Some k;
                cursor.cr_leaf <- leaf.Page.pid;
                cursor.cr_lsn <- leaf.Page.page_lsn;
                cursor.cr_pos <- i;
                Some k
              end
          | Nk_right (p, i) ->
              let k = Vec.get (Page.as_leaf p).Page.lf_keys i in
              if beyond_stop k then begin
                cursor.cr_done <- true;
                None
              end
              else begin
                cursor.cr_last <- Some k;
                cursor.cr_leaf <- p.Page.pid;
                cursor.cr_lsn <- p.Page.page_lsn;
                cursor.cr_pos <- i;
                Some k
              end
        in
        drop_all t ctx;
        result)
  end

(* ------------------------------------------------------------------ *)
(* Undo (§3): page-oriented whenever possible, logical otherwise. *)

let undo_insert t txn (r : Logrec.t) ~key =
  mv_unrecord t txn ~key;
  let ctx = new_ctx () in
  let clr_body =
    Ixlog.Delete_key { ix = t.bt_ix; key; reset_sm = false; set_sm = false; mark_delete_bit = false }
  in
  Fun.protect
    ~finally:(fun () -> drop_all t ctx)
    (fun () ->
      let page = hold t ctx r.Logrec.page Latch.X in
      let page_oriented_ok =
        Page.is_leaf page
        && (not (Page.sm_bit page))
        &&
        let l = Page.as_leaf page in
        Vec.length l.Page.lf_keys > 1
        && match Vec.binary_search ~compare:Key.compare l.Page.lf_keys key with
           | Ok _ -> true
           | Error _ -> false
      in
      if page_oriented_ok then begin
        Stats.incr c_page_oriented_undos;
        log_clr_apply t txn page clr_body ~undo_stream:r.Logrec.stream ~undo_nxt:r.Logrec.prev_lsn
      end
      else begin
        (* logical undo: re-traverse under the X tree latch (§4) *)
        drop t ctx page;
        Stats.incr c_logical_undos;
        smo_acquire t txn ~exclusive:true;
        Fun.protect
          ~finally:(fun () -> smo_release t txn)
          (fun () ->
            let probe k = Key.compare k key in
            let leaf, path = traverse t ctx txn ~write:true ~ignore_sm:true ~probe in
            let l = Page.as_leaf leaf in
            (match Vec.binary_search ~compare:Key.compare l.Page.lf_keys key with
            | Error _ ->
                raise
                  (Structural_fault
                     (Printf.sprintf "%s: logical undo cannot find key %s" t.bt_name
                        (Key.to_string key)))
            | Ok _ -> ());
            let root, _ = read_anchor t ctx in
            let empties = Vec.length l.Page.lf_keys = 1 && leaf.Page.pid <> root in
            let leaf_pid = leaf.Page.pid in
            log_clr_apply t txn leaf
              (Ixlog.Delete_key
                 { ix = t.bt_ix; key; reset_sm = false; set_sm = empties; mark_delete_bit = false })
              ~undo_stream:r.Logrec.stream ~undo_nxt:r.Logrec.prev_lsn;
            drop_all t ctx;
            if empties then
              (* a page-delete SMO during undo: logged with regular records
                 inside its own NTA (§3) *)
              page_delete_smo_inner t txn ~leaf_pid ~path)
      end)

let undo_delete t txn (r : Logrec.t) ~key =
  mv_unrecord t txn ~key;
  let ctx = new_ctx () in
  let clr_body = Ixlog.Insert_key { ix = t.bt_ix; key; reset_sm = false; reset_delete = false } in
  Fun.protect
    ~finally:(fun () -> drop_all t ctx)
    (fun () ->
      let page = hold t ctx r.Logrec.page Latch.X in
      let page_oriented_ok =
        Page.is_leaf page
        && (not (Page.sm_bit page))
        && Page.free_space page >= Key.on_page_cost key
        &&
        (* "bound" (§3): both a lower and a higher key present on the page *)
        let l = Page.as_leaf page in
        match Vec.binary_search ~compare:Key.compare l.Page.lf_keys key with
        | Ok _ -> false
        | Error pos -> pos > 0 && pos < Vec.length l.Page.lf_keys
      in
      if page_oriented_ok then begin
        Stats.incr c_page_oriented_undos;
        log_clr_apply t txn page clr_body ~undo_stream:r.Logrec.stream ~undo_nxt:r.Logrec.prev_lsn
      end
      else begin
        drop t ctx page;
        Stats.incr c_logical_undos;
        smo_acquire t txn ~exclusive:true;
        Fun.protect
          ~finally:(fun () -> smo_release t txn)
          (fun () ->
            let probe k = Key.compare k key in
            let rec attempt n =
              if n > 4 then raise (Structural_fault (t.bt_name ^ ": undo-delete split loop"));
              let leaf, _path = traverse t ctx txn ~write:true ~ignore_sm:true ~probe in
              if Page.free_space leaf < Key.on_page_cost key then begin
                (* a split SMO during undo: regular records, own NTA (§3);
                   we already hold the tree latch *)
                drop_all t ctx;
                split_smo_held t txn ~probe ~needed:(Key.on_page_cost key) ~exclusive:true;
                attempt (n + 1)
              end
              else log_clr_apply t txn leaf clr_body ~undo_stream:r.Logrec.stream ~undo_nxt:r.Logrec.prev_lsn
            in
            attempt 0)
      end)

(* ------------------------------------------------------------------ *)
(* Resource-manager callbacks *)

let rm_redo env (r : Logrec.t) =
  let body = Ixlog.decode ~op:r.Logrec.op r.Logrec.body in
  let pool = env.e_pool in
  let page =
    match Bufpool.fix_opt pool r.Logrec.page with
    | Some p -> p
    | None -> (
        (* the page never reached disk: only whole-page formats recreate it *)
        match body with
        | Ixlog.Format_leaf _ | Ixlog.Format_nonleaf _ | Ixlog.Format_anchor _ ->
            Bufpool.fix_new pool r.Logrec.page (Page.empty_leaf ())
        | _ ->
            raise
              (Structural_fault
                 (Printf.sprintf "redo: page %d missing for op %s" r.Logrec.page
                    (Ixlog.op_name r.Logrec.op))))
  in
  if Lsn.( < ) page.Page.page_lsn r.Logrec.lsn then begin
    Apply.apply page body;
    page.Page.page_lsn <- r.Logrec.lsn;
    Bufpool.mark_dirty pool page r.Logrec.lsn
  end;
  Bufpool.unfix pool page

let rm_undo env txn (r : Logrec.t) =
  let body = Ixlog.decode ~op:r.Logrec.op r.Logrec.body in
  match body with
  | Ixlog.Insert_key { ix; key; _ } -> undo_insert (tree_for env ix) txn r ~key
  | Ixlog.Delete_key { ix; key; _ } -> undo_delete (tree_for env ix) txn r ~key
  | _ -> (
      (* SMO records: page-oriented compensation restores structure (§3) *)
      match Apply.undo_body body with
      | None ->
          raise
            (Structural_fault
               (Printf.sprintf "undo: op %s is not undoable" (Ixlog.op_name r.Logrec.op)))
      | Some comp ->
          let pool = env.e_pool in
          let page = Bufpool.fix pool r.Logrec.page in
          Latch.acquire page.Page.latch Latch.X;
          Fun.protect
            ~finally:(fun () ->
              Latch.release page.Page.latch;
              Bufpool.unfix pool page)
            (fun () ->
              let op = Ixlog.op_of_body comp in
              let lsn =
                Txnmgr.log_clr env.e_mgr txn ~page:page.Page.pid ~undo_stream:r.Logrec.stream
                  ~rm_id:Ixlog.rm_id ~op ~body:(Ixlog.encode comp)
                  ~undo_nxt:r.Logrec.prev_lsn ()
              in
              Apply.apply page comp;
              page.Page.page_lsn <- lsn;
              Bufpool.mark_dirty pool page lsn))

let env ?config mgr pool =
  let e =
    {
      e_mgr = mgr;
      e_pool = pool;
      e_trees = Hashtbl.create 8;
      e_default_cfg = (match config with Some c -> c | None -> default_config);
      e_smo_owners = Hashtbl.create 32;
      e_mvstore = Mvstore.create ();
      e_pause = None;
    }
  in
  (* commit stamps the txn's pending versions with its CSN — the Commit
     record's (epoch, gsn) — before the durability wait; rollback discards
     whatever per-op undo has not already unrecorded. Either way the txn's
     snapshot pin is released, lifting the GC horizon. *)
  Txnmgr.set_txn_end_hook mgr
    (Some
       (fun txn outcome ->
         let id = txn.Txnmgr.txn_id in
         let had_pin = Mvstore.pinned e.e_mvstore ~txn:id <> None in
         (match outcome with
         | `Commit (epoch, gsn) ->
             Mvstore.commit_txn e.e_mvstore ~txn:id
               ~csn:{ Mvstore.cs_epoch = epoch; cs_gsn = gsn }
         | `Rollback -> Mvstore.abort_txn e.e_mvstore ~txn:id);
         if had_pin && Trace.enabled () then Trace.emit (Trace.Mvcc_unpin { txn = id })));
  Txnmgr.register_rm mgr ~rm_id:Ixlog.rm_id
    ~locks:(fun r ->
      (* Commit-duration names fencing the record's change, for
         instant-restart loser lock reacquisition. Only an insert is fully
         derivable from the record body: its own key's name covers it
         (under data-only locking that is the record lock the record
         manager holds — an over-approximation of this tree-only path,
         which is safe). A delete's protection is the commit-duration X on
         the *next* key (Figure 2), known only to the live lock table, so
         it derives [] — the engine must undo such a loser eagerly rather
         than defer it. SMO / structure records run under latches + the
         tree latch and also derive nothing. Post-crash there are no open
         trees, so the environment's default locking protocol decides the
         name — the same protocol every tree opened through this env
         uses. *)
      match Ixlog.decode ~op:r.Logrec.op r.Logrec.body with
      | Ixlog.Insert_key { ix; key; _ } ->
          [ (Protocol.key_name e.e_default_cfg.locking ix key, Lockmgr.X) ]
      | _ -> [])
    ~redo:(fun r -> rm_redo e r)
    ~undo:(fun txn r -> rm_undo e txn r)
    ();
  e

(* ------------------------------------------------------------------ *)
(* Restart: rebuild the version store from the log history.

   Run after Analysis has rebuilt the transaction table (and, for classic
   restart, alongside/after redo) but BEFORE user transactions are served.
   Only in-flight transactions matter: anything that committed before the
   crash is below every post-restart snapshot's horizon, so its chains
   would collapse to the unversioned fallback immediately — the physical
   tree (after redo) IS its committed state. What must be chained is the
   crash residue: losers whose undo is deferred (instant restart serves
   reads while their uncommitted keys are still physically in the tree)
   and in-doubt prepared transactions. Their surviving index records are
   replayed in gsn order: an Update appends a pending version, a CLR
   unrecords the version it compensates. The versions stay pending —
   commit_prepared stamps an in-doubt txn's versions through the txn-end
   hook; a loser's are dropped one by one as its undo unrecords them. *)
let rebuild_versions env =
  Mvstore.clear env.e_mvstore;
  let mgr = env.e_mgr in
  let interesting = Txnmgr.active_txns mgr in
  (* Only under Mvcc: rebuilt pending versions are drained by undo's
     mv_unrecord calls, which other protocols never make — replaying for
     them would leave versions stranded forever. *)
  if env.e_default_cfg.locking = Protocol.Mvcc && interesting <> [] then begin
    let ids = List.map (fun tx -> tx.Txnmgr.txn_id) interesting in
    let logs = Txnmgr.logs mgr in
    let starts = Array.make (Logset.n logs) Lsn.nil in
    Logset.iter_merged logs ~starts (fun r ->
        if r.Logrec.rm_id = Ixlog.rm_id && List.mem r.Logrec.txn ids then
          match Ixlog.decode ~op:r.Logrec.op r.Logrec.body with
          | Ixlog.Insert_key { ix; key; _ } | Ixlog.Delete_key { ix; key; _ }
            when r.Logrec.kind = Logrec.Clr ->
              (* compensation: the CLR's body inverts the compensated
                 operation, but both unrecord the same key's newest
                 pending version *)
              Mvstore.unrecord env.e_mvstore ~ix ~value:key.Key.value ~rid:key.Key.rid
                ~txn:r.Logrec.txn
          | Ixlog.Insert_key { ix; key; _ } ->
              Mvstore.record env.e_mvstore ~ix ~value:key.Key.value ~rid:key.Key.rid
                ~txn:r.Logrec.txn ~present:true
          | Ixlog.Delete_key { ix; key; _ } ->
              Mvstore.record env.e_mvstore ~ix ~value:key.Key.value ~rid:key.Key.rid
                ~txn:r.Logrec.txn ~present:false
          | _ -> ())
  end

(* ------------------------------------------------------------------ *)
(* Unlocked inspection for tests and benches *)

let leftmost_leaf t =
  let pool = t.bt_env.e_pool in
  let anchor = Bufpool.fix pool t.bt_ix in
  let a = Page.as_anchor anchor in
  let root = a.Page.an_root in
  Bufpool.unfix pool anchor;
  let rec go pid =
    let page = Bufpool.fix pool pid in
    match page.Page.content with
    | Page.Leaf _ -> page
    | Page.Nonleaf nl ->
        let child = Vec.get nl.Page.nl_children 0 in
        Bufpool.unfix pool page;
        go child
    | Page.Data _ | Page.Anchor _ ->
        Bufpool.unfix pool page;
        raise (Structural_fault "non-index page in tree")
  in
  go root

let to_list t =
  let pool = t.bt_env.e_pool in
  let acc = ref [] in
  let rec walk page =
    let l = Page.as_leaf page in
    Vec.iter (fun k -> acc := (k.Key.value, k.Key.rid) :: !acc) l.Page.lf_keys;
    let next = l.Page.lf_next in
    Bufpool.unfix pool page;
    if next <> Ids.nil_page then walk (Bufpool.fix pool next)
  in
  walk (leftmost_leaf t);
  List.rev !acc

let root_pid t =
  let pool = t.bt_env.e_pool in
  let anchor = Bufpool.fix pool t.bt_ix in
  let a = Page.as_anchor anchor in
  let r = a.Page.an_root in
  Bufpool.unfix pool anchor;
  r

let height t =
  let pool = t.bt_env.e_pool in
  let anchor = Bufpool.fix pool t.bt_ix in
  let a = Page.as_anchor anchor in
  let h = a.Page.an_height in
  Bufpool.unfix pool anchor;
  h

let check_invariants t =
  let pool = t.bt_env.e_pool in
  let fail fmt = Printf.ksprintf (fun m -> failwith (t.bt_name ^ ": invariant: " ^ m)) fmt in
  let anchor = Bufpool.fix pool t.bt_ix in
  let a = Page.as_anchor anchor in
  let root = a.Page.an_root and h = a.Page.an_height in
  Bufpool.unfix pool anchor;
  let leaves = ref [] in
  let rec walk pid expected_level (lo : Key.t option) (hi : Key.t option) =
    let page = Bufpool.fix pool pid in
    (match page.Page.content with
    | Page.Leaf l ->
        if expected_level <> 0 then fail "leaf %d at level %d" pid expected_level;
        let n = Vec.length l.Page.lf_keys in
        if n = 0 && pid <> root && not l.Page.lf_sm_bit then
          fail "reachable empty leaf %d with SM_Bit=0" pid;
        for i = 0 to n - 2 do
          if Key.compare (Vec.get l.Page.lf_keys i) (Vec.get l.Page.lf_keys (i + 1)) >= 0 then
            fail "leaf %d keys out of order" pid
        done;
        (match lo with
        | Some b when n > 0 && Key.compare (Vec.get l.Page.lf_keys 0) b < 0 ->
            fail "leaf %d violates lower separator" pid
        | Some _ | None -> ());
        (match hi with
        | Some b when n > 0 && Key.compare (Vec.get l.Page.lf_keys (n - 1)) b >= 0 ->
            fail "leaf %d violates high key (%s >= %s)" pid
              (Key.to_string (Vec.get l.Page.lf_keys (n - 1)))
              (Key.to_string b)
        | Some _ | None -> ());
        leaves := pid :: !leaves
    | Page.Nonleaf nl ->
        if nl.Page.nl_level <> expected_level then
          fail "nonleaf %d level %d expected %d" pid nl.Page.nl_level expected_level;
        let nc = Vec.length nl.Page.nl_children in
        let nk = Vec.length nl.Page.nl_high_keys in
        if nc = 0 then fail "reachable empty nonleaf %d" pid;
        if nk <> nc - 1 then fail "nonleaf %d arity: %d children, %d high keys" pid nc nk;
        for i = 0 to nk - 2 do
          if Key.compare (Vec.get nl.Page.nl_high_keys i) (Vec.get nl.Page.nl_high_keys (i + 1)) >= 0
          then fail "nonleaf %d high keys out of order" pid
        done;
        for i = 0 to nc - 1 do
          let child_lo = if i = 0 then lo else Some (Vec.get nl.Page.nl_high_keys (i - 1)) in
          let child_hi = if i = nc - 1 then hi else Some (Vec.get nl.Page.nl_high_keys i) in
          walk (Vec.get nl.Page.nl_children i) (expected_level - 1) child_lo child_hi
        done
    | Page.Data _ | Page.Anchor _ -> fail "non-index page %d reachable" pid);
    Bufpool.unfix pool page
  in
  walk root h None None;
  (* leaf chain must visit exactly the reachable leaves, in order *)
  let chain = ref [] in
  let rec follow pid prev =
    if pid <> Ids.nil_page then begin
      let page = Bufpool.fix pool pid in
      let l = Page.as_leaf page in
      if l.Page.lf_prev <> prev then fail "leaf %d prev pointer mismatch" pid;
      chain := pid :: !chain;
      let next = l.Page.lf_next in
      Bufpool.unfix pool page;
      follow next pid
    end
  in
  let lm = leftmost_leaf t in
  let lm_pid = lm.Page.pid in
  Bufpool.unfix pool lm;
  follow lm_pid Ids.nil_page;
  let reach = List.sort compare !leaves in
  let chained = List.sort compare !chain in
  if reach <> chained then
    fail "leaf chain (%d pages) differs from reachable leaves (%d pages)" (List.length chained)
      (List.length reach);
  let keys = to_list t in
  let rec sorted = function
    | (v1, r1) :: ((v2, r2) :: _ as rest) ->
        if String.compare v1 v2 > 0 || (String.compare v1 v2 = 0 && Ids.compare_rid r1 r2 >= 0)
        then fail "keys out of global order at %S" v2
        else sorted rest
    | [ _ ] | [] -> ()
  in
  sorted keys

let locate_leaf t value =
  let pool = t.bt_env.e_pool in
  (* same separator convention as a real search: equality routes right *)
  let probe k = String.compare k.Key.value value in
  let rec go pid =
    let page = Bufpool.fix pool pid in
    match page.Page.content with
    | Page.Leaf _ ->
        Bufpool.unfix pool page;
        pid
    | Page.Nonleaf nl ->
        let nk = Vec.length nl.Page.nl_high_keys in
        let idx =
          let rec find i =
            if i >= nk then Vec.length nl.Page.nl_children - 1
            else if probe (Vec.get nl.Page.nl_high_keys i) > 0 then i
            else find (i + 1)
          in
          find 0
        in
        let child = Vec.get nl.Page.nl_children idx in
        Bufpool.unfix pool page;
        go child
    | Page.Data _ | Page.Anchor _ ->
        Bufpool.unfix pool page;
        raise (Structural_fault "non-index page in tree")
  in
  go (root_pid t)

let leaf_pids t =
  let pool = t.bt_env.e_pool in
  let acc = ref [] in
  let rec walk pid =
    if pid <> Ids.nil_page then begin
      acc := pid :: !acc;
      let page = Bufpool.fix pool pid in
      let next = (Page.as_leaf page).Page.lf_next in
      Bufpool.unfix pool page;
      walk next
    end
  in
  let lm = leftmost_leaf t in
  let lm_pid = lm.Page.pid in
  Bufpool.unfix pool lm;
  walk lm_pid;
  List.rev !acc

let page_count t =
  let pool = t.bt_env.e_pool in
  let count = ref 0 in
  let rec walk pid =
    incr count;
    let page = Bufpool.fix pool pid in
    (match page.Page.content with
    | Page.Nonleaf nl -> Vec.iter walk nl.Page.nl_children
    | Page.Leaf _ | Page.Data _ | Page.Anchor _ -> ());
    Bufpool.unfix pool page
  in
  walk (root_pid t);
  !count
