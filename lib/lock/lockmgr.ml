open Aries_util
module Sched = Aries_sched.Sched
module Trace = Aries_trace.Trace

let c_lock_deadlocks = Stats.counter Stats.lock_deadlocks
let c_lock_requests = Stats.counter Stats.lock_requests
let c_lock_waits = Stats.counter Stats.lock_waits

type mode = Lockspec.mode = IS | IX | S | SIX | X

type duration = Lockspec.duration = Instant | Manual | Commit

type name = Lockspec.name =
  | Rid of Ids.rid
  | Key_value of Ids.index_id * string
  | Eof of Ids.index_id
  | Table of int
  | Page_lock of Ids.page_id
  | Tree_lock of Ids.index_id

type outcome = Granted | Denied | Deadlock

exception Deadlock_abort of Ids.txn_id

let compatible a b =
  match (a, b) with
  | IS, (IS | IX | S | SIX) | (IX | S | SIX), IS -> true
  | IX, IX -> true
  | S, S -> true
  | IS, X | X, IS -> false
  | IX, (S | SIX | X) | (S | SIX | X), IX -> false
  | S, (SIX | X) | (SIX | X), S -> false
  | SIX, (SIX | X) | X, (SIX | X) -> false

(* Lattice: IS < IX < SIX < X, IS < S < SIX; join of S and IX is SIX. *)
let supremum a b =
  if a = b then a
  else
    match (a, b) with
    | IS, m | m, IS -> m
    | X, _ | _, X -> X
    | SIX, _ | _, SIX -> SIX
    | S, IX | IX, S -> SIX
    | S, S -> S
    | IX, IX -> IX

let duration_rank = function Instant -> 0 | Manual -> 1 | Commit -> 2

(* The per-(mode, duration) request counters, registered once: indexed by
   mode, then by [duration_rank]. *)
let mode_duration_counters =
  Array.map
    (fun mode ->
      Array.map
        (fun duration ->
          Stats.counter
            (Stats.lock_label ~mode:(Lockspec.mode_to_string mode)
               ~duration:(Lockspec.duration_to_string duration)))
        [| Instant; Manual; Commit |])
    [| IS; IX; S; SIX; X |]

let mode_duration_counter mode duration =
  let m = match mode with IS -> 0 | IX -> 1 | S -> 2 | SIX -> 3 | X -> 4 in
  mode_duration_counters.(m).(duration_rank duration)

let stronger_duration a b = if duration_rank a >= duration_rank b then a else b

type holder = {
  h_txn : Ids.txn_id;
  mutable h_mode : mode;
  mutable h_duration : duration;
}

type waiter = {
  wt_txn : Ids.txn_id;
  wt_mode : mode;  (* for conversions: the target (supremum) mode *)
  wt_duration : duration;
  wt_conversion : bool;
  mutable wt_waker : Sched.waker option;
}

type head = {
  mutable hd_holders : holder list;
  mutable hd_waiters : waiter Vec.t;
      (* [no_waiters] until a request first waits here *)
}

(* Shared by every head no request has waited on, so a head costs no
   vector of its own while it only has holders; never written. *)
let no_waiters : waiter Vec.t = Vec.create ()

type txn_info = {
  ti_birth : int;
  mutable ti_held : name list;
  mutable ti_waiting_on : name option;
  mutable ti_no_victim : bool;
}

type t = {
  table : (name, head) Hashtbl.t;
  txns : (Ids.txn_id, txn_info) Hashtbl.t;
  mutable births : int;
}

let create () = { table = Hashtbl.create 256; txns = Hashtbl.create 32; births = 0 }

let attach t txn =
  if not (Hashtbl.mem t.txns txn) then begin
    t.births <- t.births + 1;
    Hashtbl.replace t.txns txn
      { ti_birth = t.births; ti_held = []; ti_waiting_on = None; ti_no_victim = false }
  end

let info t txn =
  attach t txn;
  Hashtbl.find t.txns txn

let set_no_victim t txn = (info t txn).ti_no_victim <- true

let head_of t name =
  match Hashtbl.find_opt t.table name with
  | Some h -> h
  | None ->
      let h = { hd_holders = []; hd_waiters = no_waiters } in
      Hashtbl.replace t.table name h;
      h

(* A head lives only while some transaction holds or waits for its name,
   so the table, and every scan of it, is as small as the live lock set. *)
let drop_if_idle t name head =
  if head.hd_holders = [] && Vec.is_empty head.hd_waiters then Hashtbl.remove t.table name

let holder_of head txn = List.find_opt (fun h -> h.h_txn = txn) head.hd_holders

(* [txn]'s holder entry on [name], with the name's head. *)
let holding t name txn =
  match Hashtbl.find_opt t.table name with
  | None -> None
  | Some head -> Option.map (fun h -> (head, h)) (holder_of head txn)

let compatible_with_others head txn mode =
  List.for_all (fun h -> h.h_txn = txn || compatible h.h_mode mode) head.hd_holders

let record_held ti name = if not (List.mem name ti.ti_held) then ti.ti_held <- name :: ti.ti_held

(* Grant as many queued requests as strict FIFO permits. Conversions sit at
   the front of the queue (enqueue puts them there), giving them priority.
   An instant-duration grant leaves no holder state behind: it certifies
   that at this moment no conflicting lock was held, which is all the
   protocol uses it for. *)
let grant_loop t name head =
  let rec loop () =
    if not (Vec.is_empty head.hd_waiters) then begin
      let w = Vec.get head.hd_waiters 0 in
      let grantable =
        if w.wt_conversion then compatible_with_others head w.wt_txn w.wt_mode
        else List.for_all (fun h -> compatible h.h_mode w.wt_mode) head.hd_holders
      in
      if grantable then begin
        ignore (Vec.remove head.hd_waiters 0);
        let ti = info t w.wt_txn in
        ti.ti_waiting_on <- None;
        (if w.wt_duration <> Instant then
           match holder_of head w.wt_txn with
           | Some h ->
               h.h_mode <- supremum h.h_mode w.wt_mode;
               h.h_duration <- stronger_duration h.h_duration w.wt_duration
           | None ->
               head.hd_holders <-
                 { h_txn = w.wt_txn; h_mode = w.wt_mode; h_duration = w.wt_duration }
                 :: head.hd_holders;
               record_held ti name);
        (match w.wt_waker with
        | Some waker -> Sched.wake waker
        | None -> assert false (* enqueued inside suspend, waker always set *));
        loop ()
      end
    end
  in
  loop ()

(* Re-run the grant loop after a release or a cancelled wait, then drop the
   head if that left it idle. *)
let settle t name head =
  grant_loop t name head;
  drop_if_idle t name head

(* Waits-for edges of a waiting transaction: the holders its target mode
   conflicts with, plus every waiter queued ahead of it (strict FIFO means
   those really are waited for). *)
let edges_of t txn =
  match (info t txn).ti_waiting_on with
  | None -> []
  | Some name -> (
      match Hashtbl.find_opt t.table name with
      | None -> []
      | Some head -> (
          match Vec.find_index (fun w -> w.wt_txn = txn) head.hd_waiters with
          | None -> []
          | Some pos ->
              let me = Vec.get head.hd_waiters pos in
              let holder_edges =
                List.filter_map
                  (fun h ->
                    if h.h_txn <> txn && not (compatible h.h_mode me.wt_mode) then Some h.h_txn
                    else None)
                  head.hd_holders
              in
              let ahead = ref [] in
              for i = 0 to pos - 1 do
                let w = Vec.get head.hd_waiters i in
                if w.wt_txn <> txn then ahead := w.wt_txn :: !ahead
              done;
              List.sort_uniq compare (holder_edges @ !ahead)))

(* DFS from [start] looking for a cycle through [start]; returns its nodes. *)
let find_cycle t start =
  let visited = Hashtbl.create 16 in
  let rec dfs path txn =
    if txn = start && path <> [] then Some path
    else if Hashtbl.mem visited txn then None
    else begin
      Hashtbl.replace visited txn ();
      let rec try_edges = function
        | [] -> None
        | next :: rest -> (
            match dfs (txn :: path) next with Some c -> Some c | None -> try_edges rest)
      in
      try_edges (edges_of t txn)
    end
  in
  dfs [] start

let remove_waiter head txn =
  match Vec.find_index (fun w -> w.wt_txn = txn) head.hd_waiters with
  | Some i -> ignore (Vec.remove head.hd_waiters i)
  | None -> ()

(* Abort the waiting transaction [victim]: dequeue it, deliver the
   exception at its suspension point, and re-run the grant loop on the
   queue it was blocking. *)
let abort_victim t victim =
  let ti = info t victim in
  match ti.ti_waiting_on with
  | None -> ()  (* raced with a grant; nothing to abort *)
  | Some name ->
      let head = head_of t name in
      if Trace.enabled () then Trace.emit (Trace.Deadlock_victim { txn = victim });
      (match Vec.find_index (fun w -> w.wt_txn = victim) head.hd_waiters with
      | Some i ->
          let w = Vec.remove head.hd_waiters i in
          ti.ti_waiting_on <- None;
          (match w.wt_waker with
          | Some waker -> Sched.abort waker (Deadlock_abort victim)
          | None -> assert false)
      | None -> ti.ti_waiting_on <- None);
      settle t name head

(* Run detection from [txn] until no cycle through it remains. Returns
   [true] if [txn] itself was selected as the victim (the caller then
   cancels its own wait). *)
let resolve_deadlocks t txn =
  let rec loop () =
    match find_cycle t txn with
    | None -> false
    | Some cycle ->
        let members = List.sort_uniq compare (txn :: cycle) in
        (* The paper (§4): rolling-back transactions request no locks, so a
           no-victim transaction can never appear in a waits-for cycle under
           the protocol. Exempt them from selection anyway; a cycle made
           entirely of exempt transactions would be a protocol violation. *)
        let candidates = List.filter (fun m -> not (info t m).ti_no_victim) members in
        if candidates = [] then
          failwith "Lockmgr: waits-for cycle consists only of no-victim transactions";
        let victim =
          List.fold_left
            (fun best m -> if (info t m).ti_birth > (info t best).ti_birth then m else best)
            (List.hd candidates) (List.tl candidates)
        in
        Stats.incr c_lock_deadlocks;
        if victim = txn then true
        else begin
          abort_victim t victim;
          loop ()
        end
  in
  loop ()

(* Every waiting transaction with its waits-for edges — the per-shard
   slice the cross-shard detector unions into a global graph
   (local cycles are caught at request time by [resolve_deadlocks]; cycles
   spanning shards are invisible to any single table). *)
let waiting t =
  let out = ref [] in
  Hashtbl.iter
    (fun _ head ->
      Vec.iter
        (fun w -> out := (w.wt_txn, edges_of t w.wt_txn) :: !out)
        head.hd_waiters)
    t.table;
  List.sort compare !out

let abort_waiter t ~txn =
  match (info t txn).ti_waiting_on with
  | None -> false
  | Some _ ->
      abort_victim t txn;
      true

let lock t ~txn ?(cond = false) name mode duration =
  let ti = info t txn in
  Stats.incr c_lock_requests;
  Stats.incr (mode_duration_counter mode duration);
  if Trace.enabled () then Trace.emit (Trace.Lock_request { txn; name; mode; duration; cond });
  let head = head_of t name in
  let grant_immediately () =
    match holder_of head txn with
    | Some h ->
        let target = supremum h.h_mode mode in
        if compatible_with_others head txn target then begin
          if duration <> Instant then begin
            h.h_mode <- target;
            h.h_duration <- stronger_duration h.h_duration duration
          end;
          true
        end
        else false
    | None ->
        if Vec.is_empty head.hd_waiters && compatible_with_others head txn mode then begin
          if duration <> Instant then begin
            head.hd_holders <- { h_txn = txn; h_mode = mode; h_duration = duration } :: head.hd_holders;
            record_held ti name
          end;
          true
        end
        else false
  in
  if grant_immediately () then begin
    drop_if_idle t name head;
    if Trace.enabled () then
      Trace.emit (Trace.Lock_grant { txn; name; mode; duration; waited = false });
    Granted
  end
  else if cond then begin
    if Trace.enabled () then Trace.emit (Trace.Lock_deny { txn; name; mode });
    Denied
  end
  else begin
    Stats.incr c_lock_waits;
    (* R1 hazard point: emitted (and checked) {e before} we suspend, so a
       wait entered while holding a latch raises at the request site. *)
    if Trace.enabled () then Trace.emit (Trace.Lock_wait { txn; name; mode });
    let conversion, target =
      match holder_of head txn with
      | Some h -> (true, supremum h.h_mode mode)
      | None -> (false, mode)
    in
    let waiter =
      {
        wt_txn = txn;
        wt_mode = target;
        wt_duration = duration;
        wt_conversion = conversion;
        wt_waker = None;
      }
    in
    let enqueue () =
      if head.hd_waiters == no_waiters then head.hd_waiters <- Vec.create ();
      if conversion then begin
        (* conversions queue ahead of fresh requests, behind other conversions *)
        let pos = ref 0 in
        while
          !pos < Vec.length head.hd_waiters && (Vec.get head.hd_waiters !pos).wt_conversion
        do
          incr pos
        done;
        Vec.insert head.hd_waiters !pos waiter
      end
      else Vec.push head.hd_waiters waiter
    in
    try
      Sched.suspend (fun w ->
          waiter.wt_waker <- Some w;
          enqueue ();
          ti.ti_waiting_on <- Some name;
          if resolve_deadlocks t txn then begin
            (* we are the victim: cancel our own wait and raise at our own
               suspension point *)
            remove_waiter head txn;
            ti.ti_waiting_on <- None;
            Sched.abort w (Deadlock_abort txn);
            settle t name head
          end);
      (* woken by the grant loop, which already installed holder state;
         the tracer may have been switched on during the wait *)
      if Trace.enabled () then
        Trace.emit (Trace.Lock_grant { txn; name; mode; duration; waited = true });
      Granted
    with Deadlock_abort v ->
      if v = txn then begin
        if Trace.enabled () then Trace.emit (Trace.Deadlock_victim { txn });
        Deadlock
      end
      else raise (Deadlock_abort v)
  end

let release t ~txn name =
  let ti = info t txn in
  match holding t name txn with
  | None ->
      invalid_arg
        (Printf.sprintf "Lockmgr.release: %d does not hold %s" txn (Lockspec.name_to_string name))
  | Some (head, h) ->
      if h.h_duration = Commit then
        invalid_arg
          (Printf.sprintf "Lockmgr.release: %s on %s is commit-duration" (string_of_int txn)
             (Lockspec.name_to_string name));
      head.hd_holders <- List.filter (fun x -> x.h_txn <> txn) head.hd_holders;
      ti.ti_held <- List.filter (fun n -> n <> name) ti.ti_held;
      if Trace.enabled () then Trace.emit (Trace.Lock_release { txn; name });
      settle t name head

let release_manual t ~txn name =
  match holding t name txn with
  | Some (head, h) when h.h_duration = Manual ->
      head.hd_holders <- List.filter (fun x -> x.h_txn <> txn) head.hd_holders;
      let ti = info t txn in
      ti.ti_held <- List.filter (fun n -> n <> name) ti.ti_held;
      if Trace.enabled () then Trace.emit (Trace.Lock_release { txn; name });
      settle t name head;
      true
  | Some _ | None -> false

let downgrade t ~txn name mode =
  match holding t name txn with
  | None ->
      invalid_arg
        (Printf.sprintf "Lockmgr.downgrade: %d does not hold %s" txn (Lockspec.name_to_string name))
  | Some (head, h) ->
      h.h_mode <- mode;
      grant_loop t name head

let release_all t ~txn =
  match Hashtbl.find_opt t.txns txn with
  | None -> ()
  | Some ti ->
      assert (ti.ti_waiting_on = None);
      if Trace.enabled () then Trace.emit (Trace.Lock_release_all { txn });
      List.iter
        (fun name ->
          let head = Hashtbl.find t.table name in
          head.hd_holders <- List.filter (fun h -> h.h_txn <> txn) head.hd_holders;
          settle t name head)
        ti.ti_held;
      Hashtbl.remove t.txns txn

let holds t ~txn name = Option.map (fun (_, h) -> h.h_mode) (holding t name txn)

let holders t name =
  match Hashtbl.find_opt t.table name with
  | None -> []
  | Some head ->
      List.map (fun h -> (h.h_txn, h.h_mode)) head.hd_holders
      |> List.sort (fun (a, _) (b, _) -> compare a b)

let waiter_count t name =
  match Hashtbl.find_opt t.table name with None -> 0 | Some head -> Vec.length head.hd_waiters

let held_count t ~txn =
  match Hashtbl.find_opt t.txns txn with None -> 0 | Some ti -> List.length ti.ti_held

(* Quiescence check for the simulation harness: a lock table with no
   holders and no waiters anywhere. Counts actual grant state (hd_holders),
   not the per-txn name cache, so stale cache entries cannot hide a leak. *)
let total_held t =
  Hashtbl.fold
    (fun _ head acc -> acc + List.length head.hd_holders + Vec.length head.hd_waiters)
    t.table 0

let table_size t = Hashtbl.length t.table

let held_locks t ~txn =
  match Hashtbl.find_opt t.txns txn with
  | None -> []
  | Some ti ->
      List.filter_map
        (fun name ->
          match holding t name txn with
          | Some (_, h) -> Some (name, h.h_mode)
          | None -> None)
        ti.ti_held
