(* The client's record of what it wrote, used to judge the state a restart
   recovers. Every write of every transaction attempt is logged per key in
   execution order; a key's writes are serialized by its commit-duration X
   lock, so that order is the commit order of the transactions that wrote
   it. After a crash a key must hold the value of its last write by an
   acknowledged transaction, or the value a later writer that had called
   commit (but was not yet acknowledged) left; nothing else. *)

type status =
  | Open  (** running; never called commit *)
  | Committing  (** commit called, not acknowledged *)
  | Acked
  | Undone  (** rolled back, voluntarily or as a victim *)

type 'v t = {
  status : (int, status) Hashtbl.t;  (** by attempt id *)
  writes : (string, (int * 'v option) list) Hashtbl.t;  (** most recent first *)
}

let preload_attempt = 0

let create () =
  let m = { status = Hashtbl.create 1024; writes = Hashtbl.create 4096 } in
  Hashtbl.replace m.status preload_attempt Acked;
  m

let set m attempt st = Hashtbl.replace m.status attempt st

let write m attempt key v =
  let prev = Option.value (Hashtbl.find_opt m.writes key) ~default:[] in
  Hashtbl.replace m.writes key ((attempt, v) :: prev)

let status m attempt = Option.value (Hashtbl.find_opt m.status attempt) ~default:Open

(* The last acknowledged value of a key ([None]: absent). *)
let acked m key =
  let rec go = function
    | [] -> None
    | (a, v) :: rest -> if status m a = Acked then v else go rest
  in
  go (Option.value (Hashtbl.find_opt m.writes key) ~default:[])

(* Values a key may hold after a crash: the last acknowledged one plus the
   final value of each later writer that had called commit. *)
let allowed m key =
  let rec go seen acc = function
    | [] -> None :: acc
    | (a, v) :: rest -> (
        match status m a with
        | Acked -> v :: acc
        | Committing when not (List.mem a seen) -> go (a :: seen) (v :: acc) rest
        | Committing | Open | Undone -> go seen acc rest)
  in
  go [] [] (Option.value (Hashtbl.find_opt m.writes key) ~default:[])

(* Judge a recovered state given as (key, value) pairs; [what] names the
   restart in the failure message. *)
let verify m ~what (state : (string * 'v) list) =
  let found = Hashtbl.create (List.length state) in
  List.iter
    (fun (k, v) ->
      if Hashtbl.mem found k then Round.fail "%s: key %s appears twice" what k;
      Hashtbl.replace found k v)
    state;
  Hashtbl.iter
    (fun k _ ->
      if not (Hashtbl.mem m.writes k) then Round.fail "%s: key %s was never written" what k)
    found;
  Hashtbl.iter
    (fun k _ ->
      let actual = Hashtbl.find_opt found k in
      if not (List.mem actual (allowed m k)) then
        Round.fail "%s: key %s holds %s, not its acknowledged value (%s)" what k
          (if actual = None then "nothing" else "a value")
          (if acked m k = None then "absent" else "present"))
    m.writes

(* Keys whose acknowledged value is present, with that value. *)
let fold_acked m f init =
  Hashtbl.fold (fun k _ acc -> match acked m k with Some v -> f k v acc | None -> acc) m.writes init
