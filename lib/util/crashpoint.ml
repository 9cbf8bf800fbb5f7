exception Crash of int

type state = {
  mutable counter : int;
  mutable trip_at : int option;
  mutable trip_label : string option;
  mutable is_tripped : bool;
}

let st = { counter = 0; trip_at = None; trip_label = None; is_tripped = false }

let reset () =
  st.counter <- 0;
  st.trip_at <- None;
  st.trip_label <- None;
  st.is_tripped <- false

let arm ~at =
  if at <= 0 then invalid_arg "Crashpoint.arm: crash index must be positive";
  st.trip_at <- Some at

let arm_label label = st.trip_label <- Some label

let disarm () =
  st.trip_at <- None;
  st.trip_label <- None;
  st.is_tripped <- false

type point = { label : string; hits : Stats.counter }

let point label = { label; hits = Stats.counter ("crashpoint." ^ label) }

let hit { label; hits } =
  st.counter <- st.counter + 1;
  Stats.incr hits;
  if st.is_tripped then raise (Crash st.counter)
  else begin
    (match st.trip_label with
    | Some l when String.equal l label ->
        st.is_tripped <- true;
        raise (Crash st.counter)
    | Some _ | None -> ());
    match st.trip_at with
    | Some at when st.counter >= at ->
        st.is_tripped <- true;
        raise (Crash st.counter)
    | Some _ | None -> ()
  end

let count () = st.counter

let tripped () = st.is_tripped

type fault =
  | Wal_skip_flush
  | Lock_uncond_under_latch
  | Commit_early_ack
  | Ckpt_premature_truncate
  | Wal_stream_fence_skip
  | Mvcc_reader_key_lock
  | Twopc_early_decide
  | Crc_check_disabled
  | Instant_skip_redo
  | Shard_down of int

let meta_faults =
  [
    Lock_uncond_under_latch;
    Commit_early_ack;
    Ckpt_premature_truncate;
    Wal_stream_fence_skip;
    Mvcc_reader_key_lock;
    Twopc_early_decide;
    Wal_skip_flush;
    Crc_check_disabled;
    Instant_skip_redo;
  ]

let to_string = function
  | Wal_skip_flush -> "wal.skip-flush"
  | Lock_uncond_under_latch -> "lock.uncond-under-latch"
  | Commit_early_ack -> "commit.early-ack"
  | Ckpt_premature_truncate -> "ckpt.premature-truncate"
  | Wal_stream_fence_skip -> "wal.stream-fence-skip"
  | Mvcc_reader_key_lock -> "mvcc.reader-key-lock"
  | Twopc_early_decide -> "2pc.early-decide"
  | Crc_check_disabled -> "crc.check-disabled"
  | Instant_skip_redo -> "instant.skip-redo"
  | Shard_down k -> "shard.down." ^ string_of_int k

(* The names live in [to_string] alone. *)
let of_string s = List.find_opt (fun f -> String.equal (to_string f) s) meta_faults

(* The active set: empty outside tests and sim demos, so a check is one
   comparison against [[]]. *)
let faults : fault list ref = ref []

let active f = match !faults with [] -> false | l -> List.mem f l

let enable f = if not (active f) then faults := f :: !faults

let disable f = faults := List.filter (fun g -> g <> f) !faults

let clear () = faults := []
