exception Crash of int

type state = {
  mutable counter : int;
  mutable trip_at : int option;
  mutable trip_label : string option;
  mutable is_tripped : bool;
}

let st = { counter = 0; trip_at = None; trip_label = None; is_tripped = false }

let faults : (string, unit) Hashtbl.t = Hashtbl.create 4

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

let enable_fault name = Hashtbl.replace faults name ()

let disable_fault name = Hashtbl.remove faults name

let fault_active name = Hashtbl.mem faults name

let clear_faults () = Hashtbl.reset faults

let fault_wal_skip_flush = "wal.skip-flush"

let fault_lock_uncond_under_latch = "lock.uncond-under-latch"

let fault_commit_early_ack = "commit.early-ack"

let fault_ckpt_premature_truncate = "ckpt.premature-truncate"

let fault_disk_torn_write = "disk.torn-write"

let fault_disk_bit_flip = "disk.bit-flip"

let fault_disk_transient_eio = "disk.transient-eio"

let fault_log_torn_append = "log.torn-append"

let fault_crc_check_disabled = "crc.check-disabled"

let fault_instant_skip_redo = "instant.skip-redo"

let fault_wal_stream_shuffle = "wal.stream-shuffle"

let fault_wal_stream_fence_skip = "wal.stream-fence-skip"

let fault_mvcc_reader_key_lock = "mvcc.reader-key-lock"

let fault_twopc_early_decide = "2pc.early-decide"

let fault_shard_down = "shard.down"

let shard_down_fault k = Printf.sprintf "%s.%d" fault_shard_down k
