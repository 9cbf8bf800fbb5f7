open Aries_util

(* The multi-stream WAL: N independent {!Logmgr} logs ("streams"), each a
   full segmented + CRC'd log with its own byte-offset LSNs, plus two
   process-wide counters stamped on every record at append time:

   - [epoch], the commit epoch. Group commit advances it per batch (and the
     synchronous commit path per commit); a commit is acknowledged only when
     every stream the transaction touched is forced through the batch's
     per-stream fence (rule R8). Epochs totally order commit batches without
     totally ordering appends — the "cheap global constraint" of Zhou et
     al.'s partially constrained logs.
   - [gsn], the global sequence number: a Lamport-style append counter that
     is the tiebreak inside an epoch. Recovery merges streams by
     [(epoch, gsn)]; appends never yield mid-record, so that order equals
     plain gsn order. The counter is recoverable: the max gsn among the
     streams' surviving last records bounds every surviving record's gsn
     (see [recover_counters]).

   Routing: records that touch a page go to [hash(page) mod N], so {e all}
   of a page's records live on one stream — pageLSN/recLSN comparisons, the
   WAL rule, per-page redo and per-page log chains keep their single-log
   meaning verbatim. Pageless transaction-control records go to
   [hash(txn) mod N]; checkpoint records go to stream 0 (the control
   stream), which also holds the master record. *)

type t = {
  streams : Logmgr.t array;
  mutable epoch : int;
  mutable gsn : int;
}

let max_streams = 256

let create ?segment_size ?(streams = 1) () =
  if streams < 1 || streams > max_streams then
    invalid_arg (Printf.sprintf "Logset.create: streams must be in [1,%d]" max_streams);
  {
    streams = Array.init streams (fun _ -> Logmgr.create ?segment_size ());
    epoch = 1;
    gsn = 0;
  }

let of_mgr mgr = { streams = [| mgr |]; epoch = 1; gsn = 0 }

let n t = Array.length t.streams

let stream t i = t.streams.(i)

let control t = t.streams.(0)

let iteri t f = Array.iteri f t.streams

(* Fibonacci-hash mix: page/txn ids are small sequential ints, so a plain
   [mod] would put every hot page on stream 0. Deterministic across runs. *)
let mix x =
  let x = x * 0x9E3779B1 land max_int in
  (x lsr 16) lxor x

let route_page t pid = if Array.length t.streams = 1 then 0 else mix pid mod Array.length t.streams

let route_txn t txn = if Array.length t.streams = 1 then 0 else mix txn mod Array.length t.streams

let page_stream t pid = t.streams.(route_page t pid)

let current_epoch t = t.epoch

let advance_epoch t =
  t.epoch <- t.epoch + 1;
  t.epoch

let current_gsn t = t.gsn

let append t ~stream:i r =
  t.gsn <- t.gsn + 1;
  Logmgr.append t.streams.(i)
    {
      r with
      Logrec.stream = i;
      epoch = t.epoch;
      gsn = t.gsn;
      (* unstamped undo_nxt_stream means "my own stream" — the common case
         (page-oriented CLRs, dummy CLRs); cross-stream logical-undo CLRs
         arrive pre-stamped by {!Txnmgr.log_clr} *)
      undo_nxt_stream = (if r.Logrec.undo_nxt_stream < 0 then i else r.Logrec.undo_nxt_stream);
    }

let flush_all t = Array.iter Logmgr.flush t.streams

(* Re-derive the counters from what survived: every stream's last record
   carries that stream's max gsn/epoch (both are monotone in append order),
   so the max over streams bounds every surviving live record. Archived
   records are also covered: a segment is only archived under a later
   complete checkpoint whose End_ckpt is still live on stream 0 (the
   reclamation safety point never passes the anchoring checkpoint), and
   that End_ckpt's gsn exceeds every archived record's. *)
let recover_counters t =
  let e = ref 0 and g = ref 0 in
  Array.iter
    (fun m ->
      let l = Logmgr.last_lsn m in
      if not (Lsn.is_nil l) then begin
        let r = Logmgr.read m l in
        if r.Logrec.epoch > !e then e := r.Logrec.epoch;
        if r.Logrec.gsn > !g then g := r.Logrec.gsn
      end)
    t.streams;
  t.epoch <- max 1 (!e + 1);
  t.gsn <- max t.gsn !g

let crash t =
  (* Each stream independently loses (or keeps!) its unflushed tail: under
     the stream-shuffle fault the medium may have persisted any number of
     complete frames past one stream's boundary while another stream lost
     everything — the cross-stream adversary the epoch fence and the
     commit-record stream vector must survive. *)
  Array.iter
    (fun m -> Logmgr.crash ~retain:(fun avail -> Faultdisk.stream_retain ~avail) m)
    t.streams;
  t.gsn <- 0;
  recover_counters t

(* {2 Commit-record stream vector}

   A commit record's body names, for every stream the transaction touched,
   the LSN of the transaction's last record there. A surviving Commit
   record only {e counts} if each named record survived too — each stream's
   survivors are a prefix, so presence of the last implies presence of all.
   Necessary because a crash can keep the commit's stream past the fence
   while dropping another touched stream's tail; the fence (R8) guarantees
   an {e acknowledged} commit always validates. *)

let encode_commit_targets targets =
  let w = Bytebuf.W.create ~size:(4 + (10 * List.length targets)) () in
  Bytebuf.W.list w
    (fun w (s, l) ->
      Bytebuf.W.u16 w s;
      Bytebuf.W.i64 w l)
    targets;
  Bytebuf.W.contents w

let decode_commit_targets body =
  if Bytes.length body = 0 then []
  else
    let r = Bytebuf.R.of_bytes body in
    let ts =
      Bytebuf.R.list r (fun r ->
          let s = Bytebuf.R.u16 r in
          let l = Bytebuf.R.i64 r in
          (s, l))
    in
    Bytebuf.R.expect_end r;
    ts

(* Is the record at [(stream, lsn)] present, and really the one the record
   [c] named? Below the stream's start it was archived — archived segments
   were stable, hence present. In the live range, the offset may have been
   {e reused}: the referenced record was lost in a crash and a later
   append landed at the same offset. The gsn test rejects impostors: any
   record appended after a crash that [c] survived carries a gsn above
   [c]'s, because the recovered gsn counter exceeds every survived
   record's — [c]'s included. (No txn-id test: a commit's fence may name
   {e another} transaction's records, the global SMO fence.) *)
let target_survived t c (s, l) =
  Lsn.is_nil l
  ||
  let m = t.streams.(s) in
  l < Logmgr.start_offset m
  || l < Logmgr.end_offset m
     &&
     match Logmgr.read m l with
     | r -> r.Logrec.gsn < c.Logrec.gsn
     | exception (Bytebuf.Corrupt _ | Storage_error.Error _ | Invalid_argument _) -> false

let targets_valid t (c : Logrec.t) targets = List.for_all (target_survived t c) targets

(* End_txn and Prepare records carry the same vector (End in its body,
   Prepare ahead of its lock list): in a single log, "End survived" implies
   "every CLR before it survived", but across streams a rollback's End (or
   a preparing txn's Prepare) can outlive another stream's lost tail — an
   invalid vector turns the txn back into a loser. *)
let commit_valid t (c : Logrec.t) =
  c.Logrec.kind = Logrec.Commit && targets_valid t c (decode_commit_targets c.Logrec.body)

(* {2 Merged scan}

   Iterate live records of all streams in [(epoch, gsn)] order — the order
   restart analysis assumes. [starts.(s)] is where stream [s]'s scan begins
   ([Lsn.nil] = oldest retained record); each cursor is clamped to the
   stream's retained range. *)
let iter_merged t ~starts f =
  let nn = Array.length t.streams in
  let cur = Array.make nn None in
  let advance i off =
    let m = t.streams.(i) in
    if off < Logmgr.end_offset m then cur.(i) <- Some (Logmgr.read m off) else cur.(i) <- None
  in
  Array.iteri
    (fun i m ->
      let s = if Lsn.is_nil starts.(i) then Logmgr.start_offset m else starts.(i) in
      advance i (max s (Logmgr.start_offset m)))
    t.streams;
  let rec loop () =
    let best = ref (-1) in
    for i = 0 to nn - 1 do
      match cur.(i) with
      | Some r -> (
          match !best with
          | -1 -> best := i
          | b -> (
              match cur.(b) with
              | Some rb ->
                  if (r.Logrec.epoch, r.Logrec.gsn) < (rb.Logrec.epoch, rb.Logrec.gsn) then
                    best := i
              | None -> best := i))
      | None -> ()
    done;
    match !best with
    | -1 -> ()
    | i ->
        let r = Option.get cur.(i) in
        f r;
        advance i (Logmgr.record_end t.streams.(i) r.Logrec.lsn);
        loop ()
  in
  loop ()

(* {2 Snapshot} *)

let serialize t =
  (* serialize the streams first so the container writer can be sized
     exactly — no growth-doubling copies of megabyte-scale log images *)
  let imgs = Array.map Logmgr.serialize t.streams in
  let total = Array.fold_left (fun acc b -> acc + 4 + Bytes.length b) 18 imgs in
  let w = Bytebuf.W.create ~size:total () in
  Bytebuf.W.u16 w (Array.length t.streams);
  Bytebuf.W.i64 w t.epoch;
  Bytebuf.W.i64 w t.gsn;
  Array.iter (Bytebuf.W.bytes w) imgs;
  Bytebuf.W.contents w

let deserialize b =
  let r = Bytebuf.R.of_bytes b in
  let nn = Bytebuf.R.u16 r in
  let epoch = Bytebuf.R.i64 r in
  let gsn = Bytebuf.R.i64 r in
  let streams = Array.init nn (fun _ -> Logmgr.deserialize (Bytebuf.R.bytes r)) in
  Bytebuf.R.expect_end r;
  let t = { streams; epoch; gsn } in
  (* the saved counters cover the stable prefix; recover_counters can only
     tighten them upward if a retained record outruns the header *)
  recover_counters t;
  t.epoch <- max t.epoch epoch;
  t.gsn <- max t.gsn gsn;
  t
