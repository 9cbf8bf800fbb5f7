(* Lock manager: compatibility and conversion lattices, durations,
   conditional requests, FIFO fairness with conversion priority, waits-for
   deadlock detection with youngest-victim, instant-duration semantics. *)

open Aries_util
module Sched = Aries_sched.Sched
module L = Aries_lock.Lockmgr

let name_a = L.Table 1

let name_b = L.Table 2

let rid i = L.Rid { Ids.rid_page = 1; rid_slot = i }

let test_compat_matrix () =
  let modes = [ L.IS; L.IX; L.S; L.SIX; L.X ] in
  let expected a b =
    match (a, b) with
    | L.IS, L.X | L.X, L.IS -> false
    | L.IS, _ | _, L.IS -> true
    | L.IX, L.IX -> true
    | L.S, L.S -> true
    | _ -> false
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "compat %s %s" (Lockspec.mode_to_string a) (Lockspec.mode_to_string b))
            (expected a b) (L.compatible a b))
        modes)
    modes

let test_supremum_lattice () =
  Alcotest.(check bool) "S+IX=SIX" true (L.supremum L.S L.IX = L.SIX);
  Alcotest.(check bool) "IS+S=S" true (L.supremum L.IS L.S = L.S);
  Alcotest.(check bool) "X absorbs" true (L.supremum L.X L.IS = L.X);
  Alcotest.(check bool) "commutative" true (L.supremum L.IX L.S = L.supremum L.S L.IX);
  List.iter
    (fun m -> Alcotest.(check bool) "idempotent" true (L.supremum m m = m))
    [ L.IS; L.IX; L.S; L.SIX; L.X ]

let test_grant_and_conflict () =
  Sched.run_value (fun () ->
      let t = L.create () in
      Alcotest.(check bool) "first S granted" true (L.lock t ~txn:1 name_a L.S L.Commit = L.Granted);
      Alcotest.(check bool) "second S granted" true (L.lock t ~txn:2 name_a L.S L.Commit = L.Granted);
      Alcotest.(check bool) "conditional X denied" true
        (L.lock t ~txn:3 ~cond:true name_a L.X L.Commit = L.Denied);
      Alcotest.(check int) "two holders" 2 (List.length (L.holders t name_a)))

let test_blocking_grant_on_release () =
  let got = ref false in
  ignore
    (Sched.run (fun () ->
         let t = L.create () in
         ignore (L.lock t ~txn:1 name_a L.X L.Commit);
         ignore
           (Sched.spawn (fun () ->
                ignore (L.lock t ~txn:2 name_a L.S L.Commit);
                got := true));
         Sched.yield ();
         Alcotest.(check bool) "still waiting" false !got;
         L.release_all t ~txn:1;
         Sched.yield ();
         Alcotest.(check bool) "granted after release" true !got))

let test_instant_leaves_nothing () =
  Sched.run_value (fun () ->
      let t = L.create () in
      Alcotest.(check bool) "instant X granted" true
        (L.lock t ~txn:1 name_a L.X L.Instant = L.Granted);
      Alcotest.(check bool) "no holder retained" true (L.holders t name_a = []);
      Alcotest.(check bool) "other txn can take X now" true
        (L.lock t ~txn:2 name_a L.X L.Commit = L.Granted))

let test_instant_waits_for_conflict () =
  (* an instant lock is still a serialization touch-point: it must wait *)
  let order = ref [] in
  ignore
    (Sched.run (fun () ->
         let t = L.create () in
         ignore (L.lock t ~txn:1 name_a L.X L.Commit);
         ignore
           (Sched.spawn (fun () ->
                ignore (L.lock t ~txn:2 name_a L.X L.Instant);
                order := "instant-granted" :: !order));
         Sched.yield ();
         order := "releasing" :: !order;
         L.release_all t ~txn:1));
  Alcotest.(check (list string)) "waited for release" [ "releasing"; "instant-granted" ]
    (List.rev !order)

let test_conversion_upgrade () =
  Sched.run_value (fun () ->
      let t = L.create () in
      ignore (L.lock t ~txn:1 name_a L.S L.Commit);
      ignore (L.lock t ~txn:1 name_a L.IX L.Commit);
      Alcotest.(check bool) "held mode is supremum SIX" true
        (L.holds t ~txn:1 name_a = Some L.SIX))

let test_conversion_priority () =
  (* holder converting S->X jumps ahead of a queued fresh waiter *)
  let order = ref [] in
  ignore
    (Sched.run (fun () ->
         let t = L.create () in
         ignore (L.lock t ~txn:1 name_a L.S L.Commit);
         ignore (L.lock t ~txn:2 name_a L.S L.Commit);
         ignore
           (Sched.spawn (fun () ->
                ignore (L.lock t ~txn:3 name_a L.X L.Commit);
                order := "fresh" :: !order;
                L.release_all t ~txn:3));
         Sched.yield ();
         ignore
           (Sched.spawn (fun () ->
                ignore (L.lock t ~txn:2 name_a L.X L.Commit);
                order := "convert" :: !order;
                L.release_all t ~txn:2));
         Sched.yield ();
         L.release_all t ~txn:1));
  Alcotest.(check (list string)) "conversion first" [ "convert"; "fresh" ] (List.rev !order)

let test_fifo_no_barging () =
  Sched.run_value (fun () ->
      let t = L.create () in
      ignore (L.lock t ~txn:1 name_a L.S L.Commit);
      ignore (Sched.spawn (fun () -> ignore (L.lock t ~txn:2 name_a L.X L.Commit)));
      Sched.yield ();
      (* S is compatible with the holder but must queue behind the X waiter *)
      Alcotest.(check bool) "conditional S denied behind X waiter" true
        (L.lock t ~txn:3 ~cond:true name_a L.S L.Commit = L.Denied);
      L.release_all t ~txn:1)

let test_deadlock_detection_victim () =
  (* classic 2-cycle: T1 holds A wants B; T2 holds B wants A.
     youngest (T2) dies *)
  let t1_done = ref false and t2_deadlocked = ref false in
  ignore
    (Sched.run (fun () ->
         let t = L.create () in
         L.attach t 1;
         L.attach t 2;
         ignore
           (Sched.spawn (fun () ->
                ignore (L.lock t ~txn:1 name_a L.X L.Commit);
                Sched.yield ();
                ignore (L.lock t ~txn:1 name_b L.X L.Commit);
                t1_done := true;
                L.release_all t ~txn:1));
         ignore
           (Sched.spawn (fun () ->
                ignore (L.lock t ~txn:2 name_b L.X L.Commit);
                Sched.yield ();
                (match L.lock t ~txn:2 name_a L.X L.Commit with
                | L.Deadlock -> t2_deadlocked := true
                | L.Granted | L.Denied -> ());
                L.release_all t ~txn:2))));
  Alcotest.(check bool) "youngest chosen as victim" true !t2_deadlocked;
  Alcotest.(check bool) "survivor completes" true !t1_done

let test_deadlock_victim_aborted_while_waiting () =
  (* T2 (young) blocks first; T1's request then closes the cycle, and the
     detector must abort T2 at its suspension point *)
  let t2_aborted = ref false and t1_done = ref false in
  ignore
    (Sched.run (fun () ->
         let t = L.create () in
         L.attach t 1;
         L.attach t 2;
         ignore (L.lock t ~txn:1 name_a L.X L.Commit);
         ignore
           (Sched.spawn (fun () ->
                ignore (L.lock t ~txn:2 name_b L.X L.Commit);
                (match L.lock t ~txn:2 name_a L.X L.Commit with
                | L.Deadlock -> t2_aborted := true
                | L.Granted | L.Denied -> ());
                L.release_all t ~txn:2));
         Sched.yield ();
         ignore (L.lock t ~txn:1 name_b L.X L.Commit);
         t1_done := true;
         L.release_all t ~txn:1));
  Alcotest.(check bool) "waiting victim aborted" true !t2_aborted;
  Alcotest.(check bool) "requester proceeds" true !t1_done

let test_three_cycle () =
  let deadlocks = ref 0 and completions = ref 0 in
  ignore
    (Sched.run (fun () ->
         let t = L.create () in
         for i = 1 to 3 do
           L.attach t i
         done;
         let names = [| name_a; name_b; L.Table 3 |] in
         for i = 0 to 2 do
           ignore
             (Sched.spawn (fun () ->
                  let txn = i + 1 in
                  ignore (L.lock t ~txn names.(i) L.X L.Commit);
                  Sched.yield ();
                  (match L.lock t ~txn names.((i + 1) mod 3) L.X L.Commit with
                  | L.Deadlock -> incr deadlocks
                  | L.Granted -> incr completions
                  | L.Denied -> ());
                  L.release_all t ~txn))
         done));
  Alcotest.(check int) "exactly one victim" 1 !deadlocks;
  Alcotest.(check int) "others complete" 2 !completions

let test_no_victim_exempt () =
  (* no-victim txns must never be chosen; the other cycle member dies *)
  let old_died = ref false and young_survived = ref false in
  ignore
    (Sched.run (fun () ->
         let t = L.create () in
         L.attach t 1;
         L.attach t 2;
         L.set_no_victim t 2;
         (* youngest but exempt *)
         ignore
           (Sched.spawn (fun () ->
                ignore (L.lock t ~txn:1 name_a L.X L.Commit);
                Sched.yield ();
                (match L.lock t ~txn:1 name_b L.X L.Commit with
                | L.Deadlock -> old_died := true
                | L.Granted | L.Denied -> ());
                L.release_all t ~txn:1));
         ignore
           (Sched.spawn (fun () ->
                ignore (L.lock t ~txn:2 name_b L.X L.Commit);
                Sched.yield ();
                ignore (L.lock t ~txn:2 name_a L.X L.Commit);
                young_survived := true;
                L.release_all t ~txn:2))));
  Alcotest.(check bool) "exempt survives" true !young_survived;
  Alcotest.(check bool) "other member dies" true !old_died

let test_manual_release () =
  Sched.run_value (fun () ->
      let t = L.create () in
      ignore (L.lock t ~txn:1 (rid 1) L.S L.Manual);
      L.release t ~txn:1 (rid 1);
      Alcotest.(check bool) "released" true (L.holds t ~txn:1 (rid 1) = None);
      ignore (L.lock t ~txn:1 (rid 2) L.S L.Commit);
      Alcotest.(check bool) "commit-duration release refused" true
        (match L.release t ~txn:1 (rid 2) with
        | () -> false
        | exception Invalid_argument _ -> true))

let test_release_all_wakes () =
  let woken = ref 0 in
  ignore
    (Sched.run (fun () ->
         let t = L.create () in
         ignore (L.lock t ~txn:1 (rid 1) L.X L.Commit);
         ignore (L.lock t ~txn:1 (rid 2) L.X L.Commit);
         for i = 2 to 3 do
           ignore
             (Sched.spawn (fun () ->
                  ignore (L.lock t ~txn:i (rid (i - 1)) L.S L.Commit);
                  incr woken;
                  L.release_all t ~txn:i))
         done;
         Sched.yield ();
         Alcotest.(check int) "held count" 2 (L.held_count t ~txn:1);
         L.release_all t ~txn:1));
  Alcotest.(check int) "both waiters woken" 2 !woken

let test_held_locks_snapshot () =
  Sched.run_value (fun () ->
      let t = L.create () in
      ignore (L.lock t ~txn:1 (rid 1) L.X L.Commit);
      ignore (L.lock t ~txn:1 name_a L.IX L.Commit);
      let held = L.held_locks t ~txn:1 in
      Alcotest.(check int) "two entries" 2 (List.length held);
      Alcotest.(check bool) "modes recorded" true
        (List.mem (rid 1, L.X) held && List.mem (name_a, L.IX) held))

(* Every way a name stops being held or awaited drops its head: release,
   manual release, release_all, an instant grant, a cancelled deadlock
   victim, and an instant wait granted on release. *)
let test_table_forgets_released_names () =
  let t = L.create () in
  ignore
    (Sched.run (fun () ->
         ignore (L.lock t ~txn:1 (rid 1) L.X L.Manual);
         L.release t ~txn:1 (rid 1);
         ignore (L.lock t ~txn:1 (rid 2) L.X L.Manual);
         Alcotest.(check bool) "manual release" true (L.release_manual t ~txn:1 (rid 2));
         ignore (L.lock t ~txn:1 (rid 3) L.X L.Instant);
         ignore (L.lock t ~txn:1 name_a L.X L.Commit);
         ignore
           (Sched.spawn (fun () ->
                ignore (L.lock t ~txn:2 name_b L.X L.Commit);
                Sched.yield ();
                (match L.lock t ~txn:2 name_a L.X L.Commit with
                | L.Deadlock -> ()
                | L.Granted | L.Denied -> Alcotest.fail "txn 2 should be the victim");
                L.release_all t ~txn:2));
         ignore (Sched.spawn (fun () -> ignore (L.lock t ~txn:3 name_a L.S L.Instant)));
         Sched.yield ();
         ignore (L.lock t ~txn:1 name_b L.X L.Commit);
         L.release_all t ~txn:1));
  Alcotest.(check int) "nothing held" 0 (L.total_held t);
  Alcotest.(check int) "no name left in the table" 0 (L.table_size t)

(* What the tracer costs a lock request: the minor-heap words one traced
   request adds (a key-value name, uncontended: request, grant and manual
   release), [Record] mode minus [Off] mode. [Gc.minor_words ()] counts
   every allocated word, so the figure is exact and the same on a loaded
   host; it is gated at the value measured when the gate was set (OCaml
   5.1.1). The trace payloads carry the lock name, mode and duration as
   values, so the only words are the three payloads and their event
   records; rendering a name into the event would cost far more. *)
let traced_request_words = 27.0

let test_traced_request_allocation () =
  let module Trace = Aries_trace.Trace in
  let name = L.Key_value (3, "key00042") in
  let words_per_request mode =
    Trace.set_mode mode;
    let t = L.create () in
    let request () =
      ignore (L.lock t ~txn:1 name L.X L.Manual);
      L.release t ~txn:1 name
    in
    for _ = 1 to 10 do
      request ()
    done;
    let rounds = 1000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      request ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int rounds
  in
  let saved = Trace.mode () in
  let off, record =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_mode saved;
        Trace.reset ())
      (fun () ->
        let off = words_per_request Trace.Off in
        (off, words_per_request Trace.Record))
  in
  let traced = record -. off in
  Alcotest.(check bool)
    (Printf.sprintf "a traced request allocates %.2f words <= %.2f" traced traced_request_words)
    true
    (traced <= traced_request_words)

let () =
  Alcotest.run "lock"
    [
      ( "matrix",
        [
          Alcotest.test_case "compatibility" `Quick test_compat_matrix;
          Alcotest.test_case "supremum" `Quick test_supremum_lattice;
        ] );
      ( "grants",
        [
          Alcotest.test_case "grant and conflict" `Quick test_grant_and_conflict;
          Alcotest.test_case "blocking grant" `Quick test_blocking_grant_on_release;
          Alcotest.test_case "instant leaves nothing" `Quick test_instant_leaves_nothing;
          Alcotest.test_case "instant waits" `Quick test_instant_waits_for_conflict;
          Alcotest.test_case "conversion upgrade" `Quick test_conversion_upgrade;
          Alcotest.test_case "conversion priority" `Quick test_conversion_priority;
          Alcotest.test_case "fifo no barging" `Quick test_fifo_no_barging;
          Alcotest.test_case "manual release" `Quick test_manual_release;
          Alcotest.test_case "release_all wakes" `Quick test_release_all_wakes;
          Alcotest.test_case "held locks snapshot" `Quick test_held_locks_snapshot;
          Alcotest.test_case "table forgets released names" `Quick
            test_table_forgets_released_names;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "2-cycle youngest victim" `Quick test_deadlock_detection_victim;
          Alcotest.test_case "waiting victim aborted" `Quick test_deadlock_victim_aborted_while_waiting;
          Alcotest.test_case "3-cycle" `Quick test_three_cycle;
          Alcotest.test_case "no-victim exempt" `Quick test_no_victim_exempt;
        ] );
      ( "trace",
        [
          Alcotest.test_case "traced request allocation" `Quick test_traced_request_allocation;
        ] );
    ]
