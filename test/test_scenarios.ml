(* The paper's figures as executable scenarios (experiments E1-E11; see
   DESIGN.md §3). The schedules live in test/figures/figures.ml, which the
   benchmark harness (bench/main.exe eN) runs too; here every check each
   figure returns is asserted. *)

module Figures = Aries_figures.Figures
module Trace = Aries_trace.Trace
module Discipline = Aries_trace.Discipline
module Crashpoint = Aries_util.Crashpoint

let assert_all checks =
  List.iter (fun (c : Figures.check) -> Alcotest.(check bool) c.Figures.name true c.Figures.ok) checks

let figure f () = assert_all (f ())

(* ------------------------------------------------------------------ *)
(* The observation window reads the process trace ring whatever its
   mode, and leaves the mode as it found it. *)

let with_mode mode f =
  let saved = Trace.mode () in
  Trace.set_mode mode;
  Fun.protect f ~finally:(fun () -> Trace.set_mode saved)

(* With the tracer off, the window still sees E2's lock grants and E4's
   page latches, and the tracer is off again afterwards. *)
let test_window_tracer_off () =
  with_mode Trace.Off (fun () ->
      assert_all (Figures.e2 ());
      assert_all (Figures.e4 ());
      Alcotest.(check bool) "the tracer is off again" true (Trace.mode () = Trace.Off))

(* Under Check the window keeps the discipline checker armed: with the
   unlatch step of the lock dance skipped, E5's fetch waits for its lock
   under the leaf latch, and the checker must see it (R1). *)
let test_window_keeps_checker () =
  with_mode Trace.Check (fun () ->
      Discipline.reset ();
      Crashpoint.enable_fault Crashpoint.fault_lock_uncond_under_latch;
      let checks =
        Fun.protect Figures.e5 ~finally:(fun () ->
            Crashpoint.disable_fault Crashpoint.fault_lock_uncond_under_latch)
      in
      Alcotest.(check bool) "the checker caught the wait under latch" true
        (Discipline.violations () > 0);
      Alcotest.(check bool) "the figure saw it fail" true
        (List.exists (fun (c : Figures.check) -> not c.Figures.ok) checks);
      Alcotest.(check bool) "the tracer is still checking" true (Trace.mode () = Trace.Check);
      Discipline.reset ())

let () =
  Alcotest.run "scenarios"
    [
      ( "figures",
        [
          Alcotest.test_case "E1 logical undo (Fig 1)" `Quick (figure Figures.e1);
          Alcotest.test_case "E2 locking table (Fig 2)" `Quick (figure Figures.e2);
          Alcotest.test_case "E3 SMO vs insert (Fig 3)" `Quick (figure Figures.e3);
          Alcotest.test_case "E4 latch coupling (Fig 4)" `Quick (figure Figures.e4);
          Alcotest.test_case "E5 fetch lock dance (Fig 5)" `Quick (figure Figures.e5);
          Alcotest.test_case "E6 insert next page (Fig 6)" `Quick (figure Figures.e6);
          Alcotest.test_case "E7 delete bits / POSC (Fig 7)" `Quick (figure Figures.e7);
          Alcotest.test_case "E9 split log sequence (Fig 8/9)" `Quick (figure Figures.e9);
          Alcotest.test_case "E10 page-delete log sequence (Fig 10)" `Quick (figure Figures.e10);
          Alcotest.test_case "E11 Delete_Bit protects (Fig 11)" `Quick (figure Figures.e11);
          Alcotest.test_case "E11 ablation (Fig 11 counterfactual)" `Quick
            (figure Figures.e11_ablation);
        ] );
      ( "figures-mvcc",
        [
          Alcotest.test_case "E3-MVCC wait-free reader vs SMO (Fig 3)" `Quick
            (figure Figures.e3_mvcc);
          Alcotest.test_case "E11-MVCC snapshot reader vs Delete_Bit (Fig 11)" `Quick
            (figure Figures.e11_mvcc);
        ] );
      ( "window",
        [
          Alcotest.test_case "tracer off: events still seen, mode restored" `Quick
            test_window_tracer_off;
          Alcotest.test_case "Check mode keeps the checker armed" `Quick test_window_keeps_checker;
        ] );
    ]
