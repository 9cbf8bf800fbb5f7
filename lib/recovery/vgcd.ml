open Aries_util
module Sched = Aries_sched.Sched

let c_vgcd_rounds = Stats.counter Stats.vgcd_rounds

type cfg = { every_steps : int }

let default_cfg = { every_steps = 96 }

let validate cfg = if cfg.every_steps < 1 then invalid_arg "Vgcd: every_steps must be >= 1"

(* One round: run the injected collector (the database binds it to
   [Mvstore.gc] at the oldest-active-snapshot horizon — this daemon stays
   ignorant of the version store so lib/recovery keeps no dependency on
   the index layer). *)
let round ~gc =
  let reclaimed = gc () in
  Stats.incr c_vgcd_rounds;
  reclaimed

let run_daemon cfg ~gc ~stop =
  validate cfg;
  (* die-on-crash: once a simulated power failure has tripped, the machine
     is dead — exit instead of busy-yielding forever. *)
  let stopping () = stop () || Sched.shutting_down () || Crashpoint.tripped () in
  let rec loop () =
    if not (stopping ()) then begin
      (* sleep [every_steps] scheduler steps (cut short by shutdown) *)
      let t0 = Sched.steps_now () in
      while (not (stopping ())) && Sched.steps_now () - t0 < cfg.every_steps do
        Sched.yield ()
      done;
      if not (stopping ()) then begin
        ignore (round ~gc);
        loop ()
      end
    end
  in
  loop ()
