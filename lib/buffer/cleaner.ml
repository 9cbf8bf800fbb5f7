open Aries_util
module Sched = Aries_sched.Sched

let c_cleaner_rounds = Stats.counter Stats.cleaner_rounds
let c_cleaner_pages_written = Stats.counter Stats.cleaner_pages_written

type cfg = { interval_steps : int; batch_pages : int }

let default_cfg = { interval_steps = 16; batch_pages = 2 }

let validate cfg =
  if cfg.interval_steps < 1 then invalid_arg "Cleaner: interval_steps must be >= 1";
  if cfg.batch_pages < 1 then invalid_arg "Cleaner: batch_pages must be >= 1"

let run_daemon pool cfg ~stop =
  validate cfg;
  (* die-on-crash: once a simulated power failure has tripped, the machine
     is dead — exit instead of busy-yielding against permanently-suspended
     fibers (which would keep the run queue nonempty forever). *)
  let stopping () = stop () || Sched.shutting_down () || Crashpoint.tripped () in
  let rec loop () =
    if not (stopping ()) then begin
      (* sleep [interval_steps] scheduler steps (cut short by shutdown) *)
      let t0 = Sched.steps_now () in
      while (not (stopping ())) && Sched.steps_now () - t0 < cfg.interval_steps do
        Sched.yield ()
      done;
      if not (stopping ()) then begin
        let n = Bufpool.clean_some pool ~max_pages:cfg.batch_pages in
        Stats.incr c_cleaner_rounds;
        if n > 0 then Stats.add c_cleaner_pages_written n;
        loop ()
      end
    end
  in
  loop ()
