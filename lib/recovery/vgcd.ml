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
  Sched.periodic ~every:cfg.every_steps ~stop (fun () -> ignore (round ~gc))
