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
  Sched.periodic ~every:cfg.interval_steps ~stop (fun () ->
      let n = Bufpool.clean_some pool ~max_pages:cfg.batch_pages in
      Stats.incr c_cleaner_rounds;
      if n > 0 then Stats.add c_cleaner_pages_written n)
