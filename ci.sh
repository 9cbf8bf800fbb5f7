#!/bin/sh
# The repository gate, runnable locally and in CI:
#
#   ./ci.sh            # build + full test suite + bounded sim smoke sweep
#   ./ci.sh fast       # build + tests only (skip the smoke sweep)
#
# The smoke sweep is the `sim smoke` matrix declared in bench/main.ml:
# one row per sweep (fault-free, storage faults, instant restart,
# multi-stream WAL, MVCC snapshot reads, sharded 2PC), each with the
# reason it is in the gate. `sim smoke all` runs every row and fails if
# any row failed; the full-budget sweep is `dune exec bench/main.exe -- sim`.
# The benchmark smoke runs each end-to-end workload for one second: its
# numbers are not gated here, but its own checks are (determinism across
# rounds, consistency and leak audits after the crash/restart, and
# per-workload counter checks such as read-spill's buffer misses), so a
# counter that stops being bumped fails the gate. One more read-spill run
# and one more shard-2pc run are traced, so the discipline checker also
# sees real single-Db and sharded workloads.
# The q16 gate holds the hot-path speed pass: slice-by-16 CRC >= 4x the
# bytewise baseline, page-codec CRC overhead <= 25.5%, arena reuse on
# every steady-state log append, and the exact minor words per page
# encode and decode. Its wall-clock bounds can fail on a loaded host, so
# it runs after every other gate has had its say; a q16 failure still
# fails ci.sh.
# Every _bench/*.json result file (bench/record.ml writes one per Q-series
# entry run from this directory, q16's among them) must parse.
set -eu

cd "$(dirname "$0")"

echo "== build =="
dune build @all

echo "== tier-1 tests (dune runtest) =="
dune runtest

if [ "${1:-}" != "fast" ]; then
  echo "== sim smoke matrix =="
  dune exec bench/main.exe -- sim smoke all

  echo "== benchmark smoke (perfbench, correctness checks only) =="
  for w in read-spill write-hot shard-2pc; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0
  done
  # two traced runs: their trace-checker rounds run the R1-R10 discipline
  # checker over real workloads, here through read-spill's buffer misses
  # and the on-demand page decode, then through shard-2pc's presumed-abort
  # 2PC, where R10 and the typed 2PC and shard events see a sharded workload
  python3 perfbench/run.py --workload read-spill --seed 1 --seconds 1 --trace 1
  python3 perfbench/run.py --workload shard-2pc --seed 1 --seconds 1 --trace 1

  echo "== hot-path speed gates (bench q16) =="
  q16=0
  dune exec bench/main.exe -- q16 || q16=$?

  echo "== bench result files parse =="
  for f in _bench/*.json; do
    [ -e "$f" ] || continue
    python3 -m json.tool "$f" > /dev/null
    echo "$f: ok"
  done

  if [ "$q16" -ne 0 ]; then
    echo "ci.sh: q16 speed gates failed (exit $q16)"
    exit 1
  fi
fi

echo "ci.sh: all green"
