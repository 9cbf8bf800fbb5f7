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
# The q16 gate holds the hot-path speed pass: slice-by-16 CRC >= 4x the
# bytewise baseline, page-codec CRC overhead <= 25.5%, arena reuse on
# every steady-state log append, and an all-hit image-cache probe storm.
set -eu

cd "$(dirname "$0")"

echo "== build =="
dune build @all

echo "== tier-1 tests (dune runtest) =="
dune runtest

if [ "${1:-}" != "fast" ]; then
  echo "== hot-path speed gates (bench q16) =="
  dune exec bench/main.exe -- q16

  echo "== sim smoke matrix =="
  dune exec bench/main.exe -- sim smoke all
fi

echo "ci.sh: all green"
