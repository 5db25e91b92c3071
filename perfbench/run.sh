#!/bin/sh
# Runs the benchmark suite from the repository root, building it from
# source first if needed; every argument is passed through:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
cd "$(dirname "$0")/.." || exit 2
exec dune exec --root . --display quiet --cache=disabled perfbench/suite.exe -- "$@"
