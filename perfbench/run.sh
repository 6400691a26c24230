#!/usr/bin/env bash
# Build the benchmark and the CLI from source, then run one workload:
#
#   bash perfbench/run.sh --workload compile|pulses|serve --seed N --seconds S --trace 0|1
#
# Run from the root of a source checkout. Build output goes to stderr;
# the last stdout line is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/reqisc_cli.ml ]; then
  echo "perfbench: not a ReQISC source checkout (dune-project, lib/ and bin/ are needed)" >&2
  exit 2
fi
dune build --root . ./perfbench/rqbench.exe ./bin/reqisc_cli.exe 1>&2
exec ./_build/default/perfbench/rqbench.exe "$@"
