#!/bin/sh
# Builds the benchmark from the sources of this checkout, then runs it:
#   sh socbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the repository.  The build needs the repository's
# dune project; without it the script fails before printing any result.
set -e
export DUNE_CACHE=disabled
dune build --root . --profile release ./socbench/main.exe 1>&2
exec ./_build/default/socbench/main.exe "$@"
