#!/usr/bin/env bash
# Builds the armvirt CLI and the ledger harness from source, then runs the
# harness with the given arguments. Run it from the repository root:
#
#   bash bench/ledger/run.sh --workload regen --seed 42 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout is the harness's alone.
set -euo pipefail

# Keep every build artifact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . ./bin/armvirt.exe ./bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
