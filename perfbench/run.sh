#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
# Build output goes to _build inside the checkout (no shared dune cache);
# the last line of standard output is the result JSON.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: needs a full checkout of the repository (no dune-project/lib here)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
