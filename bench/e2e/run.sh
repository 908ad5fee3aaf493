#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it from the root of
# the checkout.  Arguments are passed through (see README.md), e.g.
#   bash bench/e2e/run.sh --workload rings --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "e2e: not a full checkout (no dune-project or lib/ here); nothing to build" >&2
  exit 2
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
