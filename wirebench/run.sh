#!/usr/bin/env bash
# Builds tip_serve and the benchmark program from source, then runs
# it. Run from the repository root:
#   bash wirebench/run.sh --workload history_scan --seed 1 --seconds 12 --trace 0
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/tip_serve.ml ] || [ ! -d lib ]; then
  echo "wirebench: run from the root of a TIP checkout (dune-project, bin/, lib/)" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

# Build output goes to stderr: the last line of stdout is the result.
dune build --root . ./bin/tip_serve.exe ./wirebench/wirebench.exe 1>&2

exec ./_build/default/wirebench/wirebench.exe "$@"
