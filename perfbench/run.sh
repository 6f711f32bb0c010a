#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root.  Build output goes to stderr, so the last line of stdout is the
# benchmark's result.
set -euo pipefail
dune build --root . --build-dir .bench_build --profile release ./perfbench/main.exe 1>&2
exec .bench_build/default/perfbench/main.exe "$@"
