#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload campaign|serve|web_scale \
#     --seed N --seconds S --trace 0|1
# Run from the repository root. The last line of stdout is the JSON result.
set -euo pipefail
dune build --root . bin/pipeline_sched.exe perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
