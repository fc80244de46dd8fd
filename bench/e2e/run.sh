#!/usr/bin/env bash
# The end-to-end benchmark, one command:
#
#   bench/e2e/run.sh [--workload W]... [--seed N] [--repeat R] [--trace [0|1]]
#                    [--seconds S] [--pairs N --against REV]
#
# Builds a Release engine library and tsb_e2e from bench/e2e/CMakeLists.txt
# into .bench_build/e2e, runs each workload in its own process, prints one
# "workload metric value unit" line per metric, writes
# bench/e2e/results/<run>.json, and, with one --workload, ends with one JSON
# line: {"correct", "attempted", "failed", "metrics"}. See
# bench/e2e/README.md.
set -euo pipefail
exec python3 "$(dirname "$0")/runner.py" "$@"
