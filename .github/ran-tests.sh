#!/usr/bin/env bash
# Runs a `cargo test` command that names a filter or a `--test` target
# and fails when it passed no test: a filter that matches nothing exits
# 0 and says "0 passed", which is how a step stops testing unnoticed.
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"$@" 2>&1 | tee "$log"
passed=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$log")
echo "ran-tests: $passed passed"
test "$passed" -gt 0
