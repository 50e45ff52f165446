#!/usr/bin/env bash
# Runs the tier-1 test suite RUNS times (default 50) at each of two
# libtest thread counts, 1 and $(nproc), so an intermittent failure
# shows up as a count instead of a one-off red run:
#
#   ci/test-loop.sh [RUNS]
#
# Each failing run's output is kept as test-loop-T<threads>-R<run>.log
# (cwd) and printed; the script exits non-zero if any run failed, after
# reporting the failure count per thread setting.
set -uo pipefail

RUNS=${1:-50}
cargo build --release
cargo test -q --no-run

status=0
for threads in 1 "$(nproc)"; do
  failed=0
  for run in $(seq 1 "$RUNS"); do
    log="test-loop-T$threads-R$run.log"
    if cargo test -q -- --test-threads="$threads" >"$log" 2>&1; then
      rm -f "$log"
    else
      failed=$((failed + 1))
      echo "::error::cargo test failed (threads=$threads, run $run of $RUNS)"
      cat "$log"
    fi
  done
  echo "test-loop: threads=$threads runs=$RUNS failed=$failed"
  if [[ $failed -gt 0 ]]; then
    status=1
  fi
done
exit $status
