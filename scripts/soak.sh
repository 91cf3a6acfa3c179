#!/usr/bin/env bash
# Seed-sweep chaos soak: N seeds × fault matrix × trace ON/OFF.
#
# Drives churn_storm (calm + storm scenarios, SocialTube on the sharded
# engine) through every row of a fault matrix that combines the crisp
# fault families (crash, partition) with the messy ones (slow, flap, dup,
# reorder, rejoin), under overload control and a 30-second invariant
# audit. A run FAILS the soak if the checker confirms a single structural
# violation, or if a rejoin row's recovery leaves no rejoined user clean or
# abandons one, so this is a correctness sweep, not a perf measurement.
#
# Both ST_TRACE modes run: the injector must behave identically with the
# event-trace macro compiled in and out (trace emission is observability,
# never protocol state).
#
#   scripts/soak.sh [seeds] [jobs]
#
#   scripts/soak.sh          # 3 seeds, nproc jobs
#   scripts/soak.sh 8 4      # 8 seeds, 4 build jobs
#
# ST_SOAK_USERS overrides the population (default 400 — small enough that
# the full matrix finishes in minutes, large enough that every community
# sees faults). Registered in scripts/labels.sh next to the `soak` ctest
# label it extends; scripts/check.sh runs it behind ST_SOAK=1.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/labels.sh
source scripts/labels.sh

SEEDS="${1:-3}"
JOBS="${2:-$(nproc)}"
USERS="${ST_SOAK_USERS:-400}"

# One --faults schedule per row. Times sit inside churn_storm's default
# horizon; the last row is the full gray+dup+reorder+crash+rejoin+partition
# storm the acceptance criteria name.
FAULT_MATRIX=(
  'crash:t=1200,frac=0.25'
  'slow:t=900,dur=900,frac=0.2,factor=8;flap:t=1200,dur=1200,frac=0.1,period=45'
  'dup:t=600,dur=1800,rate=0.3;reorder:t=600,dur=1800,rate=0.3,delay_ms=150'
  'crash:t=900,frac=0.3;rejoin:t=2100,frac=1.0'
  'slow:t=600,dur=1200,frac=0.15,factor=6;flap:t=800,dur=900,frac=0.1,period=30;dup:t=700,dur=900,rate=0.2;reorder:t=700,dur=900,rate=0.2,delay_ms=150;crash:t=1500,frac=0.2;rejoin:t=2400,frac=1.0;partition:t=1800,dur=600,cat=0'
)

RUNS=0
for MODE in ON OFF; do
  BUILD_DIR="build-trace-$(echo "$MODE" | tr '[:upper:]' '[:lower:]')"
  echo "=== soak: ST_TRACE=$MODE ($BUILD_DIR) ==="
  cmake -B "$BUILD_DIR" -S . -DST_TRACE="$MODE" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j "$JOBS" --target churn_storm
  for ((seed = 1; seed <= SEEDS; ++seed)); do
    for spec in "${FAULT_MATRIX[@]}"; do
      echo "--- seed=$seed faults='$spec'"
      OUT="$("$BUILD_DIR/examples/churn_storm" --users "$USERS" \
        --seed "$seed" --faults "$spec" --audit 30 --overload on \
        --shards 8 --threads 2)"
      # churn_storm prints "invariant audits = N (M violations)" per
      # scenario; any confirmed violation fails the sweep immediately.
      if echo "$OUT" | grep -Eo '\([0-9]+ violations\)' \
          | grep -qv '(0 violations)'; then
        echo "$OUT"
        echo "soak FAILED: confirmed invariant violation" \
             "(seed=$seed, faults='$spec', ST_TRACE=$MODE)" >&2
        exit 1
      fi
      # A rejoin row also prints "recovery rounds = N (R recovered, A
      # abandoned)" per scenario: rejoined users must come clean (R > 0)
      # and none may exhaust the round budget (A == 0).
      if [[ "$spec" == *rejoin:* ]]; then
        RECOVERY="$(echo "$OUT" \
          | grep -Eo '\([0-9]+ recovered, [0-9]+ abandoned\)' || true)"
        if [[ -z "$RECOVERY" ]] || echo "$RECOVERY" \
            | grep -Eq '\(0 recovered|, [1-9][0-9]* abandoned'; then
          echo "$OUT"
          echo "soak FAILED: rejoined users did not all recover" \
               "(seed=$seed, faults='$spec', ST_TRACE=$MODE)" >&2
          exit 1
        fi
      fi
      RUNS=$((RUNS + 1))
    done
  done
done

echo "soak OK: $RUNS runs ($SEEDS seeds × ${#FAULT_MATRIX[@]} schedules × 2 trace modes), 0 violations, every rejoin recovered"
