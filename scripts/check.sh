#!/usr/bin/env bash
# Build and run the unit-label tests with structured tracing compiled IN and
# OUT, build the end-to-end benchmark and pin its seed-7 and seed-3 event
# counts and fingerprints, then run the tests once more under the
# combined ASan+UBSan sanitizers, and finally under TSan. All four modes must stay green: ST_TRACE=OFF proves every
# ST_TRACE() call site compiles away cleanly (no stray side effects in macro
# arguments), the trace tests themselves flip behavior on ST_TRACE_ENABLED,
# the ASan+UBSan pass guards the hand-rolled lifetime management in the
# slotted scheduler and callback SBO storage (placement new / launder /
# relocation) and gates the soak and snapshot labels, and the TSan pass
# covers the thread pool and parallel multi-seed machinery.
#
# The snapshot label rides in the default: the checkpoint/restore
# differential tests must hold bitwise with the trace ring compiled in AND
# out (the snapshot carries the ring only when it exists), and the
# deserialization fuzz cases are only meaningful under ASan+UBSan.
#
#   scripts/check.sh [ctest label] [jobs]
#
#   scripts/check.sh            # unit + soak + snapshot labels, all modes
#   scripts/check.sh . 8        # everything, 8 jobs
#
# Sibling of scripts/sanitize.sh; each mode gets its own build tree
# (build-trace-on/, build-trace-off/, build-e2e/, build-asan-ubsan/) so
# toggling options never reuses stale objects.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/labels.sh
source scripts/labels.sh

# Default covers the quick unit gate, the chaos-soak fault tests, the
# checkpoint/restore differential suite, the flow-solver suite, and the
# sharded-engine equality suite (labels.sh documents why a gate is an
# alternation), so the sanitizer pass exercises the injector/checker
# paths and the snapshot codec too.
LABEL="${1:-$ST_LABELS_ALL_GATED}"
JOBS="${2:-$(nproc)}"

for MODE in ON OFF; do
  BUILD_DIR="build-trace-$(echo "$MODE" | tr '[:upper:]' '[:lower:]')"
  echo "=== ST_TRACE=$MODE ($BUILD_DIR) ==="
  cmake -B "$BUILD_DIR" -S . -DST_TRACE="$MODE" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j "$JOBS"
  ctest --test-dir "$BUILD_DIR" -L "$LABEL" --output-on-failure -j "$JOBS"
done

# Smoke the sharded-engine benchmark with the sequential cross-check
# armed: one-key, serial-merge, and parallel-window runs (2 and 4 workers)
# of the same community workload must agree exactly on completions, bytes,
# events, and fingerprints (any divergence exits 1), so this is a
# differential test of the barrier protocol, not a perf measurement.
echo "=== shard_bench --smoke (build-trace-on) ==="
cmake --build build-trace-on -j "$JOBS" --target shard_bench
build-trace-on/bench/shard_bench /dev/null --smoke

# Build the end-to-end benchmark (e2ebench/, its own CMake project over
# ../src) out of tree. The root build never compiles it, so this is the
# gate that catches a src/ API change breaking the benchmark.
echo "=== e2ebench build (build-e2e) ==="
cmake -B build-e2e -S e2ebench -DCMAKE_BUILD_TYPE=Release
cmake --build build-e2e -j "$JOBS"

# Pin bitwise behaviour at the benchmark's scale (1000 users, 3 simulated
# days), which the small baseline_regression_test runs do not reach. The
# seed-7 run also exercises the traced pass, which wraps every event
# factory; an untraced seed-3 repeat (about 5 s) adds a second trajectory.
# Both workloads must report "correct": true, and every repeat must show
# exactly the pinned event counts and overlay fingerprints.
e2e_fail() {
  echo "$E2E_OUT"
  echo "e2e pin: $1" >&2
  exit 1
}
# e2e_pin SEED "FIG16 PIN" "CHURN-STORM PIN" [e2e_bench flags...]
e2e_pin() {
  local seed="$1" fig16="$2" churn="$3"
  shift 3
  echo "=== e2e_bench bitwise pin, seed $seed (build-e2e) ==="
  E2E_OUT="$(build-e2e/e2e_bench --workload fig16,churn-storm --seed "$seed" \
    --seconds 1 "$@")" || e2e_fail "e2e_bench exited non-zero"
  [[ "$(grep -c '"correct": true' <<<"$E2E_OUT")" == 2 ]] ||
    e2e_fail 'expected two "correct": true results'
  local pin
  for pin in "$fig16" "$churn"; do
    grep -qF "$pin" <<<"$E2E_OUT" || e2e_fail "no repeat shows '$pin'"
  done
  if grep '^repeat' <<<"$E2E_OUT" | grep -vqF -e "$fig16" -e "$churn"; then
    e2e_fail "a repeat differs from the pinned event counts and fingerprints"
  fi
  grep -E '^(repeat|fidelity)' <<<"$E2E_OUT"
}
e2e_pin 7 \
  "events 4347618, PA-VoD=483c9874 SocialTube=c3632bce NetTube=82de89d7," \
  "events 2702896, SocialTube=2d265243," \
  --trace 1
e2e_pin 3 \
  "events 4342460, PA-VoD=483c9874 SocialTube=10a63ca2 NetTube=ec353e79," \
  "events 2662244, SocialTube=046e5a90," \
  --repeats 1

# Seed-sweep chaos soak (scripts/soak.sh): ST_SOAK_SEEDS seeds × fault
# matrix × trace ON/OFF over churn_storm. Minutes of runtime, so it is
# opt-in: ST_SOAK=1 scripts/check.sh. The ctest `soak` label above already
# covers the single-seed chaos matrix on every default run.
if [[ "${ST_SOAK:-0}" == "1" ]]; then
  echo "=== chaos soak (scripts/soak.sh, $ST_SOAK_SEEDS seeds) ==="
  scripts/soak.sh "$ST_SOAK_SEEDS" "$JOBS"
fi

echo "=== ST_SANITIZE=address,undefined (build-asan-ubsan) ==="
scripts/sanitize.sh address,undefined "$LABEL" "$JOBS"

# TSan cannot combine with ASan, so it gets its own pass over the
# threaded labels (labels.sh): the thread pool, the parallel multi-seed
# engine, the 1-vs-8-thread determinism paths, the parallel snapshot
# restores (including the save -> load -> save round trip), and the
# sharded engine's lookahead-window workers must stay race-free.
echo "=== ST_SANITIZE=thread (build-tsan) ==="
scripts/sanitize.sh thread "$ST_LABELS_TSAN" "$JOBS"
