# Canonical ctest label registry, sourced by scripts/check.sh and
# scripts/sanitize.sh so the gates cannot drift apart.
#
# Every test carries exactly ONE label (tests/CMakeLists.txt explains why
# gtest discovery cannot attach two), and `ctest -L` takes a regex, so a
# gate is an alternation over these labels:
#
#   unit       quick deterministic tests (the default for st_test)
#   flow       the flow-solver suite (queueing, batching, fair share)
#   soak       chaos/fault long-runners
#   snapshot   checkpoint/restore differentials + codec fuzz
#   shard      sharded-vs-sequential equality over the full stack (§13)
#   integration  full-run figure/regression suites (slow; not in gates)
#   claims     the paper's Fig. 16-18 orderings and committed 8-seed bands
#              (tests/claims_test.cpp, a few seconds on 4 threads); the
#              gate for changes that move trajectories
#
# ST_LABELS_ALL_GATED is check.sh's default sweep. ST_LABELS_TSAN is the
# TSan pass: everything threaded — the thread pool, parallel multi-seed,
# parallel snapshot restores, and the sharded engine's barrier windows.
# ST_LABELS_QUICK is sanitize.sh's fast default gate.
ST_LABELS_QUICK='unit|flow'
ST_LABELS_TSAN='unit|snapshot|flow|shard'
ST_LABELS_ALL_GATED='unit|soak|snapshot|flow|shard|claims'
# Seed-sweep chaos soak on top of the `soak` ctest label: scripts/soak.sh
# drives churn_storm through ST_SOAK_SEEDS seeds × a gray/dup/reorder/
# rejoin fault matrix × both ST_TRACE modes. check.sh runs it when
# ST_SOAK=1 (minutes of runtime, so it is opt-in there).
ST_SOAK_SEEDS="${ST_SOAK_SEEDS:-3}"
