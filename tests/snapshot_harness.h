// Differential checkpoint/restore harness.
//
// Fidelity claim under test: a run that snapshots its complete state at
// sim-time T and is then restored into a fresh process-equivalent stack
// finishes bitwise-identical to the run that never stopped — same metric
// values to the bit, same event-trace stream, same final overlay state.
//
// One subtlety makes the "uninterrupted" arm non-obvious: scheduling the
// save event itself consumes a simulator sequence number, which shifts
// same-timestamp tie-breaking for the rest of the run. Both arms therefore
// run WITH --snapshot-out armed; the baseline arm simply never restores.
// The saved sequence counter rides in the snapshot, so the restored arm
// continues with identical tie-breaking.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/run.h"
#include "exp/runner.h"
#include "obs/event_trace.h"
#include "trace/catalog.h"

namespace st::testing {

// Unique-enough scratch path for a snapshot file; cleaned by the caller.
inline std::string snapshotPath(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "st_snap";
  if (info != nullptr) {
    name += std::string(".") + info->test_suite_name() + "." + info->name();
  }
  name += "." + tag;
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + name;
}

// `config` run to the horizon with --snapshot-out `path` armed at `at`.
inline exp::ExperimentResult runSaving(exp::ExperimentConfig config,
                                       exp::SystemKind system,
                                       const std::string& path,
                                       sim::SimTime at,
                                       obs::EventTrace* trace = nullptr) {
  config.snapshot.out = path;
  config.snapshot.at = at;
  return exp::runExperiment(config, system, nullptr, trace);
}

// `config` restored from --snapshot-in `path` and run to the horizon.
inline exp::ExperimentResult runRestoring(exp::ExperimentConfig config,
                                          exp::SystemKind system,
                                          const std::string& path,
                                          obs::EventTrace* trace = nullptr) {
  config.snapshot.in = path;
  return exp::runExperiment(config, system, nullptr, trace);
}

// Two complete runs of `config`: one straight through, one restored from
// the snapshot the first arm wrote at `saveAt`. Results land in `baseline`
// and `restored` for the caller's assertions (use expectBitwiseEqual for
// the standard set).
struct DifferentialRun {
  exp::ExperimentResult baseline;
  exp::ExperimentResult restored;
  std::vector<obs::TraceEvent> baselineTrace;
  std::vector<obs::TraceEvent> restoredTrace;
};

inline DifferentialRun runDifferential(const exp::ExperimentConfig& config,
                                       exp::SystemKind system,
                                       sim::SimTime saveAt) {
  const std::string path = snapshotPath(exp::systemName(system));
  DifferentialRun out;
  obs::EventTrace baselineTrace;
  obs::EventTrace restoredTrace;
  // Arm 1: uninterrupted, but with the save event armed (see header note).
  out.baseline = runSaving(config, system, path, saveAt, &baselineTrace);
  // Arm 2: restore the file arm 1 wrote at T and run to the horizon.
  out.restored = runRestoring(config, system, path, &restoredTrace);
  out.baselineTrace = baselineTrace.events();
  out.restoredTrace = restoredTrace.events();
  std::remove(path.c_str());
  return out;
}

// The outcome two runs of one workload must share to the bit: every
// counter and gauge by name, the final overlay state, the startup-delay and
// peer-bandwidth series, the upload Gini and the below-floor posts.
inline void expectSameOutcome(const exp::ExperimentResult& a,
                              const exp::ExperimentResult& b) {
  EXPECT_TRUE(a.counters == b.counters);
  if (!(a.counters == b.counters)) {
    // Name the drifting counters — "24-byte object" diffs are useless.
    for (const auto& entry : a.counters.entries()) {
      if (!b.counters.has(entry.name) ||
          b.counters.at(entry.name) != entry.value) {
        ADD_FAILURE() << "counter " << entry.name << ": " << entry.value
                      << " vs " << b.counters.at(entry.name);
      }
    }
    for (const auto& entry : b.counters.entries()) {
      if (!a.counters.has(entry.name)) {
        ADD_FAILURE() << "counter " << entry.name << " only in the second run";
      }
    }
  }
  EXPECT_EQ(a.overlayFingerprint, b.overlayFingerprint);
  ASSERT_EQ(a.startupDelayMs.count(), b.startupDelayMs.count());
  EXPECT_EQ(a.startupDelayMs.mean(), b.startupDelayMs.mean());
  ASSERT_EQ(a.normalizedPeerBandwidth.count(),
            b.normalizedPeerBandwidth.count());
  EXPECT_EQ(a.normalizedPeerBandwidth.mean(),
            b.normalizedPeerBandwidth.mean());
  EXPECT_EQ(a.uploadGini, b.uploadGini);
  EXPECT_EQ(a.crossBelowFloor, b.crossBelowFloor);
}

// The full bitwise-equality contract between the two arms. EXPECT_EQ on
// doubles here is exact comparison — that is the point.
inline void expectBitwiseEqual(const DifferentialRun& run) {
  const exp::ExperimentResult& a = run.baseline;
  const exp::ExperimentResult& b = run.restored;
  expectSameOutcome(a, b);
  if (::testing::Test::HasFatalFailure()) return;

  // Derived metric series. Sample buffers must match in content AND order
  // (mean() sums in buffer order; its low bits depend on it).
  {
    const auto sa = a.startupDelayMs.samples();
    const auto sb = b.startupDelayMs.samples();
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i], sb[i]) << "startup sample " << i;
    }
  }
  ASSERT_EQ(a.linksByVideosWatched.size(), b.linksByVideosWatched.size());
  for (std::size_t i = 0; i < a.linksByVideosWatched.size(); ++i) {
    EXPECT_EQ(a.linksByVideosWatched[i].count(),
              b.linksByVideosWatched[i].count());
    EXPECT_EQ(a.linksByVideosWatched[i].mean(),
              b.linksByVideosWatched[i].mean());
  }
  EXPECT_EQ(a.redundantLinks.count(), b.redundantLinks.count());
  EXPECT_EQ(a.redundantLinks.mean(), b.redundantLinks.mean());
  EXPECT_EQ(a.serverRegistrations.count(), b.serverRegistrations.count());
  EXPECT_EQ(a.serverRegistrations.mean(), b.serverRegistrations.mean());

  // The event-trace streams: identical length, identical records — the
  // restored ring kept pre-snapshot events and the resumed run appended the
  // same post-snapshot ones.
  ASSERT_EQ(run.baselineTrace.size(), run.restoredTrace.size());
  for (std::size_t i = 0; i < run.baselineTrace.size(); ++i) {
    const obs::TraceEvent& ea = run.baselineTrace[i];
    const obs::TraceEvent& eb = run.restoredTrace[i];
    ASSERT_TRUE(ea.time == eb.time && ea.kind == eb.kind &&
                ea.actor == eb.actor && ea.subject == eb.subject &&
                ea.value == eb.value)
        << "trace event " << i << " diverged (t=" << ea.time << " vs "
        << eb.time << ")";
  }
}

// Names a per-system test parameter.
inline std::string systemParamName(
    const ::testing::TestParamInfo<exp::SystemKind>& info) {
  switch (info.param) {
    case exp::SystemKind::kSocialTube: return "SocialTube";
    case exp::SystemKind::kNetTube: return "NetTube";
    case exp::SystemKind::kPaVod: return "PaVod";
  }
  return "unknown";
}

// A freshly built, not yet started run of `config` for tests that drive
// Run::start / Run::restore and snapshot::save directly (runExperiment
// returns only the error message). A null `catalog` generates one from
// config.trace. Null, with a test failure, if the config is rejected.
inline std::unique_ptr<exp::Run> makeRun(
    const exp::ExperimentConfig& config, exp::SystemKind system,
    const trace::Catalog* catalog = nullptr) {
  std::string error;
  std::unique_ptr<exp::Run> run =
      exp::Run::create(config, system, catalog, nullptr, &error);
  if (run == nullptr) ADD_FAILURE() << error;
  return run;
}

// The bytes of the file at `path`; empty, with a test failure, when it
// cannot be read.
inline std::vector<std::uint8_t> fileBytes(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::string error;
  if (!snapshot::Reader::readFile(path, &bytes, &error)) ADD_FAILURE() << error;
  return bytes;
}

// Restores `path` into the fresh `run` and saves it straight back: the
// resave must reproduce the file byte for byte.
inline void expectResaveIdentical(exp::Run& run, const std::string& path) {
  const std::string resaved = path + ".resaved";
  std::string error;
  ASSERT_TRUE(run.restore(path, &error)) << error;
  ASSERT_TRUE(
      snapshot::save(resaved, run.participants(), run.compat(), &error))
      << error;
  const std::vector<std::uint8_t> original = fileBytes(path);
  const std::vector<std::uint8_t> again = fileBytes(resaved);
  EXPECT_TRUE(original == again) << "resave differs (" << original.size()
                                 << " vs " << again.size() << " bytes)";
  std::remove(resaved.c_str());
}

}  // namespace st::testing
