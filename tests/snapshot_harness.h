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

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"
#include "net/latency.h"
#include "obs/event_trace.h"
#include "snapshot/snapshot.h"
#include "trace/generator.h"

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

inline DifferentialRun runDifferential(exp::ExperimentConfig config,
                                       exp::SystemKind system,
                                       sim::SimTime saveAt,
                                       const trace::Catalog* catalog = nullptr,
                                       bool withTrace = true) {
  const std::string path = snapshotPath(exp::systemName(system));
  DifferentialRun out;

  // Arm 1: uninterrupted, but with the save event armed (see header note).
  exp::ExperimentConfig warm = config;
  warm.snapshot.out = path;
  warm.snapshot.at = saveAt;
  warm.snapshot.in.clear();
  if (withTrace) {
    obs::EventTrace trace;
    out.baseline = exp::runExperiment(warm, system, catalog, &trace);
    out.baselineTrace = trace.events();
  } else {
    out.baseline = exp::runExperiment(warm, system, catalog);
  }

  // Arm 2: restore the file arm 1 wrote at T and run to the horizon.
  exp::ExperimentConfig resumed = config;
  resumed.snapshot.in = path;
  resumed.snapshot.out.clear();
  if (withTrace) {
    obs::EventTrace trace;
    out.restored = exp::runExperiment(resumed, system, catalog, &trace);
    out.restoredTrace = trace.events();
  } else {
    out.restored = exp::runExperiment(resumed, system, catalog);
  }

  std::remove(path.c_str());
  return out;
}

// The full bitwise-equality contract between the two arms. EXPECT_EQ on
// doubles here is exact comparison — that is the point.
inline void expectBitwiseEqual(const DifferentialRun& run) {
  const exp::ExperimentResult& a = run.baseline;
  const exp::ExperimentResult& b = run.restored;

  // Every registered counter and gauge, by name, to the bit.
  EXPECT_TRUE(a.counters == b.counters);
  if (!(a.counters == b.counters)) {
    // Name the first drifting counter — "24-byte object" diffs are useless.
    for (const auto& entry : a.counters.entries()) {
      if (b.counters.at(entry.name) != entry.value) {
        ADD_FAILURE() << "counter " << entry.name << ": baseline "
                      << entry.value << " vs restored "
                      << b.counters.at(entry.name);
      }
    }
    for (const auto& entry : b.counters.entries()) {
      if (!a.counters.has(entry.name)) {
        ADD_FAILURE() << "counter " << entry.name << " only in restored run";
      }
    }
  }

  // Derived metric series. Sample buffers must match in content AND order
  // (mean() sums in buffer order; its low bits depend on it).
  ASSERT_EQ(a.startupDelayMs.count(), b.startupDelayMs.count());
  EXPECT_EQ(a.startupDelayMs.mean(), b.startupDelayMs.mean());
  ASSERT_EQ(a.normalizedPeerBandwidth.count(),
            b.normalizedPeerBandwidth.count());
  EXPECT_EQ(a.normalizedPeerBandwidth.mean(),
            b.normalizedPeerBandwidth.mean());
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
  EXPECT_EQ(a.uploadGini, b.uploadGini);

  // Final overlay state, to the bit.
  EXPECT_EQ(a.overlayFingerprint, b.overlayFingerprint);

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

// Mirrors runExperiment's construction — same component order, hence the
// same counter-registration order — for a *calm* config (no faults, audit,
// or trace sink), so tests can drive snapshot::restore / snapshot::save
// directly and inspect their error strings (runExperiment returns only
// the message). Used by the resave-byte-identity test and the
// snapshot-corruption fuzzer, which also starts fresh runs on it
// (driver().start()) to snapshot them at a chosen event.
class RestoreStack {
 public:
  RestoreStack(const exp::ExperimentConfig& config, exp::SystemKind kind)
      : catalog_(trace::generateTrace(config.trace)),
        network_(sim_,
                 std::make_unique<net::CleanLatencyModel>(
                     config.seed, 10 * sim::kMillisecond,
                     80 * sim::kMillisecond),
                 config.seed),
        library_(catalog_, config.vod),
        metrics_(catalog_.userCount(), config.vod.videosPerSession),
        hook_(sim_, network_, metrics_.registry()),
        ctx_(sim_, network_, catalog_, library_, config.vod, metrics_,
             config.seed),
        transfers_(ctx_),
        system_(makeSystem(kind)),
        selector_(catalog_, config.vod, config.seed),
        driver_(ctx_, *system_, transfers_, selector_, config.seed),
        releases_(ctx_, selector_, config.releases.feedWatchProbability,
                  config.seed),
        kind_(kind),
        compat_{config.seed, catalog_.userCount(), catalog_.videoCount()} {
    selector_.attachContext(ctx_);
    sim_.registerFactory(sim::Component::kRunner, &runnerStub_);
  }
  ~RestoreStack() {
    if (sim_.factory(sim::Component::kRunner) == &runnerStub_) {
      sim_.registerFactory(sim::Component::kRunner, nullptr);
    }
  }
  RestoreStack(const RestoreStack&) = delete;
  RestoreStack& operator=(const RestoreStack&) = delete;

  [[nodiscard]] snapshot::Participants participants() {
    snapshot::Participants p;
    p.sim = &sim_;
    p.network = &network_;
    p.ctx = &ctx_;
    p.metrics = &metrics_;
    p.transfers = &transfers_;
    switch (kind_) {
      case exp::SystemKind::kSocialTube:
        p.socialTube = static_cast<core::SocialTubeSystem*>(system_.get());
        break;
      case exp::SystemKind::kNetTube:
        p.netTube = static_cast<baselines::NetTubeSystem*>(system_.get());
        break;
      case exp::SystemKind::kPaVod:
        p.paVod = static_cast<baselines::PaVodSystem*>(system_.get());
        break;
    }
    p.driver = &driver_;
    p.selector = &selector_;
    p.releases = &releases_;
    p.serverSample = &serverSample_;
    return p;
  }
  [[nodiscard]] const snapshot::Compat& compat() const { return compat_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] vod::SessionDriver& driver() { return driver_; }
  [[nodiscard]] const trace::Catalog& catalog() const { return catalog_; }

 private:
  // Stands in for the runner's ServerSampler: rebuilds its pending sample
  // event as a no-op (the queue stores tags, so resaving is unaffected).
  class RunnerStub final : public sim::EventFactory {
   public:
    [[nodiscard]] sim::Callback rebuild(const sim::EventTag&) override {
      return [] {};
    }
  };

  // runExperiment registers the sim and network counters between the
  // Metrics construction and the SystemContext construction; this member
  // sits at the same position so registration order matches exactly
  // (Registry::visitCounters serializes in registration order).
  struct RegisterHook {
    RegisterHook(sim::Simulator& sim, net::Network& network,
                 obs::Registry& registry) {
      sim.registerInto(registry);
      network.registerInto(registry);
    }
  };

  [[nodiscard]] std::unique_ptr<vod::VodSystem> makeSystem(
      exp::SystemKind kind) {
    switch (kind) {
      case exp::SystemKind::kSocialTube:
        return std::make_unique<core::SocialTubeSystem>(ctx_, transfers_);
      case exp::SystemKind::kNetTube:
        return std::make_unique<baselines::NetTubeSystem>(ctx_, transfers_);
      case exp::SystemKind::kPaVod:
        return std::make_unique<baselines::PaVodSystem>(ctx_, transfers_);
    }
    return nullptr;
  }

  trace::Catalog catalog_;
  sim::Simulator sim_;
  net::Network network_;
  vod::VideoLibrary library_;
  vod::Metrics metrics_;
  RegisterHook hook_;
  vod::SystemContext ctx_;
  vod::TransferManager transfers_;
  std::unique_ptr<vod::VodSystem> system_;
  vod::VideoSelector selector_;
  vod::SessionDriver driver_;
  vod::ReleaseManager releases_;
  RunnerStub runnerStub_;
  RunningStats serverSample_;
  exp::SystemKind kind_;
  snapshot::Compat compat_;
};

}  // namespace st::testing
