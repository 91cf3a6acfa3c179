// End-to-end integration: full experiments at reduced scale, asserting the
// paper's qualitative results (Figs. 16-18) and cross-system invariants.
#include "exp/runner.h"

#include <gtest/gtest.h>

#include "exp/config.h"
#include "trace/generator.h"

namespace st::exp {
namespace {

ExperimentConfig smallConfig(std::uint64_t seed = 1) {
  ExperimentConfig config = ExperimentConfig::simulationDefaults(seed);
  config = config.scaledTo(500, 5);
  config.duration = 2 * sim::kDay;
  return config;
}

// One shared catalog + three runs, computed once for the whole suite.
class RunnerIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ExperimentConfig config = smallConfig();
    catalog_ = new trace::Catalog(trace::generateTrace(config.trace));
    social_ = new ExperimentResult(
        runExperiment(config, SystemKind::kSocialTube, catalog_));
    nettube_ = new ExperimentResult(
        runExperiment(config, SystemKind::kNetTube, catalog_));
    pavod_ = new ExperimentResult(
        runExperiment(config, SystemKind::kPaVod, catalog_));
  }
  static void TearDownTestSuite() {
    delete catalog_;
    delete social_;
    delete nettube_;
    delete pavod_;
    catalog_ = nullptr;
    social_ = nettube_ = pavod_ = nullptr;
  }

  static trace::Catalog* catalog_;
  static ExperimentResult* social_;
  static ExperimentResult* nettube_;
  static ExperimentResult* pavod_;
};

trace::Catalog* RunnerIntegration::catalog_ = nullptr;
ExperimentResult* RunnerIntegration::social_ = nullptr;
ExperimentResult* RunnerIntegration::nettube_ = nullptr;
ExperimentResult* RunnerIntegration::pavod_ = nullptr;

TEST_F(RunnerIntegration, AllWatchesAccountedFor) {
  const std::uint64_t expected = 500u * 5u * 10u;
  for (const ExperimentResult* r : {social_, nettube_, pavod_}) {
    EXPECT_EQ(r->watches(), expected) << r->system;
    EXPECT_EQ(r->sessionsCompleted(), 500u * 5u) << r->system;
  }
}

TEST_F(RunnerIntegration, Fig16SocialTubeBeatsPaVodOnPeerBandwidth) {
  // The paper's headline ordering. SocialTube and NetTube are close; both
  // must dominate PA-VoD clearly.
  EXPECT_GT(social_->aggregatePeerFraction(),
            pavod_->aggregatePeerFraction() + 0.15);
  EXPECT_GT(nettube_->aggregatePeerFraction(),
            pavod_->aggregatePeerFraction());
  EXPECT_GE(social_->aggregatePeerFraction(),
            nettube_->aggregatePeerFraction() - 0.05);
  // Median (p50) ordering as in Fig. 16.
  EXPECT_GT(social_->normalizedPeerBandwidth.percentile(50),
            pavod_->normalizedPeerBandwidth.percentile(50));
}

TEST_F(RunnerIntegration, Fig17PaVodHasWorstStartupDelay) {
  EXPECT_GT(pavod_->startupDelayMs.mean(), social_->startupDelayMs.mean());
  EXPECT_GT(pavod_->startupDelayMs.mean(), nettube_->startupDelayMs.mean());
  EXPECT_LT(social_->startupDelayMs.mean(), nettube_->startupDelayMs.mean());
}

TEST_F(RunnerIntegration, Fig18SocialTubeFlatNetTubeGrowing) {
  // Mean links after the 2nd vs after the 10th video of a session:
  // SocialTube roughly flat, NetTube clearly growing.
  const double socialEarly = social_->linksByVideosWatched[2].mean();
  const double socialLate = social_->linksByVideosWatched[10].mean();
  const double netEarly = nettube_->linksByVideosWatched[2].mean();
  const double netLate = nettube_->linksByVideosWatched[10].mean();
  EXPECT_LT(socialLate, socialEarly * 2.0 + 3.0);  // bounded
  EXPECT_GT(netLate, netEarly * 1.5);              // linear growth
  EXPECT_GT(netLate, socialLate);                  // NetTube worse at the end
  // PA-VoD maintains no overlay at all.
  EXPECT_LT(pavod_->linksByVideosWatched[10].mean(), 1.1);
}

TEST_F(RunnerIntegration, NormalizedBandwidthSamplesAreValidFractions) {
  for (const ExperimentResult* r : {social_, nettube_, pavod_}) {
    for (const double x : r->normalizedPeerBandwidth.samples()) {
      ASSERT_GE(x, 0.0) << r->system;
      ASSERT_LE(x, 1.0) << r->system;
    }
  }
}

TEST_F(RunnerIntegration, ChunkConservation) {
  // Every remote chunk came from exactly one source.
  for (const ExperimentResult* r : {social_, nettube_, pavod_}) {
    const std::uint64_t remote = r->peerChunks() + r->serverChunks();
    EXPECT_GT(remote, 0u) << r->system;
    // Startup delays were recorded only for non-timed-out watches.
    EXPECT_EQ(r->startupDelayMs.count() + r->startupTimeouts(), r->watches())
        << r->system;
  }
}

TEST_F(RunnerIntegration, PrefetchOnlyWhereImplemented) {
  EXPECT_GT(social_->prefetchIssued(), 0u);
  EXPECT_GT(nettube_->prefetchIssued(), 0u);
  EXPECT_EQ(pavod_->prefetchIssued(), 0u);
  // SocialTube's popularity-ranked prefetching hits more often than
  // NetTube's random-from-neighbors strategy (§IV-B's core claim).
  EXPECT_GT(social_->prefetchHitRate(), nettube_->prefetchHitRate());
}

TEST_F(RunnerIntegration, ServerLoadOrderingMatchesPeerBandwidth) {
  EXPECT_LT(social_->serverBytes(), pavod_->serverBytes());
  EXPECT_LT(nettube_->serverBytes(), pavod_->serverBytes());
}

TEST_F(RunnerIntegration, CleanNetworkLosesNoMessages) {
  for (const ExperimentResult* r : {social_, nettube_, pavod_}) {
    EXPECT_EQ(r->messagesLost(), 0u) << r->system;
    EXPECT_GT(r->messagesSent(), 0u) << r->system;
  }
}

TEST_F(RunnerIntegration, CounterSnapshotMatchesTypedAccessors) {
  // The typed accessors are views over the same counter map the CSV/report
  // layers consume — the two can never disagree, and the names the rest of
  // the tooling greps for must all be present.
  for (const ExperimentResult* r : {social_, nettube_, pavod_}) {
    EXPECT_EQ(r->counters.at("watches"), r->watches()) << r->system;
    EXPECT_EQ(r->counters.at("cache_hits"), r->cacheHits()) << r->system;
    EXPECT_EQ(r->counters.at("server_fallbacks"), r->serverFallbacks())
        << r->system;
    EXPECT_EQ(r->counters.at("peer_chunks"), r->peerChunks()) << r->system;
    EXPECT_EQ(r->counters.at("events_fired"), r->eventsFired()) << r->system;
    for (const char* name :
         {"watches", "startup_timeouts", "cache_hits", "prefetch_hits",
          "prefetch_issued", "channel_hits", "category_hits",
          "server_fallbacks", "probes", "repairs", "body_completions",
          "rebuffers", "peer_chunks", "server_chunks", "server_bytes",
          "messages_sent", "messages_lost", "sessions_completed",
          "events_fired", "releases_fired", "feed_notifications",
          "feed_watches"}) {
      EXPECT_TRUE(r->counters.has(name)) << r->system << " missing " << name;
    }
  }
}

TEST_F(RunnerIntegration, WatchesCannotDriftFromDerivation) {
  // "watches" is a registry gauge computed from delay samples + timeouts;
  // there is no second stored copy to fall out of sync. This is the drift
  // regression: if anyone reintroduces a stored watches counter, the stored
  // and derived values must still agree after a full experiment.
  for (const ExperimentResult* r : {social_, nettube_, pavod_}) {
    EXPECT_EQ(r->watches(),
              r->startupDelayMs.count() + r->startupTimeouts())
        << r->system;
  }
}

TEST_F(RunnerIntegration, PhaseProfilesCoverTheRun) {
  for (const ExperimentResult* r : {social_, nettube_, pavod_}) {
    ASSERT_GE(r->phases.size(), 3u) << r->system;
    bool sawEventLoop = false;
    for (const obs::Phase& phase : r->phases) {
      EXPECT_GE(phase.ms, 0.0) << r->system << " " << phase.name;
      if (phase.name == "event_loop") {
        sawEventLoop = true;
        EXPECT_EQ(phase.calls, 1u) << r->system;
        EXPECT_GT(phase.ms, 0.0) << r->system;
      }
    }
    EXPECT_TRUE(sawEventLoop) << r->system;
  }
}

TEST(RunnerDeterminism, SameSeedIdenticalResults) {
  const ExperimentConfig config = smallConfig(77);
  const ExperimentResult a =
      runExperiment(config, SystemKind::kSocialTube);
  const ExperimentResult b =
      runExperiment(config, SystemKind::kSocialTube);
  EXPECT_EQ(a.peerChunks(), b.peerChunks());
  EXPECT_EQ(a.serverChunks(), b.serverChunks());
  EXPECT_EQ(a.eventsFired(), b.eventsFired());
  EXPECT_EQ(a.messagesSent(), b.messagesSent());
  EXPECT_DOUBLE_EQ(a.startupDelayMs.mean(), b.startupDelayMs.mean());
}

TEST(RunnerPlanetLab, WideAreaModeRunsAndLosesMessages) {
  ExperimentConfig config = ExperimentConfig::planetLabDefaults(3);
  config.vod.sessionsPerUser = 3;
  config.duration = sim::kDay;
  const ExperimentResult result =
      runExperiment(config, SystemKind::kSocialTube);
  EXPECT_EQ(result.mode, Mode::kPlanetLab);
  EXPECT_GT(result.watches(), 0u);
  // 1% loss must actually bite.
  EXPECT_GT(result.messagesLost(), 0u);
  // The protocol still works: peers supply a meaningful share even in this
  // truncated (3-session) run where caches are barely warm.
  EXPECT_GT(result.aggregatePeerFraction(), 0.12);
}

// A spec or plan the runner cannot use comes back as the run's error (the
// binaries validate both flags first, so only library callers get here).
TEST(RunnerErrors, BadFaultSpecAndShardPlanAreTheRunError) {
  ExperimentConfig config = smallConfig(13);
  config.faults.spec = "crash:t=oops";
  EXPECT_NE(runExperiment(config, SystemKind::kSocialTube)
                .error.find("invalid --faults spec"),
            std::string::npos);
  config.faults.spec.clear();
  config.shards.count = 3;
  const ExperimentResult result = runExperiment(config, SystemKind::kNetTube);
  EXPECT_NE(result.error.find("--shards 3"), std::string::npos)
      << result.error;
  EXPECT_TRUE(result.counters.empty());
}

TEST(RunnerPrefetchAblation, PrefetchReducesSocialTubeStartupDelay) {
  ExperimentConfig config = smallConfig(11);
  config.vod.prefetchEnabled = true;
  const trace::Catalog catalog = trace::generateTrace(config.trace);
  const ExperimentResult with =
      runExperiment(config, SystemKind::kSocialTube, &catalog);
  config.vod.prefetchEnabled = false;
  const ExperimentResult without =
      runExperiment(config, SystemKind::kSocialTube, &catalog);
  EXPECT_EQ(with.prefetchIssued() > 0, true);
  EXPECT_EQ(without.prefetchIssued(), 0u);
  EXPECT_LT(with.startupDelayMs.mean(), without.startupDelayMs.mean());
}

}  // namespace
}  // namespace st::exp
