// Bitwise baseline regression: with every overload knob at its inert default
// the three systems must reproduce this exact fingerprint (every registered
// counter plus four derived statistics, compared to the bit). The overload
// layer — flow classes, admission control, breakers, SLO accounting — is
// built to be invisible when off; any drift here means it leaked into the
// seed behavior.
//
// The expected values are the seed fingerprint of simulationDefaults(7)
// scaled to 150 users / 3 sessions over half a simulated day. Regenerate
// them only for an intentional behavior change, never to "fix" this test.
// Last regenerated for the processor-sharing flow groups (DESIGN.md §12),
// whose integer work units round differently: SocialTube's and NetTube's
// mean startup delays moved in their last bits, PA-VoD's trajectory by the
// origin's rounding.
// The overlay fingerprint is the CRC of the system's end-of-run snapshot
// section (overlays, caches, directory, search records), so it also pins
// that section's byte layout.
#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>

#include "exp/config.h"
#include "exp/runner.h"
#include "obs/registry.h"

namespace st::exp {
namespace {

ExperimentConfig fingerprintConfig() {
  ExperimentConfig config = ExperimentConfig::simulationDefaults(7);
  config = config.scaledTo(150, 3);
  config.duration = sim::kDay / 2;
  return config;
}

obs::Snapshot snapshotOf(
    std::initializer_list<std::pair<const char*, std::uint64_t>> entries) {
  obs::Snapshot snapshot;
  for (const auto& [name, value] : entries) snapshot.set(name, value);
  return snapshot;
}

// EXPECT_EQ on doubles is exact (operator==), which is the point: the runs
// must be bit-identical, not merely close.
//
// SampleSet::percentile() sorts its mutable sample buffer in place and
// mean() sums in the current buffer order, so mean's low bits depend on
// whether a percentile query ran first. The fingerprint below was captured
// with percentile(99) evaluated before mean(); keep that order.

TEST(BaselineRegression, SocialTubeFingerprintIsStable) {
  const ExperimentResult r =
      runExperiment(fingerprintConfig(), SystemKind::kSocialTube);
  const obs::Snapshot expected = snapshotOf({
      {"body_completions", 1498},
      {"cache_hits", 2886},
      {"category_hits", 36},
      {"channel_hits", 1101},
      {"events_fired", 60527},
      {"feed_notifications", 0},
      {"feed_watches", 0},
      {"messages_faulted", 0},
      {"messages_lost", 0},
      {"messages_sent", 46980},
      {"peer_chunks", 22659},
      {"prefetch_hits", 743},
      {"prefetch_issued", 2785},
      {"probes", 7887},
      {"rebuffers", 86},
      {"releases_fired", 0},
      {"repairs", 971},
      {"search.retries", 0},
      {"server_bytes", 3845073669ull},
      {"server_chunks", 9353},
      {"server_fallbacks", 370},
      {"sessions_completed", 438},
      {"startup_timeouts", 0},
      {"transfer.resourced", 73},
      {"watches", 4393},
  });
  EXPECT_EQ(r.counters, expected);
  const double p99 = r.startupDelayMs.percentile(99);
  EXPECT_EQ(r.startupDelayMs.mean(), 0x1.8f0f32d9edd3fp+9);
  EXPECT_EQ(p99, 0x1.686fc3b4f6165p+13);
  EXPECT_EQ(r.aggregatePeerFraction(), 0x1.6a68790ae86ccp-1);
  EXPECT_EQ(r.uploadGini, 0x1.c769dddc64b24p-2);
  EXPECT_EQ(r.overlayFingerprint, 0x99b3464du);
}

TEST(BaselineRegression, PaVodFingerprintIsStable) {
  const ExperimentResult r =
      runExperiment(fingerprintConfig(), SystemKind::kPaVod);
  const obs::Snapshot expected = snapshotOf({
      {"body_completions", 3829},
      {"cache_hits", 0},
      {"category_hits", 0},
      {"channel_hits", 2751},
      {"events_fired", 32896},
      {"feed_notifications", 0},
      {"feed_watches", 0},
      {"messages_faulted", 0},
      {"messages_lost", 0},
      {"messages_sent", 12102},
      {"peer_chunks", 52058},
      {"prefetch_hits", 0},
      {"prefetch_issued", 0},
      {"probes", 0},
      {"rebuffers", 818},
      {"releases_fired", 0},
      {"repairs", 0},
      {"search.retries", 0},
      {"server_bytes", 8728168510ull},
      {"server_chunks", 24765},
      {"server_fallbacks", 1650},
      {"sessions_completed", 438},
      {"startup_timeouts", 426},
      {"transfer.resourced", 220},
      {"watches", 4401},
  });
  EXPECT_EQ(r.counters, expected);
  const double p99 = r.startupDelayMs.percentile(99);
  EXPECT_EQ(r.startupDelayMs.mean(), 0x1.063ab8a32b0bep+13);
  EXPECT_EQ(p99, 0x1.c140a1426fe71p+15);
  EXPECT_EQ(r.aggregatePeerFraction(), 0x1.5af30dcae3a53p-1);
  EXPECT_EQ(r.uploadGini, 0x1.bda99d0e6c6e8p-3);
  EXPECT_EQ(r.overlayFingerprint, 0x1a19fc24u);
}

TEST(BaselineRegression, NetTubeFingerprintIsStable) {
  const ExperimentResult r =
      runExperiment(fingerprintConfig(), SystemKind::kNetTube);
  // Regenerated when NetTube's per-node overlay table moved to a key-ordered
  // map (canonical iteration for the snapshot format): neighbor-draw order
  // shifted, an intentional behavior change.
  const obs::Snapshot expected = snapshotOf({
      {"body_completions", 1520},
      {"cache_hits", 2860},
      {"category_hits", 286},
      {"channel_hits", 843},
      {"events_fired", 42694},
      {"feed_notifications", 0},
      {"feed_watches", 0},
      {"messages_faulted", 0},
      {"messages_lost", 0},
      {"messages_sent", 26430},
      {"peer_chunks", 25639},
      {"prefetch_hits", 450},
      {"prefetch_issued", 4646},
      {"probes", 8014},
      {"rebuffers", 118},
      {"releases_fired", 0},
      {"repairs", 0},
      {"search.retries", 0},
      {"server_bytes", 3663263587ull},
      {"server_chunks", 8965},
      {"server_fallbacks", 403},
      {"sessions_completed", 438},
      {"startup_timeouts", 2},
      {"transfer.resourced", 100},
      {"watches", 4392},
  });
  EXPECT_EQ(r.counters, expected);
  const double p99 = r.startupDelayMs.percentile(99);
  EXPECT_EQ(r.startupDelayMs.mean(), 0x1.29ab48b82a454p+10);
  EXPECT_EQ(p99, 0x1.0d06155475a31p+14);
  EXPECT_EQ(r.aggregatePeerFraction(), 0x1.7b5aa3e157bd8p-1);
  EXPECT_EQ(r.uploadGini, 0x1.e07ecf46eb6e4p-2);
  EXPECT_EQ(r.overlayFingerprint, 0x7d6dba17u);
}

}  // namespace
}  // namespace st::exp
