#include "net/latency.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "message_probe.h"
#include "net/network.h"
#include "sim/shard.h"
#include "sim/simulator.h"

namespace st::net {
namespace {

using st::testing::MessageProbe;

constexpr EndpointId kA{0};
constexpr EndpointId kB{1};

TEST(PairUniform, StableAndSymmetric) {
  const double u1 = pairUniform(7, kA, kB);
  const double u2 = pairUniform(7, kB, kA);
  EXPECT_DOUBLE_EQ(u1, u2);
  EXPECT_DOUBLE_EQ(u1, pairUniform(7, kA, kB));
  EXPECT_NE(pairUniform(7, kA, kB), pairUniform(8, kA, kB));
  EXPECT_GE(u1, 0.0);
  EXPECT_LT(u1, 1.0);
}

TEST(PairUniform, DifferentPairsDiffer) {
  int collisions = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    const double u = pairUniform(1, EndpointId{i}, EndpointId{i + 1000});
    const double v = pairUniform(1, EndpointId{i}, EndpointId{i + 2000});
    if (u == v) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(CleanLatency, WithinConfiguredBand) {
  const CleanLatencyModel model(1, 10 * sim::kMillisecond,
                                80 * sim::kMillisecond,
                                /*jitterFraction=*/0.05);
  Rng rng(1);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const sim::SimTime d = model.delay(EndpointId{i}, EndpointId{i + 1}, rng);
    ASSERT_GE(d, static_cast<sim::SimTime>(10 * sim::kMillisecond * 0.94));
    ASSERT_LE(d, static_cast<sim::SimTime>(80 * sim::kMillisecond * 1.06));
  }
}

TEST(CleanLatency, LoopbackIsTiny) {
  const CleanLatencyModel model(1, 10 * sim::kMillisecond,
                                80 * sim::kMillisecond);
  Rng rng(1);
  EXPECT_LT(model.delay(kA, kA, rng), sim::kMillisecond);
}

TEST(CleanLatency, NoLoss) {
  const CleanLatencyModel model(1, 1, 2);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_FALSE(model.lost(kA, kB, rng));
  }
}

TEST(CleanLatency, StablePerPairBase) {
  const CleanLatencyModel model(1, 10 * sim::kMillisecond,
                                80 * sim::kMillisecond, /*jitter=*/0.0);
  Rng rng(1);
  const sim::SimTime d1 = model.delay(kA, kB, rng);
  const sim::SimTime d2 = model.delay(kA, kB, rng);
  EXPECT_EQ(d1, d2);  // no jitter -> identical
}

TEST(WideAreaLatency, MedianNearConfigured) {
  const WideAreaLatencyModel model(3, /*medianMs=*/80.0, /*sigma=*/0.6,
                                   /*lossRate=*/0.0);
  Rng rng(3);
  std::vector<double> delays;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    delays.push_back(sim::toMillis(
        model.delay(EndpointId{i}, EndpointId{i + 50000}, rng)));
  }
  std::nth_element(delays.begin(), delays.begin() + delays.size() / 2,
                   delays.end());
  EXPECT_NEAR(delays[delays.size() / 2], 80.0, 12.0);
}

TEST(WideAreaLatency, HasHeavyUpperTail) {
  const WideAreaLatencyModel model(4, 80.0, 0.6, 0.0);
  Rng rng(4);
  double maxDelay = 0.0;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    maxDelay = std::max(
        maxDelay, sim::toMillis(model.delay(EndpointId{i},
                                            EndpointId{i + 90000}, rng)));
  }
  EXPECT_GT(maxDelay, 250.0);  // lognormal tail reaches far past the median
}

TEST(WideAreaLatency, LossRateApproximatelyConfigured) {
  const WideAreaLatencyModel model(5, 80.0, 0.6, /*lossRate=*/0.05);
  Rng rng(5);
  int lost = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (model.lost(kA, kB, rng)) ++lost;
  }
  EXPECT_NEAR(lost / static_cast<double>(n), 0.05, 0.01);
}

TEST(Network, DeliversMessageAfterDelay) {
  sim::Simulator sim;
  Network network(sim, std::make_unique<CleanLatencyModel>(
                           1, 10 * sim::kMillisecond, 20 * sim::kMillisecond),
                  1);
  network.addEndpoint(kA, {1e6, 1e6});
  network.addEndpoint(kB, {1e6, 1e6});
  MessageProbe probe(sim);
  EXPECT_TRUE(network.sendMessage(kA, kB, MessageProbe::message(1)));
  EXPECT_TRUE(probe.delivered.empty());
  sim.run();
  ASSERT_EQ(probe.delivered.size(), 1u);
  EXPECT_GE(probe.delivered[0].at, 9 * sim::kMillisecond);
  EXPECT_EQ(network.messagesSent(), 1u);
  EXPECT_EQ(network.messagesLost(), 0u);
}

TEST(Network, DeliveryRunsUnderTheReceiversOwnerKey) {
  sim::Simulator sim;
  sim::ShardPlan plan;
  plan.keyCount = 3;  // root + two communities
  plan.shardCount = 2;
  plan.lookahead = sim::kMillisecond;
  ASSERT_TRUE(sim.configureShards(plan));
  Network network(sim, std::make_unique<CleanLatencyModel>(
                           1, 10 * sim::kMillisecond, 20 * sim::kMillisecond),
                  1);
  network.addEndpoint(kA, {1e6, 1e6}, /*ownerKey=*/1);
  network.addEndpoint(kB, {1e6, 1e6}, /*ownerKey=*/2);
  MessageProbe probe(sim);
  std::map<std::uint64_t, std::uint32_t> keyOf;  // message id -> key
  probe.onDeliver = [&](std::uint64_t id) { keyOf[id] = sim.currentKey(); };
  network.sendMessage(kA, kB, MessageProbe::message(1));
  network.sendMessage(kB, kA, MessageProbe::message(2));
  sim.run();
  EXPECT_EQ(keyOf.size(), 2u);
  EXPECT_EQ(keyOf[1], 2u);
  EXPECT_EQ(keyOf[2], 1u);
}

// --- lookahead floor (minDelay) regressions -----------------------------------
//
// The sharded engine derives its barrier window from LatencyModel::minDelay
// (DESIGN.md §13), so the floor must be (a) strictly positive for every
// shippable model and (b) an actual lower bound on sampled cross-endpoint
// delays. A violated floor would let a cross-shard message arrive inside a
// window its destination shard already drained.

TEST(LookaheadFloor, EveryShippableModelDeclaresAPositiveFloor) {
  const CleanLatencyModel clean(1, sim::kMillisecond, 2 * sim::kMillisecond);
  const WideAreaLatencyModel wideArea(2);
  const GeoLatencyModel geo(3);
  EXPECT_GT(clean.minDelay(), 0);
  EXPECT_GT(wideArea.minDelay(), 0);
  EXPECT_GT(geo.minDelay(), 0);
}

TEST(LookaheadFloor, BaseClassDefaultsToNoFloor) {
  // A custom model that does not override minDelay() declares no usable
  // floor — sharded runs must be refused at startup, not misordered later.
  class NoFloorModel final : public LatencyModel {
    [[nodiscard]] sim::SimTime delay(EndpointId, EndpointId,
                                     Rng&) const override {
      return 1;
    }
    [[nodiscard]] bool lost(EndpointId, EndpointId, Rng&) const override {
      return false;
    }
  };
  const NoFloorModel model;
  EXPECT_EQ(model.minDelay(), 0);

  sim::ShardPlan plan;
  plan.keyCount = 9;
  plan.shardCount = 2;
  plan.lookahead = model.minDelay();
  std::string error;
  EXPECT_FALSE(plan.validate(&error));
  // The startup diagnostic names the latency configuration as the culprit.
  EXPECT_NE(error.find("latency"), std::string::npos) << error;
  EXPECT_NE(error.find("--shards"), std::string::npos) << error;
}

TEST(LookaheadFloor, CleanModelNeverUndercutsItsFloor) {
  const CleanLatencyModel model(7, sim::kMillisecond, 2 * sim::kMillisecond,
                                /*jitterFraction=*/0.05);
  const sim::SimTime floor = model.minDelay();
  ASSERT_GT(floor, 0);
  Rng rng(7);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const EndpointId a{i};
    const EndpointId b{i * 7 + 1};
    if (a == b) continue;
    ASSERT_GE(model.delay(a, b, rng), floor) << "pair " << i;
  }
}

TEST(LookaheadFloor, WideAreaModelNeverUndercutsItsFloor) {
  const WideAreaLatencyModel model(11, /*medianMs=*/80.0, /*sigma=*/0.6,
                                   /*lossRate=*/0.0);
  const sim::SimTime floor = model.minDelay();
  ASSERT_GT(floor, 0);
  Rng rng(11);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ASSERT_GE(model.delay(EndpointId{i}, EndpointId{i + 60000}, rng), floor);
  }
}

TEST(LookaheadFloor, GeoModelNeverUndercutsItsFloor) {
  const GeoLatencyModel model(13);
  const sim::SimTime floor = model.minDelay();
  ASSERT_GT(floor, 0);
  Rng rng(13);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ASSERT_GE(model.delay(EndpointId{i}, EndpointId{i + 9000}, rng), floor);
  }
}

TEST(LookaheadFloor, DegenerateCleanConfigStillHonorsItsOwnFloor) {
  // Pathologically tight band with heavy jitter: the floor must track the
  // worst case the model can actually emit, not the nominal lower bound.
  const CleanLatencyModel model(17, /*lo=*/10, /*hi=*/11,
                                /*jitterFraction=*/0.5);
  const sim::SimTime floor = model.minDelay();
  Rng rng(17);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ASSERT_GE(model.delay(EndpointId{i}, EndpointId{i + 1}, rng), floor);
  }
}

// Drops every seventh message outright, before the latency model sees it.
class EverySeventhDropped final : public MessageFaultHook {
 public:
  Decision onMessage(EndpointId, EndpointId) override {
    Decision decision;
    decision.drop = ++seen_ % 7 == 0;
    return decision;
  }

 private:
  int seen_ = 0;
};

TEST(Network, LossyModelDropsSomeMessages) {
  sim::Simulator sim;
  Network network(
      sim, std::make_unique<WideAreaLatencyModel>(2, 80.0, 0.6, 0.5), 2);
  network.addEndpoint(kA, {1e6, 1e6});
  network.addEndpoint(kB, {1e6, 1e6});
  EverySeventhDropped hook;
  network.setFaultHook(&hook);
  MessageProbe probe(sim);
  constexpr std::uint64_t kMessages = 1000;
  for (std::uint64_t id = 0; id < kMessages; ++id) {
    network.sendMessage(kA, kB, MessageProbe::message(id));
  }
  sim.run();
  EXPECT_EQ(network.messagesSent(), kMessages);
  EXPECT_EQ(network.messagesFaulted(), kMessages / 7);
  EXPECT_NEAR(static_cast<double>(network.messagesLost()), 430.0, 60.0);
  // Every message is either delivered once or discarded once, never both:
  // lost and fault-dropped tags reach EventFactory::discard exactly once.
  EXPECT_EQ(probe.discarded.size(),
            network.messagesLost() + network.messagesFaulted());
  std::vector<int> seen(kMessages, 0);
  for (const MessageProbe::Delivery& d : probe.delivered) ++seen[d.id];
  for (const auto& [id, calls] : probe.discarded) {
    EXPECT_EQ(calls, 1) << "message " << id;
    seen[id] += calls;
  }
  for (std::uint64_t id = 0; id < kMessages; ++id) {
    EXPECT_EQ(seen[id], 1) << "message " << id;
  }
}

// A gray-failure factor that overflows SimTime, and extra delays whose sum
// does: the delivery saturates at MessageFaultHook::kMaxDelay instead of
// wrapping into the past.
class SaturatingHook final : public MessageFaultHook {
 public:
  Decision onMessage(EndpointId, EndpointId) override {
    Decision decision;
    decision.delayFactor = 1e300;
    for (int i = 0; i < 3; ++i) {
      decision.addDelay(std::numeric_limits<sim::SimTime>::max() / 2);
    }
    return decision;
  }
};

TEST(Network, OverflowingFaultDelaySaturates) {
  sim::Simulator sim;
  Network network(sim, std::make_unique<CleanLatencyModel>(3, 1, 2), 3);
  network.addEndpoint(kA, {1e6, 1e6});
  network.addEndpoint(kB, {1e6, 1e6});
  SaturatingHook hook;
  network.setFaultHook(&hook);
  MessageProbe probe(sim);
  sim.runUntil(sim::kHour);
  ASSERT_TRUE(network.sendMessage(kA, kB, MessageProbe::message(1)));
  sim.run();
  ASSERT_EQ(probe.delivered.size(), 1u);
  EXPECT_EQ(probe.delivered[0].at, sim::kHour + MessageFaultHook::kMaxDelay);
}

}  // namespace
}  // namespace st::net
