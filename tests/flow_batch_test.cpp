// The deferred-batch mutation API and the processor-sharing groups it
// settles (DESIGN.md §12): one completion re-time per group whose share or
// head changed at batch commit, deterministic observer ordering, binding
// flips between a flow's source and destination groups, and equivalence of
// batched and unbatched mutation sequences (bitwise-identical completion
// times: no simulated time passes inside a batch).
#include "net/flow_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "flow_observer.h"
#include "harness.h"
#include "sim/simulator.h"

namespace st::net {
namespace {

class FlowBatchTest : public ::testing::Test {
 protected:
  FlowBatchTest() : flows_(sim_) {}

  EndpointId endpoint(std::uint32_t i, double upBps = 8e6,
                      double downBps = 8e6) {
    const EndpointId id{i};
    flows_.addEndpoint(id, {upBps, downBps});
    return id;
  }

  sim::Simulator sim_;
  FlowNetwork flows_;
  test::TestFlowObserver observer_{flows_};
};

TEST_F(FlowBatchTest, DropSettlesASharedEndpointOnce) {
  // Regression for the O(N) double-refresh: a provider uploads N flows to
  // one destination that also downloads from a survivor. Every flow is
  // bound by the destination's downlink share (8/17 Mbit/s), so all 17 sit
  // in its download group. The batch drains the dirty set once, however
  // many flows died: the survivor's source share (8 Mbit/s) now ties the
  // destination's (ties go to the upload side), so it flips into its
  // source's group. Two re-times: the emptied destination group's event is
  // cancelled and the source group's is scheduled.
  const EndpointId provider = endpoint(0);
  const EndpointId shared = endpoint(1);
  const EndpointId survivor = endpoint(2);
  constexpr int kFlows = 16;
  for (int i = 0; i < kFlows; ++i) {
    ASSERT_TRUE(flows_.startFlow(provider, shared, 1'000'000).valid());
  }
  const FlowId kept = flows_.startFlow(survivor, shared, 1'000'000);
  ASSERT_TRUE(kept.valid());

  const std::uint64_t before = flows_.rateRecomputations();
  flows_.dropEndpointFlows(provider);
  EXPECT_EQ(flows_.rateRecomputations() - before, 2u);
  EXPECT_EQ(observer_.aborts.size(), static_cast<std::size_t>(kFlows));
  EXPECT_NEAR(flows_.flowRateBps(kept), 8e6, 1.0);  // whole downlink now
  EXPECT_EQ(flows_.activeFlows(), 1u);
}

TEST_F(FlowBatchTest, SameInstantCompletionsFireInRescheduleOrder) {
  // DESIGN.md §12: flows activated in a batch join their groups at commit
  // in activation order, and the drain re-times groups in the order their
  // head changed. Two equal flows on disjoint pairs (shares tie, so each
  // joins its source's upload group), started in one batch, finish in the
  // same microsecond; their completions then fire in stamp (re-time)
  // order: the first flow's group got its head first.
  const EndpointId a = endpoint(0);
  const EndpointId b = endpoint(1);
  const EndpointId c = endpoint(2);
  const EndpointId d = endpoint(3);
  FlowId first;
  FlowId second;
  {
    FlowNetwork::MutationBatch batch(flows_);
    first = flows_.startFlow(a, b, 1'000'000);
    second = flows_.startFlow(c, d, 1'000'000);
  }
  std::vector<sim::SimTime> finishedAt;
  const auto stamp = [&] { finishedAt.push_back(sim_.now()); };
  observer_.onComplete(first, stamp);
  observer_.onComplete(second, stamp);
  sim_.run();
  EXPECT_EQ(observer_.completions, (std::vector<FlowId>{first, second}));
  // 1 MB at 8 Mbit/s each.
  EXPECT_EQ(finishedAt,
            (std::vector<sim::SimTime>{sim::kSecond, sim::kSecond}));
}

TEST_F(FlowBatchTest, DropHandlesMixedFlowStatesAtOneEndpoint) {
  // One endpoint holding every kind of flow state at once: an active
  // playback upload, a floor-paused prefetch upload, an active inbound
  // download, and a queued-inbound flow waiting on a busy server slot.
  const EndpointId server = endpoint(0, 1e6, 1e6);
  const EndpointId x = endpoint(1, 1e6, 8e6);
  const EndpointId a = endpoint(2);
  const EndpointId b = endpoint(3);
  const EndpointId c = endpoint(4);
  const EndpointId d = endpoint(5);
  flows_.setPlaybackFloor(8e5);
  flows_.setUploadConcurrencyLimit(server, 1);

  FlowNetwork::FlowOptions prefetch;
  prefetch.flowClass = FlowClass::kPrefetch;
  const FlowId pausedUp = flows_.startFlow(x, c, 125'000, prefetch);
  const FlowId activeUp = flows_.startFlow(x, d, 125'000);  // preempts it
  ASSERT_TRUE(flows_.flowPaused(pausedUp));
  ASSERT_FALSE(flows_.flowPaused(activeUp));
  const FlowId inboundActive = flows_.startFlow(b, x, 1'000'000);
  ASSERT_TRUE(flows_.startFlow(server, a, 1'000'000).valid());  // takes slot
  const FlowId inboundQueued = flows_.startFlow(server, x, 1'000'000);
  ASSERT_EQ(flows_.queuedUploads(server), 1u);

  flows_.dropEndpointFlows(x);

  // Outbound transfers (active and paused alike) notify their downloaders;
  // X's own downloads and queued-inbound entries die silently.
  ASSERT_EQ(observer_.aborts.size(), 2u);
  EXPECT_EQ(observer_.aborts[0].flow, pausedUp);
  EXPECT_EQ(observer_.aborts[1].flow, activeUp);
  EXPECT_FALSE(flows_.flowActive(inboundActive));
  EXPECT_FALSE(flows_.flowActive(inboundQueued));
  EXPECT_EQ(flows_.pausedUploads(x), 0u);
  EXPECT_EQ(flows_.queuedUploads(server), 0u);
  // Only the server's transfer to A survives, promoted to nothing new.
  EXPECT_EQ(flows_.activeFlows(), 1u);
  sim_.run();
  EXPECT_EQ(flows_.bytesDownloaded(x), 0u);
  EXPECT_EQ(flows_.bytesDownloaded(a), 1'000'000u);
}

TEST_F(FlowBatchTest, AbortNotificationsArriveInAscendingFlowIdOrder) {
  const EndpointId src = endpoint(0);
  std::vector<FlowId> ids;
  for (std::uint32_t i = 1; i <= 5; ++i) {
    ids.push_back(flows_.startFlow(src, endpoint(i), 1'000'000));
  }
  flows_.dropEndpointFlows(src);
  ASSERT_EQ(observer_.aborts.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(observer_.aborts[i].flow, ids[i]);
  }
  EXPECT_TRUE(std::is_sorted(
      observer_.aborts.begin(), observer_.aborts.end(),
      [](const auto& lhs, const auto& rhs) { return lhs.flow < rhs.flow; }));
}

TEST_F(FlowBatchTest, ShedNotificationsFollowSubmissionOrder) {
  const EndpointId server = endpoint(0, 1e6, 1e6);
  const EndpointId a = endpoint(1);
  const EndpointId b = endpoint(2);
  const EndpointId c = endpoint(3);
  flows_.setUploadConcurrencyLimit(server, 1);
  flows_.setAdmissionPolicy(server, {});  // shedPrefetch defaults true
  FlowNetwork::FlowOptions prefetchOpts;
  prefetchOpts.flowClass = FlowClass::kPrefetch;
  {
    FlowNetwork::MutationBatch batch(flows_);
    ASSERT_TRUE(flows_.startFlow(server, a, 100'000).valid());
    EXPECT_FALSE(flows_.startFlow(server, b, 100'000, prefetchOpts).valid());
    EXPECT_FALSE(flows_.startFlow(server, c, 100'000, prefetchOpts).valid());
  }
  ASSERT_EQ(observer_.shed.size(), 2u);
  EXPECT_EQ(observer_.shed[0].dst, b);
  EXPECT_EQ(observer_.shed[1].dst, c);
  EXPECT_EQ(flows_.flowsShed(server), 2u);
}

TEST_F(FlowBatchTest, BatchedStartsMatchUnbatchedCompletionTimes) {
  // The same three-flow contention pattern, started one-by-one in one
  // network and under a single MutationBatch in another, must complete at
  // bitwise-identical times: deferral only skips invisible intermediate
  // rate assignments (no sim time passes inside a batch).
  const auto run = [](bool batched) {
    sim::Simulator sim;
    FlowNetwork flows(sim);
    test::TestFlowObserver observer(flows);
    for (std::uint32_t i = 0; i < 4; ++i) {
      flows.addEndpoint(EndpointId{i}, {8e6, 8e6});
    }
    std::vector<double> completions;
    const auto startAll = [&] {
      for (std::uint32_t dst = 1; dst <= 3; ++dst) {
        observer.onComplete(
            flows.startFlow(EndpointId{0}, EndpointId{dst}, 1'000'000),
            [&] { completions.push_back(sim::toSeconds(sim.now())); });
      }
    };
    if (batched) {
      FlowNetwork::MutationBatch batch(flows);
      startAll();
    } else {
      startAll();
    }
    sim.run();
    return completions;
  };
  const std::vector<double> eager = run(false);
  const std::vector<double> deferred = run(true);
  ASSERT_EQ(eager.size(), 3u);
  EXPECT_EQ(eager, deferred);  // exact, not approximate
}

TEST_F(FlowBatchTest, NestedBatchesDeferUntilTheOutermostCommit) {
  const EndpointId a = endpoint(0);
  const EndpointId b = endpoint(1);
  FlowId id;
  {
    FlowNetwork::MutationBatch outer(flows_);
    {
      FlowNetwork::MutationBatch inner(flows_);
      id = flows_.startFlow(a, b, 1'000'000);
      // Mid-batch the flow is registered but not yet rated.
      EXPECT_TRUE(flows_.flowActive(id));
      EXPECT_DOUBLE_EQ(flows_.flowRateBps(id), 0.0);
    }
    // The inner commit is not enough; the dirty set drains only when the
    // outermost batch closes.
    EXPECT_DOUBLE_EQ(flows_.flowRateBps(id), 0.0);
  }
  EXPECT_NEAR(flows_.flowRateBps(id), 8e6, 1.0);
  sim_.run();
  EXPECT_EQ(flows_.bytesDownloaded(b), 1'000'000u);
}

TEST_F(FlowBatchTest, ObserverMayStartFailoverFlowsDuringTheDropBatch) {
  // Mirrors TransferManager: onFlowAborted immediately re-requests the
  // remaining bytes from a backup source. The replacement startFlow joins
  // the drop's open batch and still settles correctly at commit.
  const EndpointId provider = endpoint(0);
  const EndpointId backup = endpoint(1);
  const EndpointId client = endpoint(2);

  struct Failover final : FlowObserver {
    FlowNetwork& flows;
    EndpointId backup;
    EndpointId client;
    FlowId replacement;
    explicit Failover(FlowNetwork& f, EndpointId b, EndpointId c)
        : flows(f), backup(b), client(c) {
      flows.addObserver(this);
    }
    ~Failover() override { flows.removeObserver(this); }
    void onFlowAborted(FlowId, std::uint64_t bytesDone,
                       const sim::EventTag&) override {
      replacement =
          flows.startFlow(backup, client, 1'000'000 - bytesDone);
    }
  } failover(flows_, backup, client);

  flows_.startFlow(provider, client, 1'000'000);
  sim_.schedule(sim::fromSeconds(0.25),
                [&] { flows_.dropEndpointFlows(provider); });
  sim_.run();
  ASSERT_TRUE(failover.replacement.valid());
  EXPECT_FALSE(flows_.flowActive(failover.replacement));  // it completed
  // 250 KB from the provider before the drop, the remainder from backup.
  EXPECT_NEAR(static_cast<double>(flows_.bytesUploaded(backup)), 750'000.0,
              1000.0);
  EXPECT_NEAR(static_cast<double>(flows_.bytesDownloaded(client)), 750'000.0,
              1000.0);
}

TEST_F(FlowBatchTest, ReRatingAtASharedOriginBuildsOneClosurePerFlow) {
  // Every upload at the 5 Mbit/s origin is bound by its share, so all sit
  // in the origin's upload group. A start changes that share: one re-time,
  // which moves the group's queued completion in place. Each completion
  // fires the group's event and schedules the next head's afresh, so the
  // kFlow factory builds one closure per flow, not one per re-time.
  struct CountingFactory final : sim::EventFactory {
    explicit CountingFactory(sim::EventFactory& inner) : inner(inner) {}
    [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override {
      ++rebuilds;
      return inner.rebuild(tag);
    }
    sim::EventFactory& inner;
    std::uint64_t rebuilds = 0;
  } counting(*sim_.factory(sim::Component::kFlow));
  sim_.registerFactory(sim::Component::kFlow, &counting);

  const EndpointId origin = endpoint(0, 5e6, 5e6);
  constexpr std::uint32_t kUploads = 12;
  std::vector<FlowId> uploads;
  const std::uint64_t before = flows_.rateRecomputations();
  for (std::uint32_t i = 1; i <= kUploads; ++i) {
    uploads.push_back(flows_.startFlow(origin, endpoint(i), 2'000'000));
    ASSERT_TRUE(uploads.back().valid());
  }
  // One re-time per start; the first built the group's closure.
  EXPECT_EQ(flows_.rateRecomputations() - before, std::uint64_t{kUploads});
  EXPECT_EQ(counting.rebuilds, 1u);
  EXPECT_EQ(sim_.pendingEvents(), 1u);

  // Every upload still completes with all of its bytes.
  sim_.run();
  EXPECT_EQ(counting.rebuilds, std::uint64_t{kUploads});
  EXPECT_EQ(flows_.activeFlows(), 0u);
  EXPECT_EQ(flows_.bytesUploaded(origin), std::uint64_t{kUploads} * 2'000'000);
  sim_.registerFactory(sim::Component::kFlow, &counting.inner);
}

TEST_F(FlowBatchTest, StartOrFinishAtAnUploaderRetimesOneEvent) {
  // N equal flows at a 4 Mbit/s uploader, each to its own 8 Mbit/s
  // downloader: all are bound by the uploader's share and share one group.
  // A start or a finish there changes that share and re-times the group's
  // one event; the downloaders' groups hold no member and re-time nothing.
  const EndpointId uploader = endpoint(0, 4e6, 4e6);
  constexpr std::uint32_t kFlows = 8;
  for (std::uint32_t i = 1; i <= kFlows; ++i) {
    ASSERT_TRUE(flows_.startFlow(uploader, endpoint(i), 1'000'000).valid());
  }
  ASSERT_EQ(sim_.pendingEvents(), 1u);
  std::uint64_t before = flows_.rateRecomputations();
  ASSERT_TRUE(
      flows_.startFlow(uploader, endpoint(kFlows + 1), 1'000'000).valid());
  EXPECT_EQ(flows_.rateRecomputations() - before, 1u);
  EXPECT_EQ(sim_.pendingEvents(), 1u);

  before = flows_.rateRecomputations();
  ASSERT_TRUE(sim_.step());  // the head's completion
  EXPECT_EQ(flows_.activeFlows(), std::size_t{kFlows});
  EXPECT_EQ(flows_.rateRecomputations() - before, 1u);
  EXPECT_EQ(sim_.pendingEvents(), 1u);
}

// One flow S -> D, 1 MB. It starts alone, bound by S's 4 Mbit/s uplink (its
// source's group). At 0.5 s two more downloads into D cut D's 8 Mbit/s
// downlink to 8/3 Mbit/s per flow, so it flips into D's group; at 1.0 s
// they are cancelled and it flips back. Analytically: 2 Mbit by 0.5 s,
// 4/3 Mbit more by 1.0 s, the remaining 14/3 Mbit at 4 Mbit/s, done at
// 13/6 s.
class FlowFlipTest : public ::testing::Test {
 protected:
  FlowFlipTest() : flows_(sim_) { addEndpoints(flows_); }

  static void addEndpoints(FlowNetwork& flows) {
    flows.addEndpoint(kSource, {4e6, 8e6});
    flows.addEndpoint(kDest, {8e6, 8e6});
    flows.addEndpoint(kOther1, {8e6, 8e6});
    flows.addEndpoint(kOther2, {8e6, 8e6});
  }

  // Runs to 0.5 s and starts the two competing downloads.
  void flipToTheDestination() {
    flow_ = flows_.startFlow(kSource, kDest, 1'000'000);
    EXPECT_NEAR(flows_.flowRateBps(flow_), 4e6, 1e-6);
    sim_.runUntil(sim::fromSeconds(0.5));
    other1_ = flows_.startFlow(kOther1, kDest, 10'000'000);
    other2_ = flows_.startFlow(kOther2, kDest, 10'000'000);
    EXPECT_NEAR(flows_.flowRateBps(flow_), 8e6 / 3, 1e-6);
  }

  // Runs `sim` to 1.0 s, cancels the competitors, and runs `flows`' flow to
  // completion; returns its finish time.
  sim::SimTime flipBackAndFinish(sim::Simulator& sim, FlowNetwork& flows) {
    test::TestFlowObserver observer(flows);
    sim::SimTime finished = -1;
    observer.onComplete(flow_, [&] { finished = sim.now(); });
    sim.runUntil(sim::fromSeconds(1.0));
    flows.cancelFlow(other1_);
    flows.cancelFlow(other2_);
    EXPECT_NEAR(flows.flowRateBps(flow_), 4e6, 1e-6);
    sim.run();
    return finished;
  }

  static constexpr EndpointId kSource{0};
  static constexpr EndpointId kDest{1};
  static constexpr EndpointId kOther1{2};
  static constexpr EndpointId kOther2{3};
  sim::Simulator sim_;
  FlowNetwork flows_;
  FlowId flow_;
  FlowId other1_;
  FlowId other2_;
};

TEST_F(FlowFlipTest, FlipToTheDestinationAndBackMatchesTheAnalyticTime) {
  flipToTheDestination();
  const sim::SimTime finished = flipBackAndFinish(sim_, flows_);
  EXPECT_LE(std::abs(finished - sim::fromSeconds(13.0 / 6.0)),
            sim::kMicrosecond);
  EXPECT_EQ(flows_.bytesDownloaded(kDest), 1'000'000u);
}

TEST_F(FlowFlipTest, SaveRightAfterAFlipRestoresAndResavesIdentically) {
  flipToTheDestination();
  std::string error;
  snapshot::Writer saved;
  ASSERT_TRUE(flows_.saveState(saved, &error)) << error;
  ASSERT_TRUE(sim_.saveState(saved, &error)) << error;

  sim::Simulator sim;
  FlowNetwork flows(sim);
  addEndpoints(flows);
  snapshot::Reader r = st::testing::readerOf(saved);
  ASSERT_TRUE(flows.loadState(r)) << r.error();
  ASSERT_TRUE(sim.loadState(r)) << r.error();
  snapshot::Writer resaved;
  ASSERT_TRUE(flows.saveState(resaved, &error)) << error;
  ASSERT_TRUE(sim.saveState(resaved, &error)) << error;
  EXPECT_EQ(saved.body(), resaved.body());

  // The restored network finishes the flow at the very same microsecond.
  EXPECT_EQ(flipBackAndFinish(sim, flows), flipBackAndFinish(sim_, flows_));
}

// A snapshot holds no membership list; restore rebuilds them (DESIGN.md
// §12). This network fills the two kinds of list whose order is not join
// order: two prefetches at a 3 Mbit/s origin are paused in the reverse of
// their activation order (the floor's victim is the most recently
// activated), and two flows wait behind a source's single upload slot.
class FlowRestoreTest : public ::testing::Test {
 protected:
  FlowRestoreTest() : flows_(sim_) { configure(flows_); }

  static void configure(FlowNetwork& flows) {
    flows.addEndpoint(kOrigin, {3e6, 8e6});
    flows.addEndpoint(kSlotted, {2e6, 8e6});
    for (std::uint32_t i = 2; i < 9; ++i) {
      flows.addEndpoint(client(i), {8e6, 8e6});
    }
    flows.setPlaybackFloor(1.2e6);
    flows.setUploadConcurrencyLimit(kSlotted, 1);
  }
  static EndpointId client(std::uint32_t i) { return EndpointId{i}; }

  // Flow ids in completion order with their times, and the paused
  // prefetches in the order they resumed.
  struct Replay final : FlowObserver {
    Replay(sim::Simulator& sim, FlowNetwork& flows, std::vector<FlowId> paused)
        : sim(sim), flows(flows), paused(std::move(paused)) {
      flows.addObserver(this);
    }
    ~Replay() override { flows.removeObserver(this); }
    void onFlowCompleted(FlowId id) override {
      completions.emplace_back(sim.now(), id.value());
      for (FlowId& flow : paused) {
        if (flow.valid() && !flows.flowPaused(flow)) {
          resumes.push_back(flow.value());
          flow = FlowId::invalid();
        }
      }
    }
    sim::Simulator& sim;
    FlowNetwork& flows;
    std::vector<FlowId> paused;
    std::vector<std::pair<sim::SimTime, std::uint32_t>> completions;
    std::vector<std::uint32_t> resumes;
  };

  static constexpr EndpointId kOrigin{0};
  static constexpr EndpointId kSlotted{1};
  sim::Simulator sim_;
  FlowNetwork flows_;
};

TEST_F(FlowRestoreTest, PausedAndQueuedFlowsKeepTheirOrderAcrossARestore) {
  FlowOptions prefetch;
  prefetch.flowClass = FlowClass::kPrefetch;
  const FlowId first = flows_.startFlow(kOrigin, client(2), 400'000, prefetch);
  const FlowId second = flows_.startFlow(kOrigin, client(3), 400'000, prefetch);
  // Each playback start drops the origin's share below the floor once.
  flows_.startFlow(kOrigin, client(4), 100'000);
  EXPECT_TRUE(flows_.flowPaused(second));
  flows_.startFlow(kOrigin, client(5), 200'000);
  EXPECT_TRUE(flows_.flowPaused(first));
  flows_.startFlow(kSlotted, client(6), 300'000);
  flows_.startFlow(kSlotted, client(7), 100'000);
  flows_.startFlow(kSlotted, client(8), 200'000);
  EXPECT_EQ(flows_.queuedUploads(kSlotted), 2u);
  sim_.runUntil(sim::fromSeconds(0.2));

  std::string error;
  snapshot::Writer saved;
  ASSERT_TRUE(flows_.saveState(saved, &error)) << error;
  ASSERT_TRUE(sim_.saveState(saved, &error)) << error;
  sim::Simulator sim;
  FlowNetwork flows(sim);
  configure(flows);
  snapshot::Reader r = st::testing::readerOf(saved);
  ASSERT_TRUE(flows.loadState(r)) << r.error();
  ASSERT_TRUE(sim.loadState(r)) << r.error();
  snapshot::Writer resaved;
  ASSERT_TRUE(flows.saveState(resaved, &error)) << error;
  ASSERT_TRUE(sim.saveState(resaved, &error)) << error;
  EXPECT_EQ(saved.body(), resaved.body());

  Replay original(sim_, flows_, {first, second});
  Replay restored(sim, flows, {first, second});
  sim_.run();
  sim.run();
  // Paused first, resumed first: FIFO within the prefetch class.
  EXPECT_EQ(original.resumes,
            (std::vector<std::uint32_t>{second.value(), first.value()}));
  EXPECT_EQ(restored.resumes, original.resumes);
  EXPECT_EQ(original.completions.size(), 7u);
  EXPECT_EQ(restored.completions, original.completions);
}

}  // namespace
}  // namespace st::net
