// The deferred-batch mutation API: dirty-endpoint settlement at batch
// commit, the single-recompute guarantee for shared endpoints under
// dropEndpointFlows, deterministic observer ordering, and equivalence of
// batched and unbatched mutation sequences (bitwise-identical completion
// times — the incremental solver is an optimization, never a model change).
#include "net/flow_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flow_observer.h"
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
  // one destination that also downloads from a survivor. The eager solver
  // re-solved the shared destination after every removal; the batch drains
  // the dirty set once, so exactly one surviving flow is recomputed.
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
  // The only live flow touching a dirty endpoint is the survivor's; it is
  // settled and re-rated exactly once regardless of how many flows died.
  EXPECT_EQ(flows_.rateRecomputations() - before, 1u);
  EXPECT_EQ(observer_.aborts.size(), static_cast<std::size_t>(kFlows));
  EXPECT_NEAR(flows_.flowRateBps(kept), 8e6, 1.0);  // whole downlink now
  EXPECT_EQ(flows_.activeFlows(), 1u);
}

TEST_F(FlowBatchTest, SameInstantCompletionsFireInRescheduleOrder) {
  // DESIGN.md §12: the drain re-rates dirty endpoints in the order of
  // their last mark, as the eager solver's final refreshes did. Two equal
  // flows on disjoint pairs, started in one batch, finish in the same
  // microsecond; their completions then fire in stamp (reschedule) order:
  // the first flow's endpoints were marked first.
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
    void onFlowAborted(FlowId, std::uint64_t bytesDone) override {
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
  // Every start at the origin re-rates all of its uploads. The re-rate
  // moves each queued completion in place, so the kFlow factory builds one
  // closure per flow (its first schedule), not one per rate recomputation.
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
  // The i-th start re-rates all i uploads: 1 + 2 + ... + N recomputations.
  EXPECT_EQ(flows_.rateRecomputations() - before,
            std::uint64_t{kUploads} * (kUploads + 1) / 2);
  EXPECT_EQ(counting.rebuilds, std::uint64_t{kUploads});
  EXPECT_EQ(sim_.pendingEvents(), std::size_t{kUploads});

  // Each finish re-rates the survivors in place as well, and every upload
  // still completes with all of its bytes.
  sim_.run();
  EXPECT_EQ(counting.rebuilds, std::uint64_t{kUploads});
  EXPECT_EQ(flows_.activeFlows(), 0u);
  EXPECT_EQ(flows_.bytesUploaded(origin), std::uint64_t{kUploads} * 2'000'000);
  sim_.registerFactory(sim::Component::kFlow, &counting.inner);
}

}  // namespace
}  // namespace st::net
