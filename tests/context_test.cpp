// SystemContext semantics: endpoint wiring, the server's stream limit,
// online gating of message delivery, and server round-trip behaviour.
#include "vod/context.h"

#include <gtest/gtest.h>

#include "harness.h"
#include "message_probe.h"

namespace st::vod {
namespace {

using st::testing::MessageProbe;
using st::testing::Stack;
using st::testing::miniCatalog;

constexpr UserId kAlice{0};
constexpr UserId kBob{1};

class ContextTest : public ::testing::Test {
 protected:
  ContextTest() : stack_(miniCatalog(4, 1, 1, 3)) {}
  Stack stack_;
};

TEST_F(ContextTest, EndpointsAreDenseWithServerLast) {
  EXPECT_EQ(stack_.ctx().endpointOf(kAlice), EndpointId{0});
  EXPECT_EQ(stack_.ctx().serverEndpoint(), EndpointId{4});
  EXPECT_TRUE(stack_.network().flows().hasEndpoint(EndpointId{4}));
}

TEST_F(ContextTest, ServerGetsConcurrencyLimitFromConfig) {
  // An uplink of 3 bitrates admits 2 * 3 = 6 concurrent streams; further
  // server uploads queue FIFO until a slot frees.
  VodConfig config;
  config.serverUploadBps = 3.0 * config.bitrateBps;
  Stack stack(miniCatalog(4, 1, 1, 3), config);
  net::FlowNetwork& flows = stack.network().flows();
  const EndpointId server = stack.ctx().serverEndpoint();
  for (std::uint32_t i = 0; i < 9; ++i) {
    flows.startFlow(server, stack.ctx().endpointOf(UserId{i % 4}), 1'000'000);
  }
  EXPECT_EQ(flows.activeUploads(server), 6u);
  EXPECT_EQ(flows.queuedUploads(server), 3u);
}

TEST_F(ContextTest, OnlineFlagGatesDelivery) {
  MessageProbe probe(stack_.sim(), &stack_.ctx());
  stack_.ctx().setOnline(kAlice, true);
  stack_.ctx().setOnline(kBob, true);
  stack_.ctx().sendUser(kAlice, kBob, MessageProbe::message(1));
  stack_.sim().run();
  EXPECT_EQ(probe.delivered.size(), 1u);

  stack_.ctx().setOnline(kBob, false);
  stack_.ctx().sendUser(kAlice, kBob, MessageProbe::message(2));
  stack_.sim().run();
  EXPECT_EQ(probe.delivered.size(), 1u);  // dropped: receiver offline
}

TEST_F(ContextTest, ReceiverGoingOfflineMidFlightDropsMessage) {
  MessageProbe probe(stack_.sim(), &stack_.ctx());
  stack_.ctx().setOnline(kAlice, true);
  stack_.ctx().setOnline(kBob, true);
  stack_.ctx().sendUser(kAlice, kBob, MessageProbe::message(1));
  // Bob logs off before the (>= 1 ms) latency elapses.
  stack_.ctx().setOnline(kBob, false);
  stack_.sim().run();
  EXPECT_TRUE(probe.delivered.empty());
}

TEST_F(ContextTest, ServerRoundTripIncursLatencyAndProcessing) {
  MessageProbe probe(stack_.sim(), &stack_.ctx());
  probe.onDeliver = [&](std::uint64_t id) {
    if (id == 1) stack_.ctx().sendFromServer(kAlice, MessageProbe::message(2));
  };
  stack_.ctx().setOnline(kAlice, true);
  stack_.ctx().sendToServer(kAlice, MessageProbe::message(1));
  stack_.sim().run();
  ASSERT_EQ(probe.delivered.size(), 2u);
  const sim::SimTime atServer = probe.delivered[0].at;
  const sim::SimTime atUser = probe.delivered[1].at;
  EXPECT_GT(atServer, stack_.config().serverProcessing);  // + latency
  EXPECT_GT(atUser, atServer);                            // reply latency
}

TEST_F(ContextTest, ServerNeverChurns) {
  // sendToServer runs even when every user is offline (the server is not a
  // user); only the reply is gated.
  MessageProbe probe(stack_.sim(), &stack_.ctx());
  probe.onDeliver = [&](std::uint64_t id) {
    if (id == 1) stack_.ctx().sendFromServer(kAlice, MessageProbe::message(2));
  };
  stack_.ctx().sendToServer(kAlice, MessageProbe::message(1));
  stack_.sim().run();
  ASSERT_EQ(probe.delivered.size(), 1u);
  EXPECT_EQ(probe.delivered[0].id, 1u);  // Alice offline: reply dropped
}

TEST_F(ContextTest, OnlineCountTracksFlags) {
  EXPECT_EQ(stack_.ctx().onlineCount(), 0u);
  stack_.ctx().setOnline(kAlice, true);
  stack_.ctx().setOnline(kBob, true);
  EXPECT_EQ(stack_.ctx().onlineCount(), 2u);
  stack_.ctx().setOnline(kAlice, false);
  EXPECT_EQ(stack_.ctx().onlineCount(), 1u);
}

}  // namespace
}  // namespace st::vod
