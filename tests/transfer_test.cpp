#include "vod/transfer.h"

#include <gtest/gtest.h>

#include "harness.h"

namespace st::vod {
namespace {

using st::testing::Stack;
using st::testing::miniCatalog;

constexpr UserId kAlice{0};
constexpr UserId kBob{1};
constexpr VideoId kVideo{0};

class TransferTest : public ::testing::Test {
 protected:
  TransferTest() : stack_(miniCatalog(4, 1, 1, 3)) {
    for (std::uint32_t u = 0; u < 4; ++u) {
      stack_.ctx().setOnline(UserId{u}, true);
    }
  }

  Stack stack_;
};

TEST_F(TransferTest, ServerWatchDeliversPlaybackThenBody) {
  stack_.transfers().startWatch({
      .user = kAlice,
      .video = kVideo,
      .provider = UserId::invalid(),
      .firstChunkCached = false,
      .extraProviders = {},
      .requestTime = 0,
  });
  stack_.sim().run();
  auto& client = stack_.client();
  ASSERT_EQ(client.playbacks.size(), 1u);
  EXPECT_FALSE(client.playbacks[0].timedOut);
  EXPECT_GT(client.playbacks[0].delay, 0);
  ASSERT_EQ(client.finishes.size(), 1u);
  EXPECT_TRUE(client.finishes[0].complete);
  // All 20 chunks credited to the server.
  EXPECT_EQ(stack_.metrics().serverChunks(kAlice), 20u);
  EXPECT_EQ(stack_.metrics().peerChunks(kAlice), 0u);
}

TEST_F(TransferTest, PeerWatchCreditsPeer) {
  stack_.transfers().startWatch({
      .user = kAlice,
      .video = kVideo,
      .provider = kBob,
      .firstChunkCached = false,
      .extraProviders = {},
      .requestTime = 0,
  });
  stack_.sim().run();
  ASSERT_EQ(stack_.client().finishes.size(), 1u);
  EXPECT_TRUE(stack_.client().finishes[0].complete);
  EXPECT_EQ(stack_.metrics().peerChunks(kAlice), 20u);
  EXPECT_EQ(stack_.metrics().serverChunks(kAlice), 0u);
}

TEST_F(TransferTest, PlaybackDelayEqualsFirstChunkTime) {
  // First chunk = total/20; at min(peer up 1 Mbps, down 4 Mbps) = 1 Mbps.
  const VideoAsset& asset = stack_.library().asset(kVideo);
  stack_.transfers().startWatch({
      .user = kAlice,
      .video = kVideo,
      .provider = kBob,
      .firstChunkCached = false,
      .extraProviders = {},
      .requestTime = 0,
  });
  stack_.sim().run();
  ASSERT_EQ(stack_.client().playbacks.size(), 1u);
  const double expectedSeconds =
      static_cast<double>(asset.chunkBytes) * 8.0 / 1e6;
  EXPECT_NEAR(sim::toSeconds(stack_.client().playbacks[0].delay),
              expectedSeconds, 0.01);
}

TEST_F(TransferTest, PrefetchHitStartsPlaybackImmediately) {
  stack_.transfers().startWatch({
      .user = kAlice,
      .video = kVideo,
      .provider = kBob,
      .firstChunkCached = true,
      .extraProviders = {},
      .requestTime = stack_.sim().now(),
  });
  // Playback reports synchronously inside startWatch.
  ASSERT_EQ(stack_.client().playbacks.size(), 1u);
  EXPECT_EQ(stack_.client().playbacks[0].delay, 0);
  EXPECT_FALSE(stack_.client().playbacks[0].timedOut);
  stack_.sim().run();
  // Only the body (19 chunks) transferred.
  EXPECT_EQ(stack_.metrics().peerChunks(kAlice), 19u);
}

TEST_F(TransferTest, ProviderChurnFailsOverToServerWithSplitCredit) {
  stack_.transfers().startWatch({
      .user = kAlice,
      .video = kVideo,
      .provider = kBob,
      .firstChunkCached = false,
      .extraProviders = {},
      .requestTime = 0,
  });
  // Bob leaves mid-body: after ~3 s, the first chunk (0.5 s at 1 Mbps) is
  // done and part of the body has flowed.
  stack_.sim().schedule(3 * sim::kSecond, [&] {
    stack_.ctx().setOnline(kBob, false);
    stack_.transfers().onUserOffline(kBob);
  });
  stack_.sim().run();
  ASSERT_EQ(stack_.client().finishes.size(), 1u);
  EXPECT_TRUE(stack_.client().finishes[0].complete);
  const std::uint64_t peer = stack_.metrics().peerChunks(kAlice);
  const std::uint64_t server = stack_.metrics().serverChunks(kAlice);
  EXPECT_EQ(peer + server, 20u);
  EXPECT_GT(peer, 0u);    // chunks delivered before the churn stay credited
  EXPECT_GT(server, 0u);  // the server finished the job
}

TEST_F(TransferTest, FirstChunkTimeoutAbandonsWatch) {
  VodConfig config;
  config.firstChunkTimeout = 100 * sim::kMillisecond;  // very impatient
  // Give the server a uselessly slow uplink so the chunk cannot make it.
  config.serverUploadBps = 100.0;
  Stack stack(miniCatalog(2, 1, 1, 2), config);
  stack.ctx().setOnline(kAlice, true);
  stack.transfers().startWatch({
      .user = kAlice,
      .video = kVideo,
      .provider = UserId::invalid(),
      .firstChunkCached = false,
      .extraProviders = {},
      .requestTime = 0,
  });
  stack.sim().run();
  ASSERT_EQ(stack.client().playbacks.size(), 1u);
  EXPECT_TRUE(stack.client().playbacks[0].timedOut);
  ASSERT_EQ(stack.client().finishes.size(), 1u);
  EXPECT_FALSE(stack.client().finishes[0].complete);
  EXPECT_EQ(stack.transfers().activeWatches(), 0u);
}

TEST_F(TransferTest, UserOfflineKillsOwnWatchSilently) {
  stack_.transfers().startWatch({
      .user = kAlice,
      .video = kVideo,
      .provider = kBob,
      .firstChunkCached = false,
      .extraProviders = {},
      .requestTime = 0,
  });
  stack_.sim().schedule(10 * sim::kMillisecond, [&] {
    stack_.ctx().setOnline(kAlice, false);
    stack_.transfers().onUserOffline(kAlice);
  });
  stack_.sim().run();
  EXPECT_TRUE(stack_.client().playbacks.empty());
  EXPECT_TRUE(stack_.client().finishes.empty());
  EXPECT_EQ(stack_.transfers().activeWatches(), 0u);
  EXPECT_EQ(stack_.network().flows().activeFlows(), 0u);
}

TEST_F(TransferTest, DemotedWatchStillCompletesInBackground) {
  stack_.transfers().startWatch({
      .user = kAlice,
      .video = kVideo,
      .provider = kBob,
      .firstChunkCached = false,
      .extraProviders = {},
      .requestTime = 0,
  });
  // A second watch starts while the first body is still flowing.
  stack_.sim().schedule(2 * sim::kSecond, [&] {
    stack_.transfers().startWatch({
        .user = kAlice,
        .video = VideoId{1},
        .provider = kBob,
        .firstChunkCached = false,
        .extraProviders = {},
        .requestTime = stack_.sim().now(),
    });
  });
  stack_.sim().run();
  int completeCount = 0;
  for (const auto& finish : stack_.client().finishes) {
    completeCount += finish.complete ? 1 : 0;
  }
  EXPECT_EQ(completeCount, 2);  // both videos fully downloaded
  EXPECT_EQ(stack_.metrics().peerChunks(kAlice), 40u);
}

TEST_F(TransferTest, PrefetchDeliversOneChunk) {
  stack_.transfers().startPrefetch(kAlice, kVideo, kBob);
  stack_.sim().run();
  ASSERT_EQ(stack_.client().prefetches.size(), 1u);
  EXPECT_TRUE(stack_.client().prefetches[0].fromPeer);
  EXPECT_EQ(stack_.client().prefetches[0].video, kVideo);
  EXPECT_EQ(stack_.metrics().peerChunks(kAlice), 1u);
  EXPECT_EQ(stack_.metrics().value("prefetch_issued"), 1u);
}

TEST_F(TransferTest, PrefetchFromServerCreditsServer) {
  stack_.transfers().startPrefetch(kAlice, kVideo, UserId::invalid());
  stack_.sim().run();
  ASSERT_EQ(stack_.client().prefetches.size(), 1u);
  EXPECT_FALSE(stack_.client().prefetches[0].fromPeer);
  EXPECT_EQ(stack_.metrics().serverChunks(kAlice), 1u);
}

TEST_F(TransferTest, PrefetchProviderChurnDropsSilently) {
  stack_.transfers().startPrefetch(kAlice, kVideo, kBob);
  stack_.sim().schedule(sim::kMillisecond, [&] {
    stack_.ctx().setOnline(kBob, false);
    stack_.transfers().onUserOffline(kBob);
  });
  stack_.sim().run();
  EXPECT_TRUE(stack_.client().prefetches.empty());
  EXPECT_EQ(stack_.transfers().activePrefetches(), 0u);
}

TEST_F(TransferTest, SingleChunkVideoFinishesAtPlayback) {
  VodConfig config;
  config.chunksPerVideo = 1;
  Stack stack(miniCatalog(2, 1, 1, 2), config);
  stack.ctx().setOnline(kAlice, true);
  stack.ctx().setOnline(kBob, true);
  stack.transfers().startWatch({
      .user = kAlice,
      .video = kVideo,
      .provider = kBob,
      .firstChunkCached = false,
      .extraProviders = {},
      .requestTime = 0,
  });
  stack.sim().run();
  ASSERT_EQ(stack.client().finishes.size(), 1u);
  EXPECT_TRUE(stack.client().finishes[0].complete);
  EXPECT_EQ(stack.metrics().peerChunks(kAlice), 1u);
}

}  // namespace
}  // namespace st::vod
