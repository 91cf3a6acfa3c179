#include "vod/selector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "harness.h"
#include "trace/generator.h"

namespace st::vod {
namespace {

using st::testing::miniCatalog;

trace::Catalog bigCatalog(std::uint64_t seed = 1) {
  trace::GeneratorParams params;
  params.seed = seed;
  params.numUsers = 400;
  params.numChannels = 40;
  params.numVideos = 1'200;
  return trace::generateTrace(params);
}

TEST(Selector, FirstVideoComesFromSubscribedChannelUsually) {
  const trace::Catalog catalog = bigCatalog();
  VodConfig config;
  VideoSelector selector(catalog, config, 1);
  std::size_t fromSubscription = 0;
  std::size_t total = 0;
  for (std::uint32_t u = 0; u < 400; ++u) {
    const UserId user{u};
    if (catalog.user(user).subscriptions.empty()) continue;
    const VideoId video = selector.firstVideo(user);
    ++total;
    if (catalog.isSubscribed(user, catalog.video(video).channel)) {
      ++fromSubscription;
    }
  }
  ASSERT_GT(total, 100u);
  EXPECT_EQ(fromSubscription, total);  // always from a subscription when any
}

TEST(Selector, NextVideoFollows751510Rule) {
  const trace::Catalog catalog = bigCatalog();
  VodConfig config;
  VideoSelector selector(catalog, config, 2);
  std::size_t sameChannel = 0;
  std::size_t sameCategory = 0;
  std::size_t different = 0;
  std::size_t total = 0;
  for (std::uint32_t u = 0; u < 400; ++u) {
    const UserId user{u};
    VideoId current = selector.firstVideo(user);
    for (int i = 0; i < 25; ++i) {
      const VideoId next = selector.nextVideo(user, current);
      const trace::Video& a = catalog.video(current);
      const trace::Video& b = catalog.video(next);
      ++total;
      if (a.channel == b.channel) {
        ++sameChannel;
      } else if (catalog.channel(a.channel).primaryCategory() ==
                 catalog.channel(b.channel).primaryCategory()) {
        ++sameCategory;
      } else {
        ++different;
      }
      current = next;
    }
  }
  const double n = static_cast<double>(total);
  EXPECT_NEAR(sameChannel / n, 0.75, 0.05);
  // Same-category includes some "different category" rolls that landed in
  // the same category by chance, so the band is loose.
  EXPECT_NEAR(sameCategory / n, 0.15, 0.08);
  EXPECT_GT(different / n, 0.02);
}

TEST(Selector, PopularVideosSelectedMoreOften) {
  // One channel, fixed rank order: rank 0 should be picked far more often
  // than the last rank (Zipf weighting).
  const trace::Catalog catalog = miniCatalog(50, 1, 1, 20);
  VodConfig config;
  VideoSelector selector(catalog, config, 3);
  std::map<std::uint32_t, int> countsByRank;
  for (std::uint32_t u = 0; u < 50; ++u) {
    // Fresh users each time: first pick is unconstrained by rewatch memory.
    const VideoId video = selector.firstVideo(UserId{u});
    ++countsByRank[catalog.video(video).rankInChannel];
  }
  EXPECT_GT(countsByRank[0], countsByRank[19]);
}

TEST(Selector, AvoidsRewatchingWithinBudget) {
  const trace::Catalog catalog = miniCatalog(4, 1, 1, 30);
  VodConfig config;
  VideoSelector selector(catalog, config, 4);
  const UserId user{0};
  std::set<VideoId> seen;
  VideoId current = selector.firstVideo(user);
  seen.insert(current);
  int rewatches = 0;
  for (int i = 0; i < 15; ++i) {
    current = selector.nextVideo(user, current);
    if (!seen.insert(current).second) ++rewatches;
  }
  // 16 picks from 30 videos: the rewatch-avoidance resampling should keep
  // repeats rare.
  EXPECT_LE(rewatches, 3);
}

TEST(Selector, PerUserStreamsAreIndependentOfCallOrder) {
  // The same user's k-th selection must be identical regardless of how
  // other users' selections interleave — the cross-system pairing property.
  const trace::Catalog catalog = bigCatalog();
  VodConfig config;
  VideoSelector a(catalog, config, 7);
  VideoSelector b(catalog, config, 7);

  const UserId u1{10};
  const UserId u2{20};
  // Order A: u1 then u2 strictly alternating.
  std::vector<VideoId> u1SeqA;
  VideoId c1 = a.firstVideo(u1);
  VideoId c2 = a.firstVideo(u2);
  for (int i = 0; i < 10; ++i) {
    c1 = a.nextVideo(u1, c1);
    u1SeqA.push_back(c1);
    c2 = a.nextVideo(u2, c2);
  }
  // Order B: u2 finishes everything first, then u1.
  std::vector<VideoId> u1SeqB;
  VideoId d2 = b.firstVideo(u2);
  for (int i = 0; i < 10; ++i) d2 = b.nextVideo(u2, d2);
  VideoId d1 = b.firstVideo(u1);
  for (int i = 0; i < 10; ++i) {
    d1 = b.nextVideo(u1, d1);
    u1SeqB.push_back(d1);
  }
  EXPECT_EQ(u1SeqA, u1SeqB);
}

TEST(Selector, DeterministicInSeed) {
  const trace::Catalog catalog = bigCatalog();
  VodConfig config;
  VideoSelector a(catalog, config, 9);
  VideoSelector b(catalog, config, 9);
  for (std::uint32_t u = 0; u < 50; ++u) {
    EXPECT_EQ(a.firstVideo(UserId{u}), b.firstVideo(UserId{u}));
  }
}

TEST(Selector, SingleCategoryCatalogNeverCrashes) {
  const trace::Catalog catalog = miniCatalog(10, 1, 2, 5);
  VodConfig config;
  VideoSelector selector(catalog, config, 11);
  const UserId user{0};
  VideoId current = selector.firstVideo(user);
  for (int i = 0; i < 50; ++i) {
    current = selector.nextVideo(user, current);
    ASSERT_TRUE(current.valid());
  }
}

// --- snapshot state ---------------------------------------------------------

// Every user's first pick plus `picks` more, with feed entries queued for
// every third user (one of them a video the user has already watched).
void warmUp(VideoSelector& selector, const trace::Catalog& catalog,
            std::vector<VideoId>& current, int picks) {
  current.resize(catalog.userCount());
  const auto videos = static_cast<std::uint32_t>(catalog.videoCount());
  for (std::uint32_t u = 0; u < catalog.userCount(); ++u) {
    const UserId user{u};
    current[u] = selector.firstVideo(user);
    for (int i = 0; i < picks; ++i) {
      current[u] = selector.nextVideo(user, current[u]);
    }
    if (u % 3 == 0) {
      selector.pushFeed(user, VideoId{(7 * u) % videos});
      selector.pushFeed(user, current[u]);
      selector.pushFeed(user, VideoId{(11 * u + 5) % videos});
    }
  }
}

std::vector<std::uint8_t> savedBytes(const VideoSelector& selector) {
  snapshot::Writer w;
  selector.saveState(w);
  return w.body();
}

TEST(SelectorSnapshot, RoundTripKeepsBytesAndNextPicks) {
  const trace::Catalog catalog = bigCatalog();
  VodConfig config;
  VideoSelector saved(catalog, config, 13);
  VideoSelector neverSaved(catalog, config, 13);
  std::vector<VideoId> current;
  std::vector<VideoId> twinCurrent;
  warmUp(saved, catalog, current, 20);
  warmUp(neverSaved, catalog, twinCurrent, 20);

  snapshot::Writer w;
  saved.saveState(w);
  snapshot::Reader r = st::testing::readerOf(w);
  VideoSelector restored(catalog, config, 99);  // state comes from the file
  ASSERT_TRUE(restored.loadState(r)) << r.error();
  EXPECT_EQ(savedBytes(restored), w.body());
  EXPECT_EQ(restored.feedWatches(), neverSaved.feedWatches());

  for (std::uint32_t u = 0; u < catalog.userCount(); ++u) {
    const UserId user{u};
    ASSERT_EQ(restored.pendingFeed(user), neverSaved.pendingFeed(user));
    for (int i = 0; i < 100; ++i) {
      current[u] = restored.nextVideo(user, current[u]);
      twinCurrent[u] = neverSaved.nextVideo(user, twinCurrent[u]);
      ASSERT_EQ(current[u], twinCurrent[u]) << "user " << u << ", pick " << i;
    }
  }
  EXPECT_EQ(restored.feedWatches(), neverSaved.feedWatches());
  EXPECT_EQ(savedBytes(restored), savedBytes(neverSaved));
}

// A valid save writes each watched list strictly ascending; the binary
// search relies on it, so the loader refuses any other order.
TEST(SelectorSnapshot, LoadRejectsUnorderedWatchedList) {
  const trace::Catalog catalog = miniCatalog(4, 1, 1, 30);
  VodConfig config;
  VideoSelector selector(catalog, config, 5);
  VideoId current = selector.firstVideo(UserId{0});
  for (int i = 0; i < 5; ++i) current = selector.nextVideo(UserId{0}, current);
  snapshot::Writer w;
  selector.saveState(w);
  // Section tag, user count, one RNG state per user, then user 0's watched
  // list: its count and its first two entries.
  const std::size_t list = 4 + 8 + catalog.userCount() * (4 * 8 + 8 + 1);
  std::vector<std::uint8_t> body = w.body();
  ASSERT_GE(body[list], 2u);
  const auto expectRefused = [&](const std::vector<std::uint8_t>& mutant) {
    snapshot::Writer copy;
    for (const std::uint8_t byte : mutant) copy.u8(byte);
    snapshot::Reader r = st::testing::readerOf(copy);
    VideoSelector fresh(catalog, config, 5);
    EXPECT_FALSE(fresh.loadState(r));
    EXPECT_EQ(r.error(), "selector watched list not ascending");
  };
  std::vector<std::uint8_t> swapped = body;  // descending pair
  std::swap_ranges(swapped.begin() + list + 8, swapped.begin() + list + 12,
                   swapped.begin() + list + 12);
  expectRefused(swapped);
  std::vector<std::uint8_t> repeated = body;  // duplicate pair
  std::copy(body.begin() + list + 8, body.begin() + list + 12,
            repeated.begin() + list + 12);
  expectRefused(repeated);
}

}  // namespace
}  // namespace st::vod
