// SlotPool ids and arena snapshots, and the SearchTable built on them.
#include "util/slot_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/simulator.h"
#include "snapshot/codec.h"
#include "vod/search_table.h"

namespace st {
namespace {

using Pool = SlotPool<std::uint32_t>;
constexpr std::uint32_t kNoFree = ~std::uint32_t{0};

using st::testing::readerOf;

void writeValue(snapshot::Writer& w, const std::uint32_t& value) {
  w.u32(value);
}
bool readValue(snapshot::Reader& r, std::uint32_t& value) {
  value = r.u32();
  return true;
}

TEST(SlotPool, StaleIdNeverFindsARecycledSlot) {
  Pool pool;
  const Pool::Id first = pool.insert(7);
  pool.erase(first);
  const Pool::Id second = pool.insert(8);  // reuses the freed slot
  EXPECT_NE(first, second);
  EXPECT_EQ(pool.find(first), nullptr);
  ASSERT_NE(pool.find(second), nullptr);
  EXPECT_EQ(*pool.find(second), 8u);
  EXPECT_EQ(pool.take(second), 8u);
  EXPECT_EQ(pool.find(second), nullptr);
  EXPECT_TRUE(pool.empty());
}

TEST(SlotPool, SaveLoadKeepsLiveIdsStaleIdsAndTheNextId) {
  Pool original;
  std::vector<Pool::Id> live;
  std::vector<Pool::Id> stale;
  for (std::uint32_t i = 0; i < 6; ++i) live.push_back(original.insert(i));
  for (const std::size_t at : {4u, 1u}) {
    original.erase(live[at]);
    stale.push_back(live[at]);
  }
  stale.push_back(live[2]);
  original.erase(live[2]);
  live.push_back(original.insert(100));  // recycles slot 2, a new generation
  std::erase_if(live,
                [&](Pool::Id id) { return original.find(id) == nullptr; });

  snapshot::Writer w;
  original.saveState(w, writeValue);
  snapshot::Reader r = readerOf(w);
  Pool restored;
  restored.insert(99);  // loading replaces whatever the pool held
  ASSERT_TRUE(restored.loadState(r, readValue)) << r.error();
  EXPECT_TRUE(r.ok() && r.atEnd());

  EXPECT_EQ(restored.size(), original.size());
  for (const Pool::Id id : live) {
    ASSERT_NE(restored.find(id), nullptr) << id;
    EXPECT_EQ(*restored.find(id), *original.find(id));
  }
  for (const Pool::Id id : stale) {
    EXPECT_EQ(restored.find(id), nullptr) << id;
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(restored.insert(200), original.insert(200)) << "insert " << i;
  }
}

// An arena of four slots: 0 and 2 live, 1 and 3 free. `head` and `links`
// (each slot's next-free word) are written as given, so a test can break
// the free list in one place.
struct Arena {
  std::uint32_t head = 1;
  std::uint32_t links[4] = {kNoFree, 3, kNoFree, kNoFree};
  bool rejectSlotTwo = false;
};

bool loadArena(const Arena& arena, Pool* pool, std::string* error) {
  snapshot::Writer w;
  w.u64(4);
  for (std::uint32_t slot = 0; slot < 4; ++slot) {
    const bool live = slot % 2 == 0;
    w.boolean(live);
    w.u32(1);  // generation
    w.u32(arena.links[slot]);
    if (live) w.u32(10 + slot);
  }
  w.u32(arena.head);
  snapshot::Reader r = readerOf(w);
  const bool ok =
      pool->loadState(r, [&](snapshot::Reader& in, std::uint32_t& value) {
        value = in.u32();
        if (arena.rejectSlotTwo && value == 12) {
          in.fail("value out of range");
          return false;
        }
        return true;
      });
  *error = r.error();
  return ok;
}

TEST(SlotPool, WellFormedArenaLoads) {
  Pool pool;
  std::string error;
  ASSERT_TRUE(loadArena(Arena{}, &pool, &error)) << error;
  EXPECT_EQ(pool.size(), 2u);
}

TEST(SlotPool, CorruptArenaFailsAndLeavesThePoolEmpty) {
  struct Case {
    const char* name;
    std::function<void(Arena&)> corrupt;
    const char* error;
  };
  const std::vector<Case> cases = {
      {"cycle", [](Arena& a) { a.links[3] = 1; }, "free list"},
      {"link to a live slot", [](Arena& a) { a.links[3] = 2; }, "free list"},
      {"out-of-range link", [](Arena& a) { a.links[3] = 9; }, "free list"},
      {"free slot missing", [](Arena& a) { a.links[1] = kNoFree; },
       "free list"},
      {"rejected record", [](Arena& a) { a.rejectSlotTwo = true; },
       "value out of range"},
  };
  for (const Case& c : cases) {
    Arena arena;
    c.corrupt(arena);
    Pool pool;
    const Pool::Id held = pool.insert(5);
    std::string error;
    EXPECT_FALSE(loadArena(arena, &pool, &error)) << c.name;
    EXPECT_NE(error.find(c.error), std::string::npos) << c.name << ": "
                                                      << error;
    EXPECT_TRUE(pool.empty()) << c.name;
    // `held` is also the rejected arena's slot-0 id: neither survives.
    EXPECT_EQ(pool.find(held), nullptr) << c.name;
  }
}

// --- SearchTable -------------------------------------------------------------

struct Search {
  UserId user;
  VideoId video;
  std::uint32_t extra = 0;
  sim::EventHandle deadline;
};
using Table = vod::SearchTable<Search>;

constexpr std::size_t kUsers = 4;
constexpr std::size_t kVideos = 8;

Search searchOf(std::uint32_t user, std::uint32_t video) {
  Search search;
  search.user = UserId{user};
  search.video = VideoId{video};
  return search;
}

TEST(SearchTable, AbandonCancelsTheDeadlineAndClearsTheInFlightId) {
  sim::Simulator sim;
  Table table(kUsers, kVideos);
  bool fired = false;
  const Table::Id id = table.start(searchOf(1, 3));
  table.find(id)->deadline = sim.schedule(10, [&] { fired = true; });
  table.abandon(UserId{1}, sim);
  EXPECT_EQ(table.find(id), nullptr);
  EXPECT_EQ(sim.pendingEvents(), 0u);
  sim.runUntil(100);
  EXPECT_FALSE(fired);
  // No search left in flight: a second abandon is a no-op, and a new
  // search for the user starts cleanly.
  table.abandon(UserId{1}, sim);
  EXPECT_NE(table.find(table.start(searchOf(1, 4))), nullptr);
}

TEST(SearchTable, TakeClearsTheInFlightId) {
  sim::Simulator sim;
  Table table(kUsers, kVideos);
  const Table::Id id = table.start(searchOf(2, 5));
  const Search search = table.take(id);
  EXPECT_EQ(search.user, UserId{2});
  EXPECT_EQ(search.video, VideoId{5});
  EXPECT_EQ(table.find(id), nullptr);
  // The user's next search must not be abandoned through a leftover id.
  const Table::Id next = table.start(searchOf(3, 6));
  table.abandon(UserId{2}, sim);
  EXPECT_NE(table.find(next), nullptr);
}

TEST(SearchTable, SeenMarksAndInFlightIdsSurviveASaveAndLoad) {
  sim::Simulator sim;
  Table original(kUsers, kVideos);
  const Table::Id a = original.start(searchOf(0, 1));
  const Table::Id b = original.start(searchOf(1, 2));
  original.find(b)->extra = 42;
  EXPECT_FALSE(original.seen(UserId{2}, a));
  EXPECT_FALSE(original.seen(UserId{3}, b));

  snapshot::Writer w;
  original.saveState(w, [](snapshot::Writer& out, const Search& search) {
    out.u32(search.extra);
  });
  snapshot::Reader r = readerOf(w);
  Table restored(kUsers, kVideos);
  ASSERT_TRUE(restored.loadState(r, "test",
                                 [](snapshot::Reader& in, Search& search) {
                                   search.extra = in.u32();
                                   return true;
                                 }))
      << r.error();
  EXPECT_TRUE(r.atEnd());
  EXPECT_TRUE(restored.seen(UserId{2}, a));
  EXPECT_TRUE(restored.seen(UserId{3}, b));
  EXPECT_FALSE(restored.seen(UserId{2}, b));
  ASSERT_NE(restored.find(b), nullptr);
  EXPECT_EQ(restored.find(b)->extra, 42u);
  EXPECT_EQ(restored.find(b)->video, VideoId{2});
  // The in-flight ids came along: abandoning user 0 frees search a.
  restored.abandon(UserId{0}, sim);
  EXPECT_EQ(restored.find(a), nullptr);
  EXPECT_NE(restored.find(b), nullptr);
}

TEST(SearchTable, OutOfRangeUserOrVideoFailsTheLoad) {
  for (const Search& bad : {searchOf(kUsers, 0), searchOf(0, kVideos)}) {
    Table original(kUsers + 1, kVideos + 1);
    original.start(bad);
    snapshot::Writer w;
    original.saveState(w, [](snapshot::Writer&, const Search&) {});
    snapshot::Reader r = readerOf(w);
    Table restored(kUsers, kVideos);
    // Sizes differ too, but the record is checked first.
    EXPECT_FALSE(restored.loadState(
        r, "test", [](snapshot::Reader&, Search&) { return true; }));
    EXPECT_NE(r.error().find("out of range"), std::string::npos) << r.error();
  }
}

}  // namespace
}  // namespace st
