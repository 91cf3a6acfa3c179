// A steady-state event allocates nothing (DESIGN.md §8): protocol closures
// fit sim::Callback's inline buffer, the slot arena and the heap keep their
// peak capacity, and a delivered message's stage guard holds its action
// inline. This executable replaces the global operator new to count heap
// allocations, warms each pattern up to its peak number of live events, and
// then requires zero allocations over further rounds of it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "harness.h"
#include "sim/event_tag.h"
#include "sim/simulator.h"
#include "vod/context.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded =
      (size + alignment) / alignment * alignment;  // > 0, a multiple
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace st::sim {
namespace {

// Heap allocations made while `fn` runs.
template <typename Fn>
std::uint64_t allocationsDuring(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Rebuilds each tag into a [this, tag] closure, the widest shape the
// protocols schedule (48 bytes), and counts what fires. With `rearm`, a
// fired event schedules its successor under the same tag: a chain per tag,
// like a protocol timer.
class CountingFactory final : public EventFactory {
 public:
  static constexpr Component kComponent = Component::kRunner;

  explicit CountingFactory(Simulator& sim, vod::SystemContext* ctx = nullptr)
      : sim_(sim), ctx_(ctx) {
    sim_.registerFactory(kComponent, this);
  }
  ~CountingFactory() override { sim_.registerFactory(kComponent, nullptr); }
  CountingFactory(const CountingFactory&) = delete;
  CountingFactory& operator=(const CountingFactory&) = delete;

  [[nodiscard]] Callback rebuild(const EventTag& tag) override {
    auto action = [this, tag] { fired(tag); };
    if (ctx_ == nullptr) return action;
    return ctx_->wrapStage(tag, std::move(action));
  }

  static EventTag tag(std::uint64_t value) {
    return makeTag(kComponent, /*kind=*/0, value);
  }

  bool rearm = false;
  std::uint64_t fires = 0;

 private:
  void fired(const EventTag& tag) {
    ++fires;
    if (rearm) sim_.scheduleTagged(1 + static_cast<SimTime>(tag.a % 7), tag);
  }

  Simulator& sim_;
  vod::SystemContext* ctx_;
};

TEST(EventAllocation, TaggedScheduleFireCycleAllocatesNothing) {
  Simulator sim;
  CountingFactory factory(sim);
  factory.rearm = true;
  for (std::uint64_t chain = 0; chain < 1000; ++chain) {
    sim.scheduleTagged(static_cast<SimTime>(chain % 13),
                       CountingFactory::tag(chain));
  }
  sim.runUntil(1000);  // warm-up: 1000 live events from here on
  const std::uint64_t warm = factory.fires;
  EXPECT_EQ(allocationsDuring([&] { sim.runUntil(sim.now() + 5'000); }), 0u);
  EXPECT_GT(factory.fires - warm, 1'000'000u);
}

TEST(EventAllocation, RetimeAndCancelAllocateNothing) {
  Simulator sim;
  CountingFactory factory(sim);
  std::vector<EventHandle> handles(512);
  // Each round arms 512 timers, moves each one (in place under the same
  // tag, afresh under a new one) and disarms it before it fires; a sentinel
  // bounds the round.
  const auto round = [&] {
    for (std::size_t i = 0; i < handles.size(); ++i) {
      handles[i] = sim.scheduleTagged(100 + static_cast<SimTime>(i),
                                      CountingFactory::tag(i));
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const EventTag tag = CountingFactory::tag(i % 2 == 0 ? i : i + 1);
      handles[i] =
          sim.retimeTagged(handles[i], 50 + static_cast<SimTime>(i), tag, 0);
    }
    for (const EventHandle handle : handles) sim.cancel(handle);
    sim.scheduleTagged(10, CountingFactory::tag(0));
    sim.runUntil(sim.now() + 10);
  };
  for (int i = 0; i < 4; ++i) round();  // warm-up: arena and heap at peak
  EXPECT_EQ(allocationsDuring([&] {
              for (int i = 0; i < 100; ++i) round();
            }),
            0u);
  EXPECT_EQ(factory.fires, 104u);  // the sentinels only
}

// Messages through SystemContext's delivery-stage guard: a user-to-user
// send and a server reply, each delivered to an online receiver.
TEST(EventAllocation, GuardedDeliveryAllocatesNothing) {
  testing::Stack stack(testing::miniCatalog(4, 1, 1, 2));
  vod::SystemContext& ctx = stack.ctx();
  CountingFactory factory(stack.sim(), &ctx);
  const UserId alice{0};
  const UserId bob{1};
  ctx.setOnline(alice, true);
  ctx.setOnline(bob, true);
  const auto round = [&] {
    for (std::uint64_t i = 0; i < 256; ++i) {
      ctx.sendUser(alice, bob, CountingFactory::tag(i));
      ctx.sendFromServer(bob, CountingFactory::tag(i));
    }
    stack.settle(sim::kSecond);
  };
  round();  // warm-up
  EXPECT_EQ(allocationsDuring([&] {
              for (int i = 0; i < 20; ++i) round();
            }),
            0u);
  EXPECT_EQ(factory.fires, 21u * 512u);
}

}  // namespace
}  // namespace st::sim
