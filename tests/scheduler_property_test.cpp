// Property test for the slotted scheduler: random schedule / cancel /
// re-time / periodic sequences are replayed against a naive reference model
// (a flat list of (when, stamp) records scanned linearly), and the firing
// order, owner keys, clock monotonicity and live-event accounting must
// agree exactly.
//
// The reference model encodes the scheduler's determinism contract:
//  * events fire in (when, stamp) order, the stamp being (source key,
//    per-key sequence) assigned per enqueue — including the re-enqueue of a
//    periodic series after each fire, which stamps from its owner key;
//  * cancel is exact and immediate (stale handles are no-ops);
//  * retimeTagged is cancel + a fresh tagged schedule from the current key
//    onto the given owner key, whichever way the simulator carries it out;
//  * the clock never moves backwards and equals the firing event's time.
//
// The community-plan variant spreads events over 9 keys on 4 shards, so a
// re-time from the root key meets live one-shots that keep their owner's
// shard (moved in place when the tag is unchanged, whatever shard the root
// key is on), ones moved to another shard's key (cancel + schedule),
// periodic series, and stale handles. The factory's rebuild count pins
// which of those built a closure.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace st::sim {
namespace {

// What fired, and under which owner key.
using Fired = std::pair<int, std::uint32_t>;

// Naive reference: O(n) scan for the minimum (when, stamp) live record.
class ReferenceScheduler {
 public:
  explicit ReferenceScheduler(std::uint32_t keyCount) : keySeq_(keyCount) {}

  // Stamps from `srcKey`, owned by `owner`. Returns a model id.
  std::size_t add(SimTime when, int tag, SimTime period, std::uint32_t srcKey,
                  std::uint32_t owner) {
    events_.push_back(
        Event{when, stamp(srcKey), period, tag, owner, /*alive=*/true});
    return events_.size() - 1;
  }

  // Stale cancels (fired one-shots, already-cancelled ids) are no-ops,
  // mirroring the generation-stamp semantics of the real scheduler.
  void cancel(std::size_t id) { events_[id].alive = false; }

  // Fires everything with when <= until, appending to `order`.
  void runUntil(SimTime until, std::vector<Fired>& order) {
    for (;;) {
      std::size_t best = events_.size();
      for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event& e = events_[i];
        if (!e.alive || e.when > until) continue;
        if (best == events_.size() || e.when < events_[best].when ||
            (e.when == events_[best].when && e.stamp < events_[best].stamp)) {
          best = i;
        }
      }
      if (best == events_.size()) break;
      Event& e = events_[best];
      order.emplace_back(e.tag, e.owner);
      now_ = e.when;
      if (e.period > 0) {
        // Periodic re-enqueue consumes a stamp at fire time, like the real
        // scheduler, so later same-time one-shots keep their FIFO place.
        e.stamp = stamp(e.owner);
        e.when += e.period;
      } else {
        e.alive = false;
      }
    }
    if (until > now_) now_ = until;
  }

  [[nodiscard]] std::size_t live() const {
    std::size_t n = 0;
    for (const Event& e : events_) n += e.alive ? 1 : 0;
    return n;
  }

  [[nodiscard]] std::size_t livePeriodic() const {
    std::size_t n = 0;
    for (const Event& e : events_) n += (e.alive && e.period > 0) ? 1 : 0;
    return n;
  }

  [[nodiscard]] bool alive(std::size_t id) const { return events_[id].alive; }
  [[nodiscard]] bool isPeriodic(std::size_t id) const {
    return events_[id].period > 0;
  }
  [[nodiscard]] std::uint32_t owner(std::size_t id) const {
    return events_[id].owner;
  }

 private:
  struct Event {
    SimTime when;
    std::pair<std::uint32_t, std::uint64_t> stamp;  // (key, per-key seq)
    SimTime period;
    int tag;
    std::uint32_t owner;
    bool alive;
  };

  std::pair<std::uint32_t, std::uint64_t> stamp(std::uint32_t key) {
    return {key, keySeq_[key]++};
  }

  std::vector<Event> events_;
  std::vector<std::uint64_t> keySeq_;
  SimTime now_ = 0;
};

// Everything a fired event reports into, shared by closures and the
// factory's tagged events.
struct Recorder {
  Simulator* sim = nullptr;
  std::vector<Fired> order;
  SimTime lastFireTime = 0;
  bool monotone = true;

  void record(int tag) {
    if (sim->now() < lastFireTime) monotone = false;
    lastFireTime = sim->now();
    order.emplace_back(tag, sim->currentKey());
  }
};

// Tagged events record tag.a; counts every closure it builds.
class RecordingFactory : public EventFactory {
 public:
  explicit RecordingFactory(Recorder* recorder) : recorder_(recorder) {}
  [[nodiscard]] Callback rebuild(const EventTag& tag) override {
    ++rebuilds;
    Recorder* recorder = recorder_;
    const int value = static_cast<int>(tag.a);
    return [recorder, value] { recorder->record(value); };
  }
  std::uint64_t rebuilds = 0;

 private:
  Recorder* recorder_;
};

EventTag recordTag(int value) {
  return makeTag(Component::kSession, /*kind=*/0,
                 static_cast<std::uint64_t>(value));
}

// How the re-times of one sequence split over the simulator's branches.
struct RetimeTally {
  std::size_t inPlace = 0;
  std::size_t retagged = 0;
  std::size_t crossShard = 0;
  std::size_t periodic = 0;
  std::size_t stale = 0;
};

// Runs `ops` random operations on a one-key simulator (shardCount 0) or on
// a community plan of 8 communities + the root key over `shardCount`
// shards, with every post landing on a random key.
RetimeTally runRandomSequence(std::uint64_t seed, int ops,
                              std::uint32_t shardCount = 0) {
  Rng rng(seed);
  Simulator sim;
  ShardPlan plan;
  if (shardCount > 0) {
    plan.keyCount = 9;
    plan.shardCount = shardCount;
    plan.lookahead = 1;
    EXPECT_TRUE(sim.configureShards(plan));
  }
  Recorder recorder;
  recorder.sim = &sim;
  RecordingFactory factory(&recorder);
  sim.registerFactory(Component::kSession, &factory);
  ReferenceScheduler model(plan.keyCount);
  std::vector<Fired> modelOrder;
  RetimeTally tally;

  // Per scheduled event: sim handle, model id, and its tag (-1: closure).
  struct Tracked {
    EventHandle handle;
    std::size_t modelId;
    int tag;
  };
  std::vector<Tracked> handles;
  std::uint64_t expectedRebuilds = 0;
  int nextTag = 0;
  const auto closure = [&recorder](int tag) {
    return [&recorder, tag] { recorder.record(tag); };
  };
  const auto randomKey = [&] {
    return static_cast<std::uint32_t>(rng.uniformInt(plan.keyCount));
  };

  for (int op = 0; op < ops; ++op) {
    switch (rng.uniformInt(8)) {
      case 0: {  // one-shot, relative delay (0 included: same-time FIFO)
        const SimTime delay = static_cast<SimTime>(rng.uniformInt(50));
        const std::uint32_t key = randomKey();
        const int tag = nextTag++;
        const EventHandle handle =
            key == 0 ? sim.schedule(delay, closure(tag))
                     : sim.scheduleForKey(key, delay, closure(tag));
        handles.push_back(
            Tracked{handle, model.add(sim.now() + delay, tag, 0, 0, key), -1});
        break;
      }
      case 1: {  // one-shot, absolute time, on the ambient key
        const SimTime when =
            sim.now() + static_cast<SimTime>(rng.uniformInt(50));
        const int tag = nextTag++;
        handles.push_back(Tracked{sim.scheduleAt(when, closure(tag)),
                                  model.add(when, tag, 0, 0, 0), -1});
        break;
      }
      case 2: {  // tagged one-shot on a random key
        const SimTime delay = static_cast<SimTime>(rng.uniformInt(50));
        const std::uint32_t key = randomKey();
        const int tag = nextTag++;
        handles.push_back(
            Tracked{sim.scheduleForKeyTagged(key, delay, recordTag(tag)),
                    model.add(sim.now() + delay, tag, 0, 0, key), tag});
        ++expectedRebuilds;
        break;
      }
      case 3: {  // periodic series, tagged or not
        const SimTime period = 1 + static_cast<SimTime>(rng.uniformInt(20));
        const int tag = nextTag++;
        const bool tagged = rng.uniformInt(2) == 0;
        const EventHandle handle =
            tagged ? sim.schedulePeriodicTagged(period, recordTag(tag))
                   : sim.schedulePeriodic(period, closure(tag));
        if (tagged) ++expectedRebuilds;
        handles.push_back(
            Tracked{handle, model.add(sim.now() + period, tag, period, 0, 0),
                    tagged ? tag : -1});
        break;
      }
      case 4: {  // cancel a random handle — often stale or doubly cancelled
        if (handles.empty()) break;
        const Tracked& t = handles[rng.uniformInt(handles.size())];
        // The model treats one-shot records as dead once fired, so a
        // cancel of either kind maps to the same "mark dead" operation;
        // live periodic series are killed outright on both sides.
        sim.cancel(t.handle);
        model.cancel(t.modelId);
        break;
      }
      case 5:
      case 6: {  // re-time a random handle, keeping its tag or taking a new one
        if (handles.empty()) break;
        Tracked& t = handles[rng.uniformInt(handles.size())];
        const SimTime delay = static_cast<SimTime>(rng.uniformInt(50));
        const int tag =
            (t.tag >= 0 && rng.uniformInt(2) == 0) ? t.tag : nextTag++;
        // Usually the event keeps its owner, as a flow group's completion
        // does; otherwise it moves to a random key.
        const std::uint32_t owner = rng.uniformInt(4) != 0
                                        ? model.owner(t.modelId)
                                        : randomKey();
        bool inPlace = false;
        if (!model.alive(t.modelId)) {
          ++tally.stale;
        } else if (model.isPeriodic(t.modelId)) {
          ++tally.periodic;
        } else if (plan.shardOf(model.owner(t.modelId)) !=
                   plan.shardOf(owner)) {
          ++tally.crossShard;
        } else if (tag != t.tag) {
          ++tally.retagged;
        } else {
          ++tally.inPlace;
          inPlace = true;
        }
        // Only an in-place move keeps its closure.
        if (!inPlace) ++expectedRebuilds;
        t.handle = sim.retimeTagged(t.handle, delay, recordTag(tag), owner);
        model.cancel(t.modelId);
        t.modelId = model.add(sim.now() + delay, tag, 0, 0, owner);
        t.tag = tag;
        break;
      }
      case 7: {  // advance time and compare everything fired so far
        const SimTime until =
            sim.now() + static_cast<SimTime>(rng.uniformInt(80));
        sim.runUntil(until);
        model.runUntil(until, modelOrder);
        EXPECT_EQ(recorder.order, modelOrder)
            << "divergence after op " << op << " (seed " << seed << ")";
        EXPECT_EQ(sim.pendingEvents(), model.live())
            << "live-count divergence after op " << op << " (seed " << seed
            << ")";
        EXPECT_EQ(sim.periodicSeries(), model.livePeriodic())
            << "periodic-count divergence after op " << op << " (seed "
            << seed << ")";
        EXPECT_EQ(sim.now(), until);
        if (::testing::Test::HasFailure()) return tally;
        break;
      }
    }
  }

  // Kill periodic series so the final drain terminates, then drain fully.
  for (const Tracked& t : handles) {
    if (model.isPeriodic(t.modelId)) {
      sim.cancel(t.handle);
      model.cancel(t.modelId);
    }
  }
  sim.run();
  model.runUntil(std::numeric_limits<SimTime>::max() / 2, modelOrder);
  EXPECT_EQ(recorder.order, modelOrder) << "final drain divergence, seed "
                                        << seed;
  EXPECT_TRUE(recorder.monotone) << "clock moved backwards, seed " << seed;
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.periodicSeries(), 0u);
  // An in-place re-time keeps its closure; every other tagged schedule or
  // re-time builds one.
  EXPECT_EQ(factory.rebuilds, expectedRebuilds) << "seed " << seed;
  return tally;
}

TEST(SchedulerProperty, MatchesReferenceModelAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    runRandomSequence(seed, 400);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SchedulerProperty, LongSequenceHeavyRecycling) {
  // Few distinct delays + many ops → slots recycle constantly and most
  // cancels hit stale generations.
  runRandomSequence(0x5eed5eed, 5000);
}

TEST(SchedulerProperty, CommunityPlanRetimesMatchReferenceModel) {
  RetimeTally total;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const RetimeTally tally = runRandomSequence(seed, 400, /*shardCount=*/4);
    if (::testing::Test::HasFailure()) return;
    total.inPlace += tally.inPlace;
    total.retagged += tally.retagged;
    total.crossShard += tally.crossShard;
    total.periodic += tally.periodic;
    total.stale += tally.stale;
  }
  // Every branch of retimeTagged was checked against the model.
  EXPECT_GT(total.inPlace, 0u);
  EXPECT_GT(total.retagged, 0u);
  EXPECT_GT(total.crossShard, 0u);
  EXPECT_GT(total.periodic, 0u);
  EXPECT_GT(total.stale, 0u);
}

}  // namespace
}  // namespace st::sim
