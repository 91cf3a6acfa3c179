// Deterministic discrete-event simulator, keyed by interest community.
//
// This is the PeerSim substitute (see DESIGN.md §8, "Scheduler internals"):
// an event loop with an integer-microsecond clock. Every event is owned by
// a community key and stamped (owner key << 40) | per-key sequence; events
// scheduled for the same instant fire in stamp order, which makes runs
// reproducible regardless of heap internals.
//
// Storage is a generation-stamped slot arena beside an indexed 4-ary
// min-heap per shard: callbacks live in recycled slots, the heap holds one
// small POD entry per live event, and every slot records its heap position.
// An EventHandle is a (slot, generation) pair. cancel() removes the event's
// entry in O(log n) and retimeTagged() moves it in place, so the heap never
// holds a dead entry; a handle kept after its event fired can never cancel
// an unrelated later event that reused the slot, because the generation no
// longer matches.
//
// There is one engine (DESIGN.md §13). A fresh simulator runs the one-key
// plan: a single root key 0 on a single shard, so the stamp is a plain
// scheduling sequence. configureShards() installs a community plan: keys
// 1..C are the interest communities, keys map onto power-of-two shards by
// masking, and each shard has its own arena + heap. The canonical
// (when, stamp) order of a community plan depends on the key count only, so
// a run is bitwise-identical at any --shards N; it is a different order
// from the one-key plan's, so fingerprints compare only within one --shards
// setting. runUntil() merges the shard queues serially by that order; with
// setWorkers(n > 1) it instead runs conservative lookahead windows on a
// thread per worker, exchanging cross-shard events at std::barrier
// synchronization points (only safe for workloads whose events touch
// shard-local state; the full VoD stack shares RNG/metrics streams and
// always uses the serial merge).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "sim/callback.h"
#include "sim/event_tag.h"
#include "sim/shard.h"
#include "sim/time.h"
#include "snapshot/codec.h"

namespace st::sim {

// Handle for cancelling a scheduled event (or a whole periodic series).
// Stale handles — after the event fired or was cancelled — are harmless:
// the generation stamp stops them from touching a recycled slot.
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const { return gen_ != 0; }
  bool operator==(const EventHandle&) const = default;

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint32_t gen)
      : slot_(slot), gen_(gen) {}
  // High bits carry the owning shard; low kSlotIndexBits the arena index.
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;  // 0 = never scheduled
};

class Simulator {
 public:
  using Callback = sim::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const;

  // Schedules `fn` to run `delay` microseconds from now (delay >= 0).
  EventHandle schedule(SimTime delay, Callback fn);
  // Schedules `fn` at an absolute time (>= now()).
  EventHandle scheduleAt(SimTime when, Callback fn);
  // Schedules `fn` every `period` starting at now() + period, until
  // cancelled. The returned handle cancels the whole series.
  EventHandle schedulePeriodic(SimTime period, Callback fn);

  // --- community sharding (DESIGN.md §13) -----------------------------------
  // Replaces the one-key plan with a community plan: plan.shardCount shard
  // queues over plan.keyCount owner keys. Must be called before anything is
  // scheduled; false (with *error) on an invalid plan. Key 0 is the root
  // (server, experiment machinery); the ambient key during setup is 0.
  bool configureShards(const ShardPlan& plan, std::string* error = nullptr);
  [[nodiscard]] const ShardPlan& shardPlan() const { return plan_; }
  [[nodiscard]] std::size_t shardCount() const { return shards_.size(); }
  // Worker threads for runUntil() on a community plan. 1 (default) = the
  // serial canonical merge — always safe. > 1 = parallel lookahead windows;
  // only for workloads whose events touch shard-local state exclusively.
  void setWorkers(std::size_t workers) { workers_ = workers == 0 ? 1 : workers; }
  // Owner key of the event currently executing (0 outside of events).
  // Events scheduled without an explicit key inherit it.
  [[nodiscard]] std::uint32_t currentKey() const;
  // Schedules onto another key's shard (destKey < shardPlan().keyCount). In
  // parallel-window mode a cross-shard delay below the lookahead floor is a
  // hard error; the serial merge only counts it (crossBelowFloor). The
  // returned handle is invalid for cross-shard posts made inside a parallel
  // window (the slot is allocated at the barrier).
  EventHandle scheduleForKey(std::uint32_t destKey, SimTime delay,
                             Callback fn);
  EventHandle scheduleForKeyTagged(std::uint32_t destKey, SimTime delay,
                                   const EventTag& tag);
  // Telemetry: cross-shard posts, and posts whose delay undercut the
  // lookahead floor. The serial merge only counts the latter (it fires in
  // canonical order regardless); a parallel window detects it at the next
  // barrier and degrades to the serial merge for the rest of the run —
  // crossBelowFloor() > 0 after a parallel run means the workload broke
  // the conservative contract and bitwise equality with a serial run is
  // no longer guaranteed.
  [[nodiscard]] std::uint64_t crossShardPosts() const;
  [[nodiscard]] std::uint64_t crossBelowFloor() const;
  // Barrier windows executed by parallel runUntil() calls.
  [[nodiscard]] std::uint64_t windowsRun() const { return windowsRun_; }
  // Events fired by one shard (per-shard phase profiling).
  [[nodiscard]] std::uint64_t shardEventsFired(std::size_t shard) const {
    return shards_[shard].fired;
  }

  // --- tagged events (checkpointable) ------------------------------------------
  // The tagged variants build the callback through the component's
  // registered EventFactory — the same rebuild path a snapshot restore
  // replays — so a tagged event can be serialized mid-flight. Untagged
  // schedule() stays legal (tests, ad-hoc drivers) but makes the simulator
  // unsnapshotable while such an event is pending.
  void registerFactory(Component component, EventFactory* factory) {
    const auto index = static_cast<std::size_t>(component);
    assert(index > 0 && index < kComponentCount);
    factories_[index] = factory;
  }
  [[nodiscard]] EventFactory* factory(Component component) const {
    return factories_[static_cast<std::size_t>(component)];
  }
  EventHandle scheduleTagged(SimTime delay, const EventTag& tag);
  EventHandle scheduleAtTagged(SimTime when, const EventTag& tag);
  EventHandle schedulePeriodicTagged(SimTime period, const EventTag& tag);
  // Routes a dropped (never-delivered) tagged message to its factory's
  // discard() so tag-referenced payloads are freed. No-op for untagged or
  // factory-less tags.
  void discardTagged(const EventTag& tag);
  // Builds the tag's callback through its factory and runs it immediately —
  // synchronous completion notification without a trip through the queue.
  void invokeTagged(const EventTag& tag);

  // Serializes now, clocks, and every pending event (tag + firing time +
  // sequence + period). Fails — without writing — if any pending event is
  // untagged. Restore rebuilds callbacks through the registered factories
  // and invokes EventFactory::onRestored for each event, so components can
  // re-store the handles the original schedule calls returned; the
  // factories for every serialized component must be registered first, and
  // a tag whose factory reports no live state fails the restore. The layout
  // is shard-count-independent (events carry their owner key and canonical
  // stamp), so a snapshot taken at --shards 8 restores at --shards 1
  // byte-for-byte; restoring across key counts (a one-key snapshot into a
  // --shards run, or the reverse) is refused.
  bool saveState(snapshot::Writer& w, std::string* error) const;
  bool loadState(snapshot::Reader& r);

  // O(log n). Removes the event from the queue and releases its slot (and,
  // for a periodic series, its state) immediately; no-op on invalid or
  // stale handles.
  void cancel(EventHandle handle);
  // Exactly cancel(handle) followed by scheduleForKeyTagged(ownerKey,
  // delay, tag): one stamp from currentKey(), and the event executes under
  // `ownerKey`, so the fire order is the same. A live one-shot with the
  // same tag is re-keyed in place (outside parallel windows) and keeps its
  // handle and closure, whichever key re-times it; anything else is
  // cancelled and scheduled afresh. Callers store the returned handle.
  // Outside parallel windows a re-time is not a cross-shard post: the post
  // telemetry counts messages, the traffic the lookahead floor covers.
  EventHandle retimeTagged(EventHandle handle, SimTime delay,
                           const EventTag& tag, std::uint32_t ownerKey);

  // Runs events until the queue is empty or the clock passes `until`.
  // Events at exactly `until` still run. Returns the number of events fired.
  std::uint64_t runUntil(SimTime until);
  // Runs until the queue drains (always the serial merge).
  std::uint64_t run();
  // Executes at most one event; returns false if the queue was empty.
  bool step();

  // Live scheduled events: one-shots not yet fired/cancelled plus one per
  // periodic series. Exact — cancellation is reflected immediately.
  [[nodiscard]] std::size_t pendingEvents() const;
  // Live periodic series (cancel releases the series state immediately).
  [[nodiscard]] std::size_t periodicSeries() const;
  [[nodiscard]] std::uint64_t eventsFired() const;

  // Exposes the fired-event count as a pull gauge. The registry must not
  // outlive this simulator.
  void registerInto(obs::Registry& registry) {
    registry.addGauge("events_fired", [this] { return eventsFired(); });
  }

 private:
  static constexpr std::uint32_t kNoFree = ~std::uint32_t{0};
  // Heap position of a slot that has no heap entry: free, or a periodic
  // series whose callback is running.
  static constexpr std::uint32_t kNotQueued = ~std::uint32_t{0};
  // Children per heap node: half the depth of a binary heap, and a node's
  // children sit side by side in memory.
  static constexpr std::size_t kHeapArity = 4;
  // EventHandle slot packing: low bits index the shard arena, high bits
  // name the shard (up to ShardSpec::kMaxShards = 2^8).
  static constexpr std::uint32_t kSlotIndexBits = 24;
  static constexpr std::uint32_t kSlotIndexMask =
      (std::uint32_t{1} << kSlotIndexBits) - 1;
  // Canonical stamp packing: (owner key << 40) | per-key sequence.
  static constexpr std::uint32_t kKeySeqBits = 40;
  static constexpr std::uint64_t kKeySeqMask =
      (std::uint64_t{1} << kKeySeqBits) - 1;

  // Arena slot: owns the callback; `gen` is bumped on every release so
  // outstanding handles for the old occupant go stale.
  struct Slot {
    Callback fn;
    SimTime period = 0;  // > 0: periodic series, re-enqueued after each fire
    std::uint32_t gen = 1;
    std::uint32_t nextFree = kNoFree;
    // Owner key the event executes under.
    std::uint32_t destKey = 0;
  };

  // Heap entries are small PODs; the callback stays in the arena. `stamp`
  // is the canonical tie-break, (owner key << 40) | per-key sequence, and
  // unique, so (when, stamp) is a strict order.
  struct HeapEntry {
    SimTime when;
    std::uint64_t stamp;
    std::uint32_t slot;  // arena index within the owning shard

    // True when this entry fires first.
    bool operator<(const HeapEntry& other) const {
      if (when != other.when) return when < other.when;
      return stamp < other.stamp;
    }
  };

  // A cross-shard event born inside a parallel window; applied to the
  // destination shard's arena at the next barrier by the coordinator.
  struct CrossEvent {
    SimTime when;
    std::uint64_t stamp;
    std::uint32_t destKey;
    EventTag tag;
    Callback fn;
  };

  // One community shard: its own arena, free list, and heap. Workers touch
  // only their own shards during a parallel window; the coordinator touches
  // all of them while the workers wait at the barrier.
  struct ShardState {
    std::vector<Slot> slots;
    std::vector<EventTag> tags;
    // Per slot: index of its entry in `heap`, or kNotQueued.
    std::vector<std::uint32_t> heapPos;
    std::uint32_t freeHead = kNoFree;
    // Min-heap over (when, stamp) holding exactly the queued live events.
    std::vector<HeapEntry> heap;
    // Clock of the event this shard is currently executing (parallel
    // windows let shards advance independently inside a window).
    SimTime localNow = 0;
    std::uint64_t fired = 0;
    std::size_t live = 0;
    std::size_t periodicLive = 0;
    // Cross-shard telemetry, owner-written so parallel windows never race.
    std::uint64_t crossPosts = 0;
    std::uint64_t belowFloor = 0;
    // Parallel-window mailbox for cross-shard posts made by this shard.
    std::vector<CrossEvent> outbox;

    void push(const HeapEntry& entry);
    // Removes and returns the earliest entry; the heap must be non-empty.
    HeapEntry pop();
    // Removes the entry of `slot`, which must be queued.
    void erase(std::uint32_t slot);
    // Gives the queued entry of `slot` a new (when, stamp) in place.
    void rekey(std::uint32_t slot, SimTime when, std::uint64_t stamp);

   private:
    void place(std::size_t pos, const HeapEntry& entry);
    [[nodiscard]] std::size_t earliestChild(std::size_t first) const;
    void siftUp(std::size_t pos, const HeapEntry& entry);
    void siftDown(std::size_t pos, const HeapEntry& entry);
    // Fills the hole at `pos` with `entry`, moving it up or down.
    void refill(std::size_t pos, const HeapEntry& entry);
  };

  [[nodiscard]] std::uint64_t nextStamp(std::uint32_t srcKey);
  // The tag's closure from its registered factory.
  [[nodiscard]] Callback build(const EventTag& tag) const;
  void fireNextIn(ShardState& shard);
  // Runs the entry just popped from `shard`: a one-shot releases its slot
  // first, a periodic series re-enqueues itself after the call.
  void fire(ShardState& shard, const HeapEntry& entry);
  // Serial paths: picks the canonically next shard across all queues.
  ShardState* nextShardSerial();
  EventHandle enqueue(SimTime when, Callback fn, SimTime period,
                      const EventTag& tag, std::uint32_t destKey);
  EventHandle enqueueInShard(ShardState& shard, SimTime when,
                             std::uint64_t stamp, Callback fn, SimTime period,
                             const EventTag& tag, std::uint32_t destKey);
  std::uint32_t allocSlot(ShardState& shard);
  void releaseSlot(ShardState& shard, std::uint32_t index);
  std::uint64_t runUntilSerial(SimTime until);
  std::uint64_t runUntilParallel(SimTime until);

  // The default ShardPlan is the one-key plan; configureShards resizes the
  // vectors once, before anything is scheduled.
  std::vector<ShardState> shards_{1};
  SimTime now_ = 0;
  // Events fired before the current shard counters started (loadState).
  std::uint64_t firedBase_ = 0;
  std::array<EventFactory*, kComponentCount> factories_{};

  ShardPlan plan_;
  std::vector<std::uint64_t> keySeq_{0};  // per-key stamp sources
  std::uint32_t currentKey_ = 0;          // serial ambient owner key
  std::size_t workers_ = 1;
  std::uint64_t windowsRun_ = 0;
};

}  // namespace st::sim
