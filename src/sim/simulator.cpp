#include "sim/simulator.h"

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <limits>
#include <thread>
#include <utility>

namespace st::sim {

namespace {

// Ambient context of a worker thread inside a parallel lookahead window.
// Keyed by simulator so nested/multi-seed simulators on other threads are
// unaffected; cleared when the worker leaves the window loop.
struct WindowTls {
  const Simulator* sim = nullptr;
  std::uint32_t shardIndex = 0;
  std::uint32_t key = 0;
};
thread_local WindowTls tlsWindow;

constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

}  // namespace

bool EventFactory::onRestored(const EventTag& tag, EventHandle handle) {
  (void)tag;
  (void)handle;
  return true;
}

SimTime Simulator::now() const {
  if (tlsWindow.sim == this) return shards_[tlsWindow.shardIndex].localNow;
  return now_;
}

std::uint32_t Simulator::currentKey() const {
  if (tlsWindow.sim == this) return tlsWindow.key;
  return currentKey_;
}

std::uint64_t Simulator::crossShardPosts() const {
  std::uint64_t total = 0;
  for (const ShardState& shard : shards_) total += shard.crossPosts;
  return total;
}

std::uint64_t Simulator::crossBelowFloor() const {
  std::uint64_t total = 0;
  for (const ShardState& shard : shards_) total += shard.belowFloor;
  return total;
}

std::size_t Simulator::pendingEvents() const {
  std::size_t total = 0;
  for (const ShardState& shard : shards_) total += shard.live;
  return total;
}

std::size_t Simulator::periodicSeries() const {
  std::size_t total = 0;
  for (const ShardState& shard : shards_) total += shard.periodicLive;
  return total;
}

std::uint64_t Simulator::eventsFired() const {
  std::uint64_t total = firedBase_;
  for (const ShardState& shard : shards_) total += shard.fired;
  return total;
}

bool Simulator::configureShards(const ShardPlan& plan, std::string* error) {
  auto reject = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::string why;
  if (!plan.validate(&why)) return reject(why);
  if (plan.keyCount > (std::uint32_t{1} << kSlotIndexBits)) {
    return reject("community key space too large for the stamp packing (" +
                  std::to_string(plan.keyCount) + " keys)");
  }
  // Outside events every stamp comes from the root key.
  if (now_ != 0 || keySeq_[0] != 0 || pendingEvents() != 0 ||
      eventsFired() != 0) {
    return reject("configureShards must run on a pristine simulator, before "
                  "any event is scheduled");
  }
  plan_ = plan;
  shards_.clear();
  shards_.resize(plan.shardCount);
  keySeq_.assign(plan.keyCount, 0);
  currentKey_ = 0;
  return true;
}

std::uint64_t Simulator::nextStamp(std::uint32_t srcKey) {
  assert(srcKey < keySeq_.size());
  std::uint64_t& seq = keySeq_[srcKey];
  assert(seq < kKeySeqMask && "per-key sequence overflow");
  return (static_cast<std::uint64_t>(srcKey) << kKeySeqBits) | seq++;
}

void Simulator::ShardState::place(std::size_t pos, const HeapEntry& entry) {
  heap[pos] = entry;
  heapPos[entry.slot] = static_cast<std::uint32_t>(pos);
}

std::size_t Simulator::ShardState::earliestChild(std::size_t first) const {
  const std::size_t last = std::min(first + kHeapArity, heap.size());
  std::size_t best = first;
  for (std::size_t child = first + 1; child < last; ++child) {
    if (heap[child] < heap[best]) best = child;
  }
  return best;
}

void Simulator::ShardState::siftUp(std::size_t pos, const HeapEntry& entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kHeapArity;
    if (!(entry < heap[parent])) break;
    place(pos, heap[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void Simulator::ShardState::siftDown(std::size_t pos, const HeapEntry& entry) {
  for (std::size_t first = pos * kHeapArity + 1; first < heap.size();
       first = pos * kHeapArity + 1) {
    const std::size_t child = earliestChild(first);
    if (!(heap[child] < entry)) break;
    place(pos, heap[child]);
    pos = child;
  }
  place(pos, entry);
}

void Simulator::ShardState::refill(std::size_t pos, const HeapEntry& entry) {
  if (pos > 0 && entry < heap[(pos - 1) / kHeapArity]) {
    siftUp(pos, entry);
  } else {
    siftDown(pos, entry);
  }
}

void Simulator::ShardState::push(const HeapEntry& entry) {
  heap.emplace_back();
  siftUp(heap.size() - 1, entry);
}

Simulator::HeapEntry Simulator::ShardState::pop() {
  const HeapEntry top = heap.front();
  heapPos[top.slot] = kNotQueued;
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (heap.empty()) return top;
  // Bottom-up, like std::pop_heap: walk the root's hole down to a leaf
  // along the earliest children, then sift the old last entry up from
  // there — it nearly always belongs near the bottom, so this saves a
  // comparison per level over a top-down sift.
  std::size_t hole = 0;
  for (std::size_t first = 1; first < heap.size();
       first = hole * kHeapArity + 1) {
    const std::size_t child = earliestChild(first);
    place(hole, heap[child]);
    hole = child;
  }
  siftUp(hole, last);
  return top;
}

void Simulator::ShardState::erase(std::uint32_t slot) {
  const std::size_t pos = heapPos[slot];
  assert(pos < heap.size() && heap[pos].slot == slot);
  heapPos[slot] = kNotQueued;
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (pos < heap.size()) refill(pos, last);
}

void Simulator::ShardState::rekey(std::uint32_t slot, SimTime when,
                                  std::uint64_t stamp) {
  const std::size_t pos = heapPos[slot];
  assert(pos < heap.size() && heap[pos].slot == slot);
  refill(pos, HeapEntry{when, stamp, slot});
}

std::uint32_t Simulator::allocSlot(ShardState& shard) {
  if (shard.freeHead != kNoFree) {
    const std::uint32_t index = shard.freeHead;
    shard.freeHead = shard.slots[index].nextFree;
    shard.slots[index].nextFree = kNoFree;
    return index;
  }
  const auto index = static_cast<std::uint32_t>(shard.slots.size());
  assert(index <= kSlotIndexMask && "shard arena exceeds the handle packing");
  shard.slots.emplace_back();
  shard.tags.emplace_back();
  shard.heapPos.push_back(kNotQueued);
  return index;
}

void Simulator::releaseSlot(ShardState& shard, std::uint32_t index) {
  assert(shard.heapPos[index] == kNotQueued);
  Slot& slot = shard.slots[index];
  slot.fn.reset();
  slot.period = 0;
  slot.destKey = 0;
  shard.tags[index] = EventTag{};
  // The bump invalidates every outstanding handle for the old occupant; 0
  // is reserved for never-scheduled handles.
  if (++slot.gen == 0) slot.gen = 1;
  slot.nextFree = shard.freeHead;
  shard.freeHead = index;
}

EventHandle Simulator::enqueueInShard(ShardState& shard, SimTime when,
                                      std::uint64_t stamp, Callback fn,
                                      SimTime period, const EventTag& tag,
                                      std::uint32_t destKey) {
  const std::uint32_t index = allocSlot(shard);
  Slot& slot = shard.slots[index];
  slot.fn = std::move(fn);
  slot.period = period;
  slot.destKey = destKey;
  shard.tags[index] = tag;
  shard.push(HeapEntry{when, stamp, index});
  ++shard.live;
  const auto shardIndex =
      static_cast<std::uint32_t>(&shard - shards_.data());
  return EventHandle{(shardIndex << kSlotIndexBits) | index, slot.gen};
}

EventHandle Simulator::enqueue(SimTime when, Callback fn, SimTime period,
                               const EventTag& tag, std::uint32_t destKey) {
  assert(when >= now());
  assert(destKey < plan_.keyCount);
  const bool inWindow = tlsWindow.sim == this;
  const std::uint32_t srcKey = inWindow ? tlsWindow.key : currentKey_;
  const std::uint64_t stamp = nextStamp(srcKey);
  const std::uint32_t destShard = plan_.shardOf(destKey);
  if (inWindow) {
    // Inside a parallel window: same-shard posts go straight into the
    // worker-owned arena; cross-shard posts ride the outbox and are
    // applied by the barrier coordinator.
    ShardState& own = shards_[tlsWindow.shardIndex];
    if (destShard != tlsWindow.shardIndex) {
      ++own.crossPosts;
      assert(period == 0 && "periodic events are owner-key-local");
      if (when - own.localNow < plan_.lookahead) ++own.belowFloor;
      own.outbox.push_back(CrossEvent{when, stamp, destKey, tag,
                                      std::move(fn)});
      return EventHandle{};
    }
    return enqueueInShard(own, when, stamp, std::move(fn), period, tag,
                          destKey);
  }
  const std::uint32_t srcShard = plan_.shardOf(srcKey);
  if (destShard != srcShard) {
    ShardState& src = shards_[srcShard];
    ++src.crossPosts;
    if (when - now_ < plan_.lookahead) ++src.belowFloor;
  }
  return enqueueInShard(shards_[destShard], when, stamp, std::move(fn),
                        period, tag, destKey);
}

EventHandle Simulator::schedule(SimTime delay, Callback fn) {
  assert(delay >= 0);
  return enqueue(now() + delay, std::move(fn), /*period=*/0, EventTag{},
                 currentKey());
}

EventHandle Simulator::scheduleAt(SimTime when, Callback fn) {
  return enqueue(when, std::move(fn), /*period=*/0, EventTag{}, currentKey());
}

EventHandle Simulator::schedulePeriodic(SimTime period, Callback fn) {
  assert(period > 0);
  ++shards_[plan_.shardOf(currentKey())].periodicLive;
  return enqueue(now() + period, std::move(fn), period, EventTag{},
                 currentKey());
}

EventHandle Simulator::scheduleForKey(std::uint32_t destKey, SimTime delay,
                                      Callback fn) {
  assert(delay >= 0);
  return enqueue(now() + delay, std::move(fn), /*period=*/0, EventTag{},
                 destKey);
}

Callback Simulator::build(const EventTag& tag) const {
  EventFactory* factory =
      factories_[static_cast<std::size_t>(tag.component)];
  assert(tag.tagged() && factory != nullptr &&
         "tagged event without a registered factory");
  return factory->rebuild(tag);
}

EventHandle Simulator::scheduleForKeyTagged(std::uint32_t destKey,
                                            SimTime delay,
                                            const EventTag& tag) {
  return enqueue(now() + delay, build(tag), /*period=*/0, tag, destKey);
}

EventHandle Simulator::scheduleTagged(SimTime delay, const EventTag& tag) {
  return scheduleAtTagged(now() + delay, tag);
}

EventHandle Simulator::scheduleAtTagged(SimTime when, const EventTag& tag) {
  return enqueue(when, build(tag), /*period=*/0, tag, currentKey());
}

EventHandle Simulator::schedulePeriodicTagged(SimTime period,
                                              const EventTag& tag) {
  assert(period > 0);
  ++shards_[plan_.shardOf(currentKey())].periodicLive;
  return enqueue(now() + period, build(tag), period, tag, currentKey());
}

void Simulator::discardTagged(const EventTag& tag) {
  if (!tag.tagged()) return;
  EventFactory* factory =
      factories_[static_cast<std::size_t>(tag.component)];
  if (factory != nullptr) factory->discard(tag);
}

void Simulator::invokeTagged(const EventTag& tag) { build(tag)(); }

void Simulator::cancel(EventHandle handle) {
  if (!handle.valid()) return;
  const std::uint32_t shardIndex = handle.slot_ >> kSlotIndexBits;
  const std::uint32_t index = handle.slot_ & kSlotIndexMask;
  assert(shardIndex < shards_.size());
  ShardState& shard = shards_[shardIndex];
  assert(index < shard.slots.size());
  Slot& slot = shard.slots[index];
  if (slot.gen != handle.gen_) return;  // already fired or cancelled
  if (slot.period > 0) --shard.periodicLive;
  // A periodic series is out of the heap while its callback runs.
  if (shard.heapPos[index] != kNotQueued) shard.erase(index);
  releaseSlot(shard, index);
  --shard.live;
}

EventHandle Simulator::retimeTagged(EventHandle handle, SimTime delay,
                                    const EventTag& tag,
                                    std::uint32_t ownerKey) {
  assert(delay >= 0);
  assert(ownerKey < plan_.keyCount);
  const std::uint32_t shardIndex = plan_.shardOf(ownerKey);
  const bool inWindow = tlsWindow.sim == this;
  if (handle.valid() && !inWindow &&
      handle.slot_ >> kSlotIndexBits == shardIndex) {
    ShardState& shard = shards_[shardIndex];
    const std::uint32_t index = handle.slot_ & kSlotIndexMask;
    Slot& slot = shard.slots[index];
    // A live one-shot is always queued: firing releases it first. An
    // unchanged tag keeps the closure, as rebuild() is a pure function of
    // the tag.
    if (slot.gen == handle.gen_ && slot.period == 0 &&
        shard.tags[index] == tag) {
      slot.destKey = ownerKey;
      shard.rekey(index, now_ + delay, nextStamp(currentKey_));
      return handle;
    }
  }
  cancel(handle);
  if (inWindow) return scheduleForKeyTagged(ownerKey, delay, tag);
  return enqueueInShard(shards_[shardIndex], now_ + delay,
                        nextStamp(currentKey_), build(tag), /*period=*/0,
                        tag, ownerKey);
}

void Simulator::fire(ShardState& shard, const HeapEntry& entry) {
  ++shard.fired;
  Slot* slot = &shard.slots[entry.slot];
  if (slot->period > 0) {
    // Move the callback out for the call: it may cancel its own series
    // (which resets the slot) without destroying a running closure, and
    // it may schedule new events (which can reallocate the arena).
    const std::uint32_t gen = slot->gen;
    Callback fn = std::move(slot->fn);
    fn();
    slot = &shard.slots[entry.slot];
    if (slot->gen == gen) {
      slot->fn = std::move(fn);
      shard.push(HeapEntry{entry.when + slot->period,
                           nextStamp(slot->destKey), entry.slot});
    }
    return;
  }
  // One-shot: release the slot before invoking so the handle is stale
  // during the callback and the slot is immediately reusable.
  Callback fn = std::move(slot->fn);
  releaseSlot(shard, entry.slot);
  --shard.live;
  fn();
}

// Fires the canonically next event of the non-empty `shard`, updating the
// serial clock and ambient key.
void Simulator::fireNextIn(ShardState& shard) {
  const HeapEntry entry = shard.pop();
  now_ = entry.when;
  shard.localNow = entry.when;
  currentKey_ = shard.slots[entry.slot].destKey;
  fire(shard, entry);
}

Simulator::ShardState* Simulator::nextShardSerial() {
  ShardState* best = nullptr;
  for (ShardState& shard : shards_) {
    if (shard.heap.empty()) continue;
    if (best == nullptr || shard.heap.front() < best->heap.front()) {
      best = &shard;
    }
  }
  return best;
}

std::uint64_t Simulator::runUntilSerial(SimTime until) {
  std::uint64_t count = 0;
  for (;;) {
    ShardState* shard = nextShardSerial();
    if (shard == nullptr || shard->heap.front().when > until) break;
    fireNextIn(*shard);
    ++count;
  }
  if (now_ < until) now_ = until;
  currentKey_ = 0;
  return count;
}

std::uint64_t Simulator::runUntilParallel(SimTime until) {
  const std::size_t shardN = shards_.size();
  const std::size_t workerN = std::min(workers_, shardN);
  const std::uint64_t startFired = eventsFired();
  const std::uint64_t startBelowFloor = crossBelowFloor();

  SimTime winEnd = 0;
  bool stopFlag = false;
  bool degraded = false;  // sub-lookahead post seen: finish serially

  // Runs single-threaded: either before the workers start or as the
  // barrier completion step while every worker is parked. Merges the
  // cross-shard outboxes (heap order is stamp-canonical, so application
  // order is irrelevant to firing order) and opens the next window.
  auto coordinate = [&]() noexcept {
    for (ShardState& from : shards_) {
      for (CrossEvent& ev : from.outbox) {
        enqueueInShard(shards_[plan_.shardOf(ev.destKey)], ev.when, ev.stamp,
                       std::move(ev.fn), /*period=*/0, ev.tag, ev.destKey);
      }
      from.outbox.clear();
    }
    if (crossBelowFloor() != startBelowFloor) {
      // A cross-shard post undercut the lookahead floor: its destination
      // shard may already have drained past the event's time, so its
      // canonical turn was missed. Keep the run alive on the serial merge,
      // but crossBelowFloor() > 0 marks the results as no longer
      // guaranteed identical to a serial run.
      degraded = true;
      stopFlag = true;
      return;
    }
    SimTime next = kNoEvent;
    for (const ShardState& shard : shards_) {
      if (!shard.heap.empty()) next = std::min(next, shard.heap.front().when);
    }
    if (next == kNoEvent || next > until) {
      stopFlag = true;
      return;
    }
    now_ = next;
    winEnd = next + plan_.lookahead;
    ++windowsRun_;
  };

  coordinate();
  if (!stopFlag) {
    std::barrier sync(static_cast<std::ptrdiff_t>(workerN), coordinate);
    auto workerLoop = [&](std::size_t worker) {
      tlsWindow.sim = this;
      for (;;) {
        for (std::size_t s = worker; s < shardN; s += workerN) {
          ShardState& shard = shards_[s];
          tlsWindow.shardIndex = static_cast<std::uint32_t>(s);
          while (!shard.heap.empty()) {
            const SimTime when = shard.heap.front().when;
            if (when >= winEnd || when > until) break;
            const HeapEntry entry = shard.pop();
            shard.localNow = entry.when;
            tlsWindow.key = shard.slots[entry.slot].destKey;
            fire(shard, entry);
          }
        }
        sync.arrive_and_wait();
        if (stopFlag) break;
      }
      tlsWindow = WindowTls{};
    };
    std::vector<std::thread> threads;
    threads.reserve(workerN - 1);
    for (std::size_t w = 1; w < workerN; ++w) {
      threads.emplace_back(workerLoop, w);
    }
    workerLoop(0);
    for (std::thread& t : threads) t.join();
  }

  currentKey_ = 0;
  if (degraded) {
    std::fprintf(stderr,
                 "sim: cross-shard post below the %lld us lookahead floor; "
                 "finishing the run on the serial merge\n",
                 static_cast<long long>(plan_.lookahead));
    return (eventsFired() - startFired) + runUntilSerial(until);
  }
  if (now_ < until) now_ = until;
  return eventsFired() - startFired;
}

std::uint64_t Simulator::runUntil(SimTime until) {
  if (workers_ > 1 && shards_.size() > 1) {
    return runUntilParallel(until);
  }
  return runUntilSerial(until);
}

std::uint64_t Simulator::run() {
  std::uint64_t count = 0;
  while (ShardState* shard = nextShardSerial()) {
    fireNextIn(*shard);
    ++count;
  }
  currentKey_ = 0;
  return count;
}

bool Simulator::step() {
  ShardState* shard = nextShardSerial();
  if (shard == nullptr) return false;
  fireNextIn(*shard);
  return true;
}

bool Simulator::saveState(snapshot::Writer& w, std::string* error) const {
  // Every heap entry is a live event; the sort below orders them.
  struct Pending {
    HeapEntry entry;
    SimTime period;
    std::uint32_t destKey;
    EventTag tag;
  };
  std::vector<Pending> pending;
  pending.reserve(pendingEvents());
  for (const ShardState& shard : shards_) {
    for (const HeapEntry& entry : shard.heap) {
      const EventTag& tag = shard.tags[entry.slot];
      if (!tag.tagged()) {
        if (error != nullptr) {
          *error = "pending untagged event (scheduled via plain schedule()) "
                   "cannot be snapshotted";
        }
        return false;
      }
      pending.push_back(Pending{entry, shard.slots[entry.slot].period,
                                shard.slots[entry.slot].destKey, tag});
    }
  }

  // Shard-count-independent layout: events carry their owner key and
  // canonical stamp, sorted by the canonical order, so the bytes (and any
  // restore) are identical at every shard count.
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) {
              return a.entry < b.entry;
            });
  w.section(0x4d495353);  // "SSIM"
  w.i64(now_);
  w.u64(eventsFired());
  w.u32(plan_.keyCount);
  for (const std::uint64_t seq : keySeq_) w.u64(seq);
  w.u64(pending.size());
  for (const Pending& p : pending) {
    w.i64(p.entry.when);
    w.u64(p.entry.stamp);
    w.u32(p.destKey);
    w.i64(p.period);
    snapshot::saveEventTag(w, p.tag);
  }
  return true;
}

bool Simulator::loadState(snapshot::Reader& r) {
  for (ShardState& shard : shards_) {
    shard = ShardState{};
  }

  r.section(0x4d495353, "simulator queue");
  now_ = r.i64();
  firedBase_ = r.u64();
  const std::uint32_t savedKeys = r.u32();
  if (!r.ok()) return false;
  if (savedKeys != plan_.keyCount) {
    // A one-key plan on either side means the runs disagree on --shards;
    // two community plans disagree on the catalog's community count.
    if (savedKeys == 1 || plan_.keyCount == 1) {
      r.fail(std::string("snapshot was saved ") +
             (savedKeys == 1 ? "without" : "with") +
             " --shards; restore it the same way");
    } else {
      r.fail("snapshot community key count (" + std::to_string(savedKeys) +
             ") does not match this run's catalog (" +
             std::to_string(plan_.keyCount) + ")");
    }
    return false;
  }
  for (std::uint64_t& seq : keySeq_) seq = r.u64();
  const std::size_t count = r.count(8 + 8 + 4 + 8 + 40);
  if (!r.ok()) return false;
  for (std::size_t i = 0; i < count; ++i) {
    const SimTime when = r.i64();
    const std::uint64_t stamp = r.u64();
    const std::uint32_t destKey = r.u32();
    const SimTime period = r.i64();
    const EventTag tag = snapshot::loadEventTag(r);
    if (!r.ok()) return false;
    const auto stampKey = static_cast<std::uint32_t>(stamp >> kKeySeqBits);
    if (when < now_ || period < 0 || destKey >= plan_.keyCount ||
        stampKey >= plan_.keyCount ||
        (stamp & kKeySeqMask) >= keySeq_[stampKey] || !tag.tagged()) {
      r.fail("pending event out of range");
      return false;
    }
    EventFactory* factory =
        factories_[static_cast<std::size_t>(tag.component)];
    if (factory == nullptr) {
      r.fail("snapshot contains events for component " +
             std::to_string(tag.component) +
             " but no factory is registered (was the run configured "
             "the same way?)");
      return false;
    }
    ShardState& shard = shards_[plan_.shardOf(destKey)];
    const EventHandle handle = enqueueInShard(
        shard, when, stamp, build(tag), period, tag, destKey);
    if (period > 0) ++shard.periodicLive;
    if (!factory->onRestored(tag, handle)) {
      r.fail("pending event (component " + std::to_string(tag.component) +
             ", kind " + std::to_string(tag.kind) +
             ") does not name live state");
      return false;
    }
  }
  return r.ok();
}

}  // namespace st::sim
