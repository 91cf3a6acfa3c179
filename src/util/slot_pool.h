// Generation-stamped slot pool for short-lived protocol records.
//
// The systems used to churn `unordered_map` entries per request (searches,
// watches): every insert hashed and allocated, every erase rehashed. A
// SlotPool recycles record storage through a free list and addresses it by
// a 64-bit id packing (generation << 32 | slot). Lookup is an index plus
// one compare; a stale id — kept after its record was erased — can never
// alias a recycled slot because the generation is bumped on every erase.
//
// Ids are never zero and never repeat (until a per-slot generation wraps
// 2^32, far beyond any run), which also makes them safe as flood-query
// dedup stamps (see vod/query_dedup.h).
//
// Storage is a deque, so references returned by find() stay valid across
// inserts — matching the unordered_map semantics the protocols relied on.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <utility>

#include "snapshot/codec.h"

namespace st {

template <typename T>
class SlotPool {
 public:
  using Id = std::uint64_t;

  // Inserts a record and returns its id (never 0).
  Id insert(T value) {
    std::uint32_t index;
    if (freeHead_ != kNoFree) {
      index = freeHead_;
      Slot& slot = slots_[index];
      freeHead_ = slot.nextFree;
      slot.nextFree = kNoFree;
      slot.value = std::move(value);
      slot.live = true;
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(value), 1, kNoFree, true});
    }
    ++size_;
    return makeId(index, slots_[index].gen);
  }

  // Returns the record for a live id, nullptr for stale/unknown ids.
  [[nodiscard]] T* find(Id id) {
    const std::uint32_t index = slotOf(id);
    if (index >= slots_.size()) return nullptr;
    Slot& slot = slots_[index];
    if (!slot.live || slot.gen != genOf(id)) return nullptr;
    return &slot.value;
  }
  [[nodiscard]] const T* find(Id id) const {
    return const_cast<SlotPool*>(this)->find(id);
  }

  // Moves a live record out and frees its slot.
  T take(Id id) {
    T* value = find(id);
    assert(value != nullptr);
    T out = std::move(*value);
    erase(id);
    return out;
  }

  // Frees a live slot; the id (and any copy of it) goes stale immediately.
  void erase(Id id) {
    const std::uint32_t index = slotOf(id);
    assert(index < slots_.size());
    Slot& slot = slots_[index];
    assert(slot.live && slot.gen == genOf(id));
    slot.value = T{};  // release captured resources now, not at reuse
    slot.live = false;
    if (++slot.gen == 0) slot.gen = 1;
    slot.nextFree = freeHead_;
    freeHead_ = index;
    --size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // --- checkpoint/restore -----------------------------------------------------
  // Ids are (generation << 32 | slot), so restoring outstanding ids exactly
  // requires persisting the whole arena: every slot's generation and free-
  // list linkage, live or not. The framing is the slot count, then per slot
  // (live, generation, next free, the record if live), then the free-list
  // head; the owner supplies only the record's own fields.
  //
  // writeRecord(w, const T&) writes one live record.
  template <typename WriteRecord>
  void saveState(snapshot::Writer& w, WriteRecord&& writeRecord) const {
    w.u64(slots_.size());
    for (const Slot& slot : slots_) {
      w.boolean(slot.live);
      w.u32(slot.gen);
      w.u32(slot.nextFree);
      if (slot.live) writeRecord(w, slot.value);
    }
    w.u32(freeHead_);
  }

  // readRecord(r, T&) reads one live record and returns false to reject it
  // (after calling r.fail() with a message naming the field). A rejected
  // record or a bad free list (a link out of range or to a live slot, a
  // cycle, a free slot missing from the list) fails the reader and leaves
  // the pool empty rather than inconsistent.
  template <typename ReadRecord>
  bool loadState(snapshot::Reader& r, ReadRecord&& readRecord) {
    clear();
    const std::size_t count = r.count(1 + 4 + 4);
    for (std::size_t i = 0; i < count && r.ok(); ++i) {
      Slot slot;
      slot.live = r.boolean();
      slot.gen = r.u32();
      slot.nextFree = r.u32();
      if (slot.live && r.ok() && !readRecord(r, slot.value)) {
        r.fail("slot pool record rejected");
      }
      if (slot.live) ++size_;
      slots_.push_back(std::move(slot));
    }
    const std::uint32_t freeHead = r.u32();
    if (r.ok() && !validFreeList(freeHead)) {
      r.fail("slot pool free list corrupt");
    }
    if (!r.ok()) {
      clear();
      return false;
    }
    freeHead_ = freeHead;
    return true;
  }

 private:
  static constexpr std::uint32_t kNoFree = ~std::uint32_t{0};

  struct Slot {
    T value{};
    std::uint32_t gen = 1;  // bumped on erase; 0 reserved (id 0 impossible)
    std::uint32_t nextFree = kNoFree;
    bool live = false;
  };

  void clear() {
    slots_.clear();
    freeHead_ = kNoFree;
    size_ = 0;
  }

  // Every link in range and to a free slot, and every free slot on the
  // list exactly once.
  [[nodiscard]] bool validFreeList(std::uint32_t head) const {
    const std::size_t freeSlots = slots_.size() - size_;
    std::size_t walked = 0;
    for (std::uint32_t at = head; at != kNoFree; at = slots_[at].nextFree) {
      if (at >= slots_.size() || slots_[at].live || ++walked > freeSlots) {
        return false;
      }
    }
    return walked == freeSlots;
  }

  static Id makeId(std::uint32_t index, std::uint32_t gen) {
    return (static_cast<Id>(gen) << 32) | index;
  }
  static std::uint32_t slotOf(Id id) { return static_cast<std::uint32_t>(id); }
  static std::uint32_t genOf(Id id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  std::deque<Slot> slots_;
  std::uint32_t freeHead_ = kNoFree;
  std::size_t size_ = 0;
};

}  // namespace st
