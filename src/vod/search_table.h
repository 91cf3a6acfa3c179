// In-flight video searches of a flooding overlay (SocialTube, NetTube).
//
// One table owns the three pieces of search bookkeeping both protocols
// share: the pooled search records, the per-node flood-dedup stamps, and
// each user's in-flight search id. A record's pool id doubles as its flood
// query id — SlotPool ids are never zero and never reused, so they are
// valid dedup stamps (see vod/query_dedup.h).
//
// `Search` is the system's record type. It must have `user` (UserId),
// `video` (VideoId) and `deadline` (sim::EventHandle, the pending phase
// timer, not serialized: onRestored() re-links it from the queue) members.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "snapshot/codec.h"
#include "util/slot_pool.h"
#include "util/strong_id.h"
#include "vod/query_dedup.h"

namespace st::vod {

template <typename Search>
class SearchTable {
 public:
  using Id = typename SlotPool<Search>::Id;

  SearchTable(std::size_t users, std::size_t videos)
      : videos_(videos), dedup_(users), active_(users, 0) {}

  // Stores the record as its user's in-flight search; returns its query id.
  Id start(Search search) {
    const UserId user = search.user;
    const Id id = records_.insert(std::move(search));
    active_[user.index()] = id;
    return id;
  }

  // The live record for a query id; nullptr once it resolved or was
  // abandoned.
  [[nodiscard]] Search* find(Id id) { return records_.find(id); }

  // Moves a live record out; its user no longer has a search in flight.
  Search take(Id id) {
    Search search = records_.take(id);
    active_[search.user.index()] = 0;
    return search;
  }

  // Abandons the user's in-flight search, if any (logout, new request):
  // cancels its deadline and frees the record.
  void abandon(UserId user, sim::Simulator& sim) {
    const Id id = active_[user.index()];
    if (id == 0) return;
    if (Search* search = records_.find(id)) {
      sim.cancel(search->deadline);
      records_.erase(id);
    }
    active_[user.index()] = 0;
  }

  // True if query `id` already visited `at`; marks the visit otherwise.
  [[nodiscard]] bool seen(UserId at, Id id) {
    return dedup_.checkAndMark(at.index(), id);
  }

  // Checkpoint/restore: the record arena (SlotPool framing; each record is
  // its user and video, then the system's own fields), the dedup stamps,
  // and the in-flight ids. writeRest(w, const Search&) and
  // readRest(r, Search&) handle the system's own fields; readRest returns
  // false to reject the record (after calling r.fail()). `name` prefixes
  // the error messages.
  template <typename WriteRest>
  void saveState(snapshot::Writer& w, WriteRest&& writeRest) const {
    records_.saveState(w, [&](snapshot::Writer& out, const Search& search) {
      out.u32(search.user.value());
      out.u32(search.video.value());
      writeRest(out, search);
    });
    w.u64(dedup_.marks().size());
    for (const std::uint64_t mark : dedup_.marks()) w.u64(mark);
    w.u64(active_.size());
    for (const std::uint64_t id : active_) w.u64(id);
  }

  template <typename ReadRest>
  bool loadState(snapshot::Reader& r, const std::string& name,
                 ReadRest&& readRest) {
    const std::string userField = name + " search user";
    const std::string videoField = name + " search video";
    const bool records =
        records_.loadState(r, [&](snapshot::Reader& in, Search& search) {
          search.user = UserId{in.id(active_.size(), userField)};
          search.video = VideoId{in.id(videos_, videoField)};
          return in.ok() && readRest(in, search);
        });
    if (!records) return false;
    std::vector<std::uint64_t> marks(r.count(8));
    for (std::uint64_t& mark : marks) mark = r.u64();
    if (!r.ok() || !dedup_.restoreMarks(std::move(marks))) {
      r.fail(name + " dedup mark count mismatch");
      return false;
    }
    const std::size_t activeCount = r.count(8);
    if (!r.ok() || activeCount != active_.size()) {
      r.fail(name + " active-search count mismatch");
      return false;
    }
    for (std::uint64_t& id : active_) id = r.u64();
    return r.ok();
  }

 private:
  std::size_t videos_;
  SlotPool<Search> records_;
  QueryDedup dedup_;
  // Indexed by user: the user's in-flight search id, 0 if none.
  std::vector<std::uint64_t> active_;
};

}  // namespace st::vod
