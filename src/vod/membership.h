// Server-side membership directory: which users are registered under which
// key (channel or video), with O(1) add/remove and uniform random member
// sampling.
//
// Used as the origin server's state in all three systems:
//  * SocialTube — key = ChannelId: the online subscribers of each channel
//    (plus current non-subscriber watchers). The paper's point is that this
//    is *small* state: users report subscription changes, not every video.
//  * NetTube    — key = VideoId: online holders of each video.
//  * PA-VoD     — key = VideoId: current watchers holding a full copy.
//
// Storage is index-addressed and hash-free: keys and users are StrongIds,
// so the per-key member lists live in a flat vector indexed by key, and
// each user's registrations (with their member-list positions) live in a
// flat vector indexed by user. Removal is the usual swap-with-back trick;
// the displaced member's position is patched through its own (short)
// registration list instead of a per-key position hash map.
//
// Iteration-order caveat: swap-with-back makes a member list's order a
// function of the directory's whole add/remove history, and randomMembers()
// draws by position — the order is *behaviorally relevant*, not an
// implementation detail. Snapshot round-trips therefore persist the exact
// list orders (saveState/loadState below), while anything that wants an
// order-independent identity (overlay fingerprints, test assertions) must
// go through canonicalMembers(), which sorts.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "snapshot/codec.h"
#include "util/rng.h"
#include "util/strong_id.h"

namespace st::vod {

template <typename Key>
class MembershipDirectory {
 public:
  void add(UserId user, Key key) {
    if (contains(user, key)) return;
    auto& members = keyEntry(key);
    userRefs(user).push_back(
        Ref{key, static_cast<std::uint32_t>(members.size())});
    members.push_back(user);
    ++total_;
  }

  void remove(UserId user, Key key) {
    if (user.index() >= byUser_.size()) return;
    auto& refs = byUser_[user.index()];
    for (std::size_t i = 0; i < refs.size(); ++i) {
      if (refs[i].key != key) continue;
      auto& members = byKey_[key.index()];
      const std::uint32_t pos = refs[i].position;
      const UserId moved = members.back();
      members[pos] = moved;
      members.pop_back();
      if (moved != user) patchPosition(moved, key, pos);
      refs[i] = refs.back();
      refs.pop_back();
      --total_;
      return;
    }
  }

  // Removes the user from every list they appear in.
  void removeAll(UserId user) {
    if (user.index() >= byUser_.size()) return;
    auto& refs = byUser_[user.index()];
    while (!refs.empty()) remove(user, refs.back().key);
  }

  [[nodiscard]] bool contains(UserId user, Key key) const {
    if (user.index() >= byUser_.size()) return false;
    for (const Ref& ref : byUser_[user.index()]) {
      if (ref.key == key) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t memberCount(Key key) const {
    return key.index() < byKey_.size() ? byKey_[key.index()].size() : 0;
  }

  // Total (user, key) registrations — the server-state-size metric the
  // paper compares between SocialTube and NetTube.
  [[nodiscard]] std::size_t totalRegistrations() const { return total_; }

  // Visits every (user, key) registration in user-index order (registration
  // order within a user). Audit-only traversal; not on any protocol path.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (std::size_t i = 0; i < byUser_.size(); ++i) {
      const UserId user{static_cast<std::uint32_t>(i)};
      forEachKeyOf(user, [&](Key key) { fn(user, key); });
    }
  }

  // Visits the keys `user` is registered under, in registration order:
  // forEach's visits for that one user. Audit-only, like forEach.
  template <typename Fn>
  void forEachKeyOf(UserId user, Fn&& fn) const {
    if (user.index() >= byUser_.size()) return;
    for (const Ref& ref : byUser_[user.index()]) fn(ref.key);
  }

  // Members of `key` in user-id order — deletion-history-independent, for
  // fingerprints and order-stable assertions. Never use on a protocol path
  // (sampling must stay position-based for bitwise compatibility).
  [[nodiscard]] std::vector<UserId> canonicalMembers(Key key) const {
    std::vector<UserId> members;
    if (key.index() < byKey_.size()) members = byKey_[key.index()];
    std::sort(members.begin(), members.end());
    return members;
  }
  [[nodiscard]] std::size_t keyCount() const { return byKey_.size(); }

  // Checkpoint/restore. Member-list order and each user's registration-ref
  // order are both persisted verbatim: the former drives randomMembers()
  // draws, the latter drives removeAll()'s removal order and forEach()'s
  // audit order.
  void saveState(snapshot::Writer& w) const {
    w.section(0x4d454d42);  // "BMEM"
    w.u64(byKey_.size());
    for (const auto& members : byKey_) {
      w.u64(members.size());
      for (const UserId member : members) w.u32(member.value());
    }
    w.u64(byUser_.size());
    for (const auto& refs : byUser_) {
      w.u64(refs.size());
      for (const Ref& ref : refs) {
        w.u32(ref.key.value());
        w.u32(ref.position);
      }
    }
  }
  bool loadState(snapshot::Reader& r) {
    r.section(0x4d454d42, "membership directory");
    byKey_.clear();
    byUser_.clear();
    total_ = 0;
    byKey_.resize(r.count(8));
    for (auto& members : byKey_) {
      members.resize(r.count(4));
      for (UserId& member : members) member = UserId{r.u32()};
    }
    byUser_.resize(r.count(8));
    for (auto& refs : byUser_) {
      refs.resize(r.count(8));
      for (Ref& ref : refs) {
        ref.key = Key{r.u32()};
        ref.position = r.u32();
        ++total_;
      }
    }
    if (!r.ok()) return false;
    // Cross-check refs against the member lists; a mismatch means a corrupt
    // (if CRC-valid) file, and applying it would break remove() forever.
    std::size_t listed = 0;
    for (const auto& members : byKey_) listed += members.size();
    if (listed != total_) {
      r.fail("membership refs/lists disagree");
      return false;
    }
    for (std::size_t u = 0; u < byUser_.size(); ++u) {
      for (const Ref& ref : byUser_[u]) {
        if (ref.key.index() >= byKey_.size() ||
            ref.position >= byKey_[ref.key.index()].size() ||
            byKey_[ref.key.index()][ref.position].index() != u) {
          r.fail("membership ref points at the wrong member");
          return false;
        }
      }
    }
    return true;
  }

  // Up to `count` distinct random members of `key`, excluding `exclude`.
  [[nodiscard]] std::vector<UserId> randomMembers(Key key, std::size_t count,
                                                  UserId exclude,
                                                  Rng& rng) const {
    std::vector<UserId> result;
    if (key.index() >= byKey_.size()) return result;
    const auto& members = byKey_[key.index()];
    if (members.empty()) return result;
    if (members.size() <= count + 1) {
      for (const UserId member : members) {
        if (member != exclude) result.push_back(member);
      }
      rng.shuffle(result);
      if (result.size() > count) result.resize(count);
      return result;
    }
    std::size_t attempts = 0;
    while (result.size() < count && attempts < count * 20 + 20) {
      ++attempts;
      const UserId candidate = members[rng.uniformInt(members.size())];
      if (candidate == exclude) continue;
      if (std::find(result.begin(), result.end(), candidate) !=
          result.end()) {
        continue;
      }
      result.push_back(candidate);
    }
    return result;
  }

 private:
  struct Ref {
    Key key;
    std::uint32_t position;  // index of this user in byKey_[key].members
  };

  std::vector<UserId>& keyEntry(Key key) {
    if (key.index() >= byKey_.size()) byKey_.resize(key.index() + 1);
    return byKey_[key.index()];
  }

  std::vector<Ref>& userRefs(UserId user) {
    if (user.index() >= byUser_.size()) byUser_.resize(user.index() + 1);
    return byUser_[user.index()];
  }

  void patchPosition(UserId user, Key key, std::uint32_t position) {
    for (Ref& ref : byUser_[user.index()]) {
      if (ref.key == key) {
        ref.position = position;
        return;
      }
    }
    assert(false && "moved member missing its registration ref");
  }

  std::vector<std::vector<UserId>> byKey_;  // indexed by key.index()
  std::vector<std::vector<Ref>> byUser_;    // indexed by user.index()
  std::size_t total_ = 0;
};

}  // namespace st::vod
