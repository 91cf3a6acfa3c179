#include "vod/context.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace st::vod {

SystemContext::SystemContext(sim::Simulator& simulator, net::Network& network,
                             const trace::Catalog& catalog,
                             const VideoLibrary& library,
                             const VodConfig& config, Metrics& metrics,
                             std::uint64_t seed)
    : sim_(simulator),
      network_(network),
      catalog_(catalog),
      library_(library),
      config_(config),
      metrics_(metrics),
      rng_(Rng::forPurpose(seed, "protocol")),
      breakers_(catalog.userCount(), config.overload.breakerThreshold,
                config.overload.breakerCooldown),
      serverEndpoint_{static_cast<std::uint32_t>(catalog.userCount())},
      online_(catalog.userCount(), 0),
      offlineSince_(catalog.userCount(), 0),
      released_(catalog.videoCount(), 1) {
  // Register endpoints: one per user plus the origin server. Each endpoint
  // is owned by a community key, so deliveries land on the receiver's
  // shard (DESIGN.md §13). On a community plan a user's key is 1 + their
  // primary interest (first entry of the catalog's sorted interest list;
  // users without interests hash over the categories). The origin server,
  // and every endpoint on the one-key plan, is owned by the root key 0.
  const bool community = simulator.shardPlan().keyCount > 1;
  const auto categories = catalog.categoryCount();
  assert(!community || categories > 0);
  for (std::size_t i = 0; i < catalog.userCount(); ++i) {
    std::uint32_t ownerKey = 0;
    if (community) {
      const trace::User& user = catalog.users()[i];
      ownerKey = 1 + (user.interests.empty()
                          ? static_cast<std::uint32_t>(i % categories)
                          : user.interests.front().index());
    }
    network_.addEndpoint(EndpointId{static_cast<std::uint32_t>(i)},
                         {config.peerUploadBps, config.peerDownloadBps},
                         ownerKey);
  }
  network_.addEndpoint(serverEndpoint_,
                       {config.serverUploadBps, config.serverUploadBps});
  // The origin server admits a bounded number of concurrent streams (each
  // then sustains at least half the video bitrate); excess requests queue.
  // See FlowNetwork::setUploadConcurrencyLimit.
  const auto streamSlots = static_cast<std::size_t>(
      std::max(4.0, 2.0 * config.serverUploadBps / config.bitrateBps));
  network_.flows().setUploadConcurrencyLimit(serverEndpoint_, streamSlots);
  // Overload-control policies (inert unless --overload enables them).
  if (config.overload.playbackFloorBps > 0.0) {
    network_.flows().setPlaybackFloor(config.overload.playbackFloorBps);
  }
  if (config.overload.admissionEnabled()) {
    net::FlowNetwork::AdmissionPolicy policy;
    policy.queueCap = config.overload.serverQueueCap;
    policy.shedPrefetch = true;
    network_.flows().setAdmissionPolicy(serverEndpoint_, policy);
  }
}

bool SystemContext::neighborAllowed(UserId owner, UserId neighbor) {
  if (!breakers_.enabled()) return true;
  const bool wasOpen =
      breakers_.state(owner, neighbor) == BreakerBoard::State::kOpen;
  const bool ok = breakers_.allowed(owner, neighbor, sim_.now());
  if (wasOpen && ok) {
    // The open breaker just granted its half-open trial.
    ST_TRACE(trace_, sim_.now(), kBreaker, owner.value(), neighbor.value(), 2);
  }
  return ok;
}

void SystemContext::reportNeighborFailure(UserId owner, UserId neighbor) {
  if (breakers_.recordFailure(owner, neighbor, sim_.now())) {
    ST_TRACE(trace_, sim_.now(), kBreaker, owner.value(), neighbor.value(), 1);
  }
}

void SystemContext::reportNeighborSuccess(UserId owner, UserId neighbor) {
  if (breakers_.recordSuccess(owner, neighbor)) {
    ST_TRACE(trace_, sim_.now(), kBreaker, owner.value(), neighbor.value(), 0);
  }
}

std::size_t SystemContext::onlineCount() const {
  return static_cast<std::size_t>(
      std::count(online_.begin(), online_.end(), 1));
}

void SystemContext::sendUser(UserId from, UserId to, sim::EventTag tag) {
  tag.stage = static_cast<std::uint16_t>(sim::Stage::kUserDeliver);
  tag.a32 = to.value();
  network_.sendMessage(endpointOf(from), endpointOf(to), tag);
}

void SystemContext::sendToServer(UserId from, sim::EventTag tag) {
  tag.stage = static_cast<std::uint16_t>(sim::Stage::kServerArrive);
  network_.sendMessage(endpointOf(from), serverEndpoint_, tag);
}

void SystemContext::sendFromServer(UserId to, sim::EventTag tag) {
  tag.stage = static_cast<std::uint16_t>(sim::Stage::kFromServer);
  tag.a32 = to.value();
  network_.sendMessage(serverEndpoint_, endpointOf(to), tag);
}

sim::Callback SystemContext::serverRun(const sim::EventTag& tag) {
  sim::EventTag run = tag;
  run.stage = static_cast<std::uint16_t>(sim::Stage::kServerRun);
  return [this, run] { sim_.scheduleTagged(config_.serverProcessing, run); };
}

bool SystemContext::validStage(const sim::EventTag& tag) const {
  switch (static_cast<sim::Stage>(tag.stage)) {
    case sim::Stage::kDirect:
    case sim::Stage::kServerArrive:
    case sim::Stage::kServerRun:
      return true;
    case sim::Stage::kUserDeliver:
    case sim::Stage::kFromServer:
      return validUser(tag.a32);
  }
  return false;
}

std::uint64_t SystemContext::stashPayload(Payload payload) {
  const std::uint64_t id = nextPayloadId_++;
  payloads_.emplace(id, std::move(payload));
  return id;
}

std::optional<SystemContext::Payload> SystemContext::receivePayload(
    std::uint64_t id, UserId user) {
  const auto it = payloads_.find(id);
  if (it == payloads_.end()) return std::nullopt;
  std::optional<Payload> out;
  if (isOnline(user)) out = std::move(it->second);
  payloads_.erase(it);
  return out;
}

bool SystemContext::validPayload(std::uint64_t id, std::size_t uLimit,
                                 std::size_t vLimit) const {
  const auto it = payloads_.find(id);
  if (it == payloads_.end()) return true;
  const auto below = [](const std::vector<std::uint32_t>& list,
                        std::size_t limit) {
    return std::all_of(list.begin(), list.end(),
                       [limit](std::uint32_t x) { return x < limit; });
  };
  return below(it->second.u, uLimit) && below(it->second.v, vLimit);
}

void SystemContext::saveState(snapshot::Writer& w) const {
  w.section(0x54585443);  // "CTXT"
  snapshot::saveRngState(w, rng_.state());
  w.u64(online_.size());
  for (const char flag : online_) w.boolean(flag != 0);
  for (const sim::SimTime since : offlineSince_) w.i64(since);
  w.u64(released_.size());
  for (const char flag : released_) w.boolean(flag != 0);
  breakers_.saveState(w);
  w.u64(payloads_.size());
  for (const auto& [id, payload] : payloads_) {
    w.u64(id);
    w.u64(payload.u.size());
    for (const std::uint32_t x : payload.u) w.u32(x);
    w.u64(payload.v.size());
    for (const std::uint32_t x : payload.v) w.u32(x);
    w.u64(payload.x);
  }
  w.u64(nextPayloadId_);
}

bool SystemContext::loadState(snapshot::Reader& r) {
  r.section(0x54585443, "system context");
  const Rng::State rng = snapshot::loadRngState(r);
  const std::size_t users = r.count(1 + 8);
  if (!r.ok() || users != online_.size()) {
    r.fail("context user count mismatch");
    return false;
  }
  for (char& flag : online_) flag = r.boolean() ? 1 : 0;
  for (sim::SimTime& since : offlineSince_) since = r.i64();
  const std::size_t videos = r.count(1);
  if (!r.ok() || videos != released_.size()) {
    r.fail("context video count mismatch");
    return false;
  }
  for (char& flag : released_) flag = r.boolean() ? 1 : 0;
  if (!breakers_.loadState(r)) return false;
  const std::size_t payloadCount = r.count(8 + 8 + 8 + 8);
  payloads_.clear();
  for (std::size_t i = 0; i < payloadCount; ++i) {
    const std::uint64_t id = r.u64();
    Payload payload;
    payload.u.resize(r.count(4));
    for (std::uint32_t& x : payload.u) x = r.u32();
    payload.v.resize(r.count(4));
    for (std::uint32_t& x : payload.v) x = r.u32();
    payload.x = r.u64();
    if (!r.ok()) return false;
    if (payloads_.count(id) != 0) {
      r.fail("duplicate payload id");
      return false;
    }
    payloads_.emplace(id, std::move(payload));
  }
  nextPayloadId_ = r.u64();
  if (!r.ok()) return false;
  if (!payloads_.empty() && payloads_.rbegin()->first >= nextPayloadId_) {
    r.fail("payload id collides with the id allocator");
    return false;
  }
  rng_.setState(rng);
  return true;
}

}  // namespace st::vod
