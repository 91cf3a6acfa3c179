// Shared wiring passed to every VoD system implementation.
//
// Users map to endpoints by index; the origin server is one extra endpoint.
// Control-plane helpers deliver tagged events across the latency model and
// drop messages whose receiver is offline at delivery time (protocols
// recover via their phase deadlines).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/network.h"
#include "obs/event_trace.h"
#include "sim/simulator.h"
#include "trace/catalog.h"
#include "util/rng.h"
#include "vod/breaker.h"
#include "vod/config.h"
#include "vod/library.h"
#include "vod/metrics.h"

namespace st::vod {

// Payload id lists: users travel as their raw 32-bit values.
inline std::vector<UserId> toUsers(const std::vector<std::uint32_t>& raw) {
  std::vector<UserId> users;
  users.reserve(raw.size());
  for (const std::uint32_t value : raw) users.push_back(UserId{value});
  return users;
}
inline std::vector<std::uint32_t> fromUsers(std::span<const UserId> users) {
  std::vector<std::uint32_t> raw;
  raw.reserve(users.size());
  for (const UserId user : users) raw.push_back(user.value());
  return raw;
}

class SystemContext final {
 public:
  SystemContext(sim::Simulator& simulator, net::Network& network,
                const trace::Catalog& catalog, const VideoLibrary& library,
                const VodConfig& config, Metrics& metrics, std::uint64_t seed);

  SystemContext(const SystemContext&) = delete;
  SystemContext& operator=(const SystemContext&) = delete;

  sim::Simulator& sim() { return sim_; }
  net::Network& network() { return network_; }
  const trace::Catalog& catalog() const { return catalog_; }
  const VideoLibrary& library() const { return library_; }
  const VodConfig& config() const { return config_; }
  Metrics& metrics() { return metrics_; }
  Rng& rng() { return rng_; }

  // Optional structured event sink (see obs/event_trace.h). Null by default;
  // protocol code emits through the ST_TRACE macro, which tolerates null and
  // compiles out entirely under ST_TRACE=OFF.
  [[nodiscard]] obs::EventTrace* trace() const { return trace_; }
  void setTrace(obs::EventTrace* trace) { trace_ = trace; }

  [[nodiscard]] EndpointId endpointOf(UserId user) const {
    return EndpointId{user.value()};
  }
  [[nodiscard]] EndpointId serverEndpoint() const { return serverEndpoint_; }

  [[nodiscard]] bool isOnline(UserId user) const {
    return online_[user.index()] != 0;
  }
  void setOnline(UserId user, bool online) {
    online_[user.index()] = online ? 1 : 0;
    if (!online) offlineSince_[user.index()] = sim_.now();
  }
  // When the user last went offline (0 for never-online users). Only
  // meaningful while the user is offline; the invariant checker compares it
  // against the repair horizon to age stale links.
  [[nodiscard]] sim::SimTime offlineSince(UserId user) const {
    return offlineSince_[user.index()];
  }
  [[nodiscard]] std::size_t onlineCount() const;

  // Video release state (dynamic uploads, see vod/releases.h). Everything
  // is released by default; the ReleaseManager holds some videos back and
  // publishes them mid-run. Unreleased videos are never selected,
  // prefetched, or served.
  [[nodiscard]] bool isReleased(VideoId video) const {
    return released_[video.index()] != 0;
  }
  void setReleased(VideoId video, bool released) {
    released_[video.index()] = released ? 1 : 0;
  }

  // --- circuit breakers (overload control, see vod/breaker.h) ---------------
  // Inert unless config.overload.breakerThreshold > 0: neighborAllowed()
  // answers true and the report helpers do nothing, so baseline runs are
  // untouched. The wrappers emit kBreaker trace events on transitions
  // (value: 1 = opened, 2 = half-open trial, 0 = closed).
  [[nodiscard]] BreakerBoard& breakers() { return breakers_; }
  bool neighborAllowed(UserId owner, UserId neighbor);
  void reportNeighborFailure(UserId owner, UserId neighbor);
  void reportNeighborSuccess(UserId owner, UserId neighbor);

  // --- messaging -------------------------------------------------------------
  // Every message is a serializable EventTag routed through the component's
  // EventFactory. The helpers stamp the delivery stage (and receiver) onto
  // the tag; the factory's rebuild() applies the matching guard via
  // wrapStage().
  //
  // User to user: silently dropped if the receiver is offline when the
  // message arrives (or lost in transit).
  void sendUser(UserId from, UserId to, sim::EventTag tag);
  // Request to the origin server: latency + processing delay, then the
  // event runs (the server never churns).
  void sendToServer(UserId from, sim::EventTag tag);
  // Server-to-user reply; dropped if the user went offline.
  void sendFromServer(UserId to, sim::EventTag tag);

  // Wraps a component's raw event action in its delivery-stage guard: online
  // checks for user delivery, the server-processing hop for requests.
  // Factories call this from rebuild() so runtime and restore share one
  // path. For kServerArrive the action is ignored — the wrapper schedules
  // the same tag at kServerRun. The guard captures the action itself, not a
  // Callback around it, so a guarded [this, tag] closure still fits
  // Callback's inline buffer and a delivery allocates nothing.
  template <typename Action>
  [[nodiscard]] sim::Callback wrapStage(const sim::EventTag& tag,
                                        Action action) {
    switch (static_cast<sim::Stage>(tag.stage)) {
      case sim::Stage::kUserDeliver:
      case sim::Stage::kFromServer:
        return [this, to = UserId{tag.a32}, fn = std::move(action)]() mutable {
          if (isOnline(to)) fn();
        };
      case sim::Stage::kServerArrive:
        return serverRun(tag);
      case sim::Stage::kDirect:
      case sim::Stage::kServerRun:
        break;
    }
    return action;
  }

  // --- restore validation (EventFactory::onRestored) -------------------------
  // A snapshot is outside input: factories check every tag word they index
  // with before the restore succeeds. validStage() checks the delivery
  // stage and, for user deliveries, the receiver wrapStage() reads.
  [[nodiscard]] bool validStage(const sim::EventTag& tag) const;
  [[nodiscard]] bool validUser(std::uint64_t id) const {
    return id < catalog_.userCount();
  }
  [[nodiscard]] bool validVideo(std::uint64_t id) const {
    return id < catalog_.videoCount();
  }
  [[nodiscard]] bool validChannel(std::uint64_t id) const {
    return id < catalog_.channelCount();
  }
  [[nodiscard]] bool validCategory(std::uint64_t id) const {
    return id < catalog_.categoryCount();
  }

  // --- payload pool ----------------------------------------------------------
  // Serializable side-storage for event arguments that do not fit in a
  // 40-byte tag (provider lists, gossip digests). The event's tag carries
  // the pool id; the consuming handler (receivePayload) or the factory's
  // discard() when the message is lost frees the entry explicitly — entries
  // are never reference-counted and cancellable events must not carry
  // payloads.
  struct Payload {
    std::vector<std::uint32_t> u;
    std::vector<std::uint32_t> v;
    std::uint64_t x = 0;
  };
  std::uint64_t stashPayload(Payload payload);
  // Receipt of a payload-carrying message at `user`, in one order for every
  // handler: a freed id is a duplicated delivery (under dup fault windows
  // the same tag arrives twice and the first copy consumed the payload), so
  // the copy is a no-op; an offline receiver frees the payload; otherwise
  // the payload is moved out. Empty means the handler does nothing.
  std::optional<Payload> receivePayload(std::uint64_t id, UserId user);
  // For discard(): the dropped message may be the second copy of one whose
  // first delivery already consumed the payload.
  void freePayloadIfLive(std::uint64_t id) { payloads_.erase(id); }
  // For onRestored() of a payload-carrying kind (it runs after the pool is
  // restored): every `u` entry is below `uLimit` and every `v` entry below
  // `vLimit`, the id count of what the handler uses the list as (0: the
  // list must be empty). An id no longer pooled passes, as at runtime: it
  // is a duplicate copy whose first delivery consumed the payload.
  [[nodiscard]] bool validPayload(std::uint64_t id, std::size_t uLimit,
                                  std::size_t vLimit) const;

  // Checkpoint/restore: protocol RNG, presence/release flags, breaker
  // board, and the payload pool. Endpoint wiring and overload policies are
  // reapplied by construction from the same config.
  void saveState(snapshot::Writer& w) const;
  bool loadState(snapshot::Reader& r);

 private:
  // kServerArrive: queue the processing delay, then run the same tag at
  // kServerRun.
  [[nodiscard]] sim::Callback serverRun(const sim::EventTag& tag);
  sim::Simulator& sim_;
  net::Network& network_;
  const trace::Catalog& catalog_;
  const VideoLibrary& library_;
  const VodConfig& config_;
  Metrics& metrics_;
  obs::EventTrace* trace_ = nullptr;
  Rng rng_;
  BreakerBoard breakers_;
  EndpointId serverEndpoint_;
  std::vector<char> online_;
  std::vector<sim::SimTime> offlineSince_;
  std::vector<char> released_;
  // Ordered map: snapshot writes iterate it, so the byte stream is canonical.
  std::map<std::uint64_t, Payload> payloads_;
  std::uint64_t nextPayloadId_ = 1;
};

}  // namespace st::vod
