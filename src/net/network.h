// Facade combining the message layer (control plane) with the flow engine
// (data plane) under one latency/loss model.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/flow_network.h"
#include "net/latency.h"
#include "obs/registry.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/strong_id.h"

namespace st::net {

// Interception point for scripted control-plane faults (blackholes,
// partitions, loss/latency windows, server outages, gray failures, and
// delivery faults). The injector installed via Network::setFaultHook sees
// every message before the latency model does; it may drop it outright,
// stretch its delivery delay (additively or by a factor), or request a
// duplicate delivery. Dropped messages are counted separately from model
// loss (messages_faulted), so a fault run's degradation is attributable in
// the counter snapshot.
class MessageFaultHook {
 public:
  // Ceiling on a message's whole delivery delay: the modeled latency times
  // delayFactor, plus extraDelay. Stacked windows or a factor like 1e300
  // would otherwise leave SimTime's range; a saturated message arrives a
  // simulated year later, past any horizon, and now + delay still fits.
  static constexpr sim::SimTime kMaxDelay = 365 * sim::kDay;

  struct Decision {
    bool drop = false;
    sim::SimTime extraDelay = 0;
    // Gray failure: the modeled latency is multiplied by this before
    // extraDelay is added. Always >= 1, so the sharded engine's lookahead
    // floor is preserved; 1.0 is the exact identity (bitwise-inert).
    double delayFactor = 1.0;
    // Delivery fault: deliver the message twice, the copy under an
    // independent latency draw.
    bool duplicate = false;

    // Adds `delay` (>= 0) to extraDelay, saturating at kMaxDelay.
    void addDelay(sim::SimTime delay) {
      extraDelay =
          delay >= kMaxDelay - extraDelay ? kMaxDelay : extraDelay + delay;
    }
  };

  virtual ~MessageFaultHook() = default;
  virtual Decision onMessage(EndpointId from, EndpointId to) = 0;
};

class Network {
 public:
  Network(sim::Simulator& simulator, std::unique_ptr<LatencyModel> latency,
          std::uint64_t seed);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- endpoints -----------------------------------------------------------
  // `ownerKey` is the community key (DESIGN.md §13) that deliveries to the
  // endpoint execute under; it must be a key of the simulator's plan. Key 0,
  // the root, is the default and the only key of the one-key plan.
  void addEndpoint(EndpointId id, EndpointCapacity capacity,
                   std::uint32_t ownerKey = 0) {
    flows_.addEndpoint(id, capacity, ownerKey);
    if (ownerKey_.size() <= id.index()) ownerKey_.resize(id.index() + 1, 0);
    ownerKey_[id.index()] = ownerKey;
  }

  // --- control plane -------------------------------------------------------
  // Delivers the tagged event at `to` after the model's one-way delay, on
  // `to`'s owner key, through the tag's EventFactory. A lost or fault-
  // dropped message routes the tag to Simulator::discardTagged so factory-
  // managed payloads are freed (protocols recover via timeouts). Returns
  // true if the message was actually sent (not lost).
  bool sendMessage(EndpointId from, EndpointId to, const sim::EventTag& tag);

  // Installs (or clears, with nullptr) the scripted-fault hook. The hook is
  // consulted on every sendMessage before the latency model; it must outlive
  // its installation (the fault::Injector detaches itself on destruction).
  void setFaultHook(MessageFaultHook* hook) { faultHook_ = hook; }

  // --- data plane ----------------------------------------------------------
  FlowNetwork& flows() { return flows_; }
  const FlowNetwork& flows() const { return flows_; }

  [[nodiscard]] std::uint64_t messagesSent() const { return messagesSent_; }
  [[nodiscard]] std::uint64_t messagesLost() const { return messagesLost_; }
  [[nodiscard]] std::uint64_t messagesFaulted() const {
    return messagesFaulted_;
  }

  // Exposes the control-plane tallies as pull gauges. The registry must not
  // outlive this network.
  void registerInto(obs::Registry& registry) {
    registry.addGauge("messages_sent", [this] { return messagesSent_; });
    registry.addGauge("messages_lost", [this] { return messagesLost_; });
    registry.addGauge("messages_faulted", [this] { return messagesFaulted_; });
  }

  // Checkpoint/restore: the jitter RNG position and the three tallies.
  // Latency models are stateless (seed-hashed per-pair values), so the RNG
  // stream is the only mutable message-plane state besides the counters.
  void saveState(snapshot::Writer& w) const {
    w.section(0x5754454e);  // "NETW"
    snapshot::saveRngState(w, rng_.state());
    w.u64(messagesSent_);
    w.u64(messagesLost_);
    w.u64(messagesFaulted_);
  }
  bool loadState(snapshot::Reader& r) {
    r.section(0x5754454e, "network");
    const Rng::State rng = snapshot::loadRngState(r);
    messagesSent_ = r.u64();
    messagesLost_ = r.u64();
    messagesFaulted_ = r.u64();
    if (!r.ok()) return false;
    rng_.setState(rng);
    return true;
  }

 private:
  sim::Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  FlowNetwork flows_;
  Rng rng_;
  MessageFaultHook* faultHook_ = nullptr;
  // By endpoint index; endpoints never added are owned by the root key.
  std::vector<std::uint32_t> ownerKey_;
  std::uint64_t messagesSent_ = 0;
  std::uint64_t messagesLost_ = 0;
  std::uint64_t messagesFaulted_ = 0;
};

}  // namespace st::net
