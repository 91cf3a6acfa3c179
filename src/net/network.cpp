#include "net/network.h"

#include <cassert>
#include <utility>

namespace st::net {

Network::Network(sim::Simulator& simulator,
                 std::unique_ptr<LatencyModel> latency, std::uint64_t seed)
    : sim_(simulator),
      latency_(std::move(latency)),
      flows_(simulator),
      rng_(Rng::forPurpose(seed, "network-jitter")) {
  assert(latency_ != nullptr);
}

namespace {

// The gray-failure stretch plus the extra delay, saturated at
// MessageFaultHook::kMaxDelay. factor == 1.0 is the exact identity (no float
// round-trip), so runs without slow/flap windows stay bitwise equal.
sim::SimTime deliveryDelay(sim::SimTime latency,
                           const MessageFaultHook::Decision& decision) {
  constexpr sim::SimTime kMax = MessageFaultHook::kMaxDelay;
  if (decision.delayFactor != 1.0) {
    const double stretched =
        static_cast<double>(latency) * decision.delayFactor;
    // NaN and infinity fail the comparison too.
    latency = stretched < static_cast<double>(kMax)
                  ? static_cast<sim::SimTime>(stretched)
                  : kMax;
  }
  return decision.extraDelay >= kMax - latency ? kMax
                                               : latency + decision.extraDelay;
}

}  // namespace

bool Network::sendMessage(EndpointId from, EndpointId to,
                          const sim::EventTag& tag) {
  ++messagesSent_;
  MessageFaultHook::Decision decision;
  if (faultHook_ != nullptr) {
    decision = faultHook_->onMessage(from, to);
    if (decision.drop) {
      ++messagesFaulted_;
      sim_.discardTagged(tag);
      return false;
    }
  }
  if (latency_->lost(from, to, rng_)) {
    ++messagesLost_;
    sim_.discardTagged(tag);
    return false;
  }
  const sim::SimTime delay =
      deliveryDelay(latency_->delay(from, to, rng_), decision);
  const std::uint32_t key =
      to.index() < ownerKey_.size() ? ownerKey_[to.index()] : 0;
  sim_.scheduleForKeyTagged(key, delay, tag);
  if (decision.duplicate) {
    // Dup fault: a second delivery of the very same tag, under its own
    // latency draw (it may overtake the original). Receivers are
    // generation-stamped/idempotent, so the copy is absorbed.
    const sim::SimTime dupDelay =
        deliveryDelay(latency_->delay(from, to, rng_), decision);
    sim_.scheduleForKeyTagged(key, dupDelay, tag);
  }
  return true;
}

}  // namespace st::net
