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

// Gray-failure latency stretch. factor == 1.0 is the exact identity (no
// float round-trip), so runs without slow/flap windows stay bitwise equal.
sim::SimTime stretch(sim::SimTime latency, double factor) {
  if (factor == 1.0) return latency;
  return static_cast<sim::SimTime>(static_cast<double>(latency) * factor);
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
      stretch(latency_->delay(from, to, rng_), decision.delayFactor) +
      decision.extraDelay;
  const std::uint32_t key =
      to.index() < ownerKey_.size() ? ownerKey_[to.index()] : 0;
  sim_.scheduleForKeyTagged(key, delay, tag);
  if (decision.duplicate) {
    // Dup fault: a second delivery of the very same tag, under its own
    // latency draw (it may overtake the original). Receivers are
    // generation-stamped/idempotent, so the copy is absorbed.
    ++messagesDuplicated_;
    const sim::SimTime dupDelay =
        stretch(latency_->delay(from, to, rng_), decision.delayFactor) +
        decision.extraDelay;
    sim_.scheduleForKeyTagged(key, dupDelay, tag);
  }
  return true;
}

sim::SimTime Network::sampleDelay(EndpointId from, EndpointId to) {
  return latency_->delay(from, to, rng_);
}

}  // namespace st::net
