// Outside-in per-layer attribution for the traced pass.
//
// Every protocol event is built by its component's sim::EventFactory, so a
// forwarding factory in front of each registered one sees the whole event
// stream without a change to the simulator:
//   * rebuild() counts one enqueue for (component, tag kind);
//   * the callback it returns times its own fire;
//   * spans nest through a stack. A fire that starts while another runs is a
//     synchronous Simulator::invokeTagged completion: its time is taken out
//     of the parent's self time and it does not count as an enqueue.
// Periodic series are built once and fire many times, so they count one
// enqueue per series. Totals stay in memory; print() writes them at the end.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "sim/event_tag.h"
#include "sim/simulator.h"

namespace st::e2e {

// Module-named layer of a component ("net.flow", "core.socialtube", ...).
[[nodiscard]] const char* layerName(sim::Component component);

class LayerTracer {
 public:
  struct Totals {
    std::uint64_t rebuilt = 0;  // factory rebuild() calls
    std::uint64_t fired = 0;    // fires from the event loop
    std::uint64_t invoked = 0;  // synchronous fires nested in another fire
    std::int64_t selfNs = 0;    // span time minus nested spans

    // Events that went through the queue.
    [[nodiscard]] std::uint64_t enqueued() const { return rebuilt - invoked; }
    Totals& operator+=(const Totals& other);
  };

  // Puts a forwarding factory in front of every factory registered on `sim`.
  explicit LayerTracer(sim::Simulator& sim);
  // Puts the original factories back.
  ~LayerTracer();
  LayerTracer(const LayerTracer&) = delete;
  LayerTracer& operator=(const LayerTracer&) = delete;

  [[nodiscard]] Totals component(sim::Component component) const;
  // Wall time inside top-level spans, i.e. the sum of every self time.
  [[nodiscard]] double handlerSeconds() const { return topLevelNs_ * 1e-9; }

  // One line per (component, kind) that saw any event.
  void print(std::FILE* out) const;

 private:
  class Forwarder;
  struct Frame {
    std::int64_t childNs = 0;
  };

  void fire(Totals& totals, sim::Callback& inner);

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Forwarder>> forwarders_;
  std::array<std::array<Totals, 256>, sim::kComponentCount> totals_{};
  std::vector<Frame> stack_;
  std::int64_t topLevelNs_ = 0;
};

}  // namespace st::e2e
