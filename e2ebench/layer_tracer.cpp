#include "layer_tracer.h"

#include <chrono>

namespace st::e2e {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

const char* layerName(sim::Component component) {
  switch (component) {
    case sim::Component::kNone: return "untagged";
    case sim::Component::kSession: return "vod.session";
    case sim::Component::kSocialTube: return "core.socialtube";
    case sim::Component::kNetTube: return "baselines.nettube";
    case sim::Component::kPaVod: return "baselines.pavod";
    case sim::Component::kTransfer: return "vod.transfer";
    case sim::Component::kFlow: return "net.flow";
    case sim::Component::kFault: return "fault.injector";
    case sim::Component::kInvariants: return "fault.invariants";
    case sim::Component::kReleases: return "vod.releases";
    case sim::Component::kRunner: return "exp.runner";
    case sim::Component::kRecovery: return "fault.recovery";
  }
  return "?";
}

LayerTracer::Totals& LayerTracer::Totals::operator+=(const Totals& other) {
  rebuilt += other.rebuilt;
  fired += other.fired;
  invoked += other.invoked;
  selfNs += other.selfNs;
  return *this;
}

class LayerTracer::Forwarder final : public sim::EventFactory {
 public:
  Forwarder(LayerTracer& tracer, sim::Component component,
            sim::EventFactory& target)
      : tracer_(tracer), component_(component), target_(target) {}

  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override {
    Totals& totals =
        tracer_.totals_[static_cast<std::size_t>(component_)][tag.kind];
    ++totals.rebuilt;
    return [&tracer = tracer_, &totals,
            inner = target_.rebuild(tag)]() mutable {
      tracer.fire(totals, inner);
    };
  }
  void discard(const sim::EventTag& tag) override { target_.discard(tag); }

  [[nodiscard]] sim::Component component() const { return component_; }
  [[nodiscard]] sim::EventFactory& target() const { return target_; }

 private:
  LayerTracer& tracer_;
  sim::Component component_;
  sim::EventFactory& target_;
};

LayerTracer::LayerTracer(sim::Simulator& sim) : sim_(sim) {
  for (std::size_t i = 1; i < sim::kComponentCount; ++i) {
    const auto component = static_cast<sim::Component>(i);
    if (sim::EventFactory* target = sim_.factory(component)) {
      forwarders_.push_back(
          std::make_unique<Forwarder>(*this, component, *target));
      sim_.registerFactory(component, forwarders_.back().get());
    }
  }
}

LayerTracer::~LayerTracer() {
  for (const auto& forwarder : forwarders_) {
    sim_.registerFactory(forwarder->component(), &forwarder->target());
  }
}

void LayerTracer::fire(Totals& totals, sim::Callback& inner) {
  const bool nested = !stack_.empty();
  ++(nested ? totals.invoked : totals.fired);
  stack_.emplace_back();
  const Clock::time_point start = Clock::now();
  inner();
  const std::int64_t elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count();
  totals.selfNs += elapsed - stack_.back().childNs;
  stack_.pop_back();
  if (nested) {
    stack_.back().childNs += elapsed;
  } else {
    topLevelNs_ += elapsed;
  }
}

LayerTracer::Totals LayerTracer::component(sim::Component component) const {
  Totals sum;
  for (const Totals& kind : totals_[static_cast<std::size_t>(component)]) {
    sum += kind;
  }
  return sum;
}

void LayerTracer::print(std::FILE* out) const {
  std::fprintf(out, "  %-18s %4s %12s %12s %10s %10s\n", "layer", "kind",
               "enqueued", "fired", "invoked", "self_s");
  for (std::size_t c = 0; c < sim::kComponentCount; ++c) {
    for (std::size_t kind = 0; kind < totals_[c].size(); ++kind) {
      const Totals& t = totals_[c][kind];
      if (t.rebuilt == 0 && t.fired == 0) continue;
      std::fprintf(out, "  %-18s %4zu %12llu %12llu %10llu %10.4f\n",
                   layerName(static_cast<sim::Component>(c)), kind,
                   static_cast<unsigned long long>(t.enqueued()),
                   static_cast<unsigned long long>(t.fired),
                   static_cast<unsigned long long>(t.invoked),
                   static_cast<double>(t.selfNs) * 1e-9);
    }
  }
}

}  // namespace st::e2e
