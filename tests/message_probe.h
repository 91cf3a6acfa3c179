// A tiny EventFactory for tests of the tagged message path (Network and
// SystemContext sends). Each message is tagged with a caller-chosen id in
// tag.a; the probe records every delivery and every discard by id, so a
// test can check that each message was delivered or discarded exactly once.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_tag.h"
#include "sim/simulator.h"
#include "vod/context.h"

namespace st::testing {

class MessageProbe final : public sim::EventFactory {
 public:
  // The probe borrows the runner's component slot, which these test stacks
  // leave free. With a SystemContext, deliveries pass through its
  // delivery-stage guards (online checks, the server-processing hop).
  static constexpr sim::Component kComponent = sim::Component::kRunner;

  struct Delivery {
    std::uint64_t id;
    sim::SimTime at;
  };

  explicit MessageProbe(sim::Simulator& sim, vod::SystemContext* ctx = nullptr)
      : sim_(sim), ctx_(ctx) {
    sim_.registerFactory(kComponent, this);
  }
  ~MessageProbe() override { sim_.registerFactory(kComponent, nullptr); }
  MessageProbe(const MessageProbe&) = delete;
  MessageProbe& operator=(const MessageProbe&) = delete;

  [[nodiscard]] static sim::EventTag message(std::uint64_t id) {
    return sim::makeTag(kComponent, /*kind=*/0, id);
  }

  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override {
    auto action = [this, id = tag.a] {
      delivered.push_back({id, sim_.now()});
      if (onDeliver) onDeliver(id);
    };
    if (ctx_ == nullptr) return action;
    return ctx_->wrapStage(tag, std::move(action));
  }
  void discard(const sim::EventTag& tag) override { ++discarded[tag.a]; }

  // Optional reaction to a delivery (e.g. a reply), called with its id.
  std::function<void(std::uint64_t)> onDeliver;
  std::vector<Delivery> delivered;
  std::map<std::uint64_t, int> discarded;  // id -> discard() calls

 private:
  sim::Simulator& sim_;
  vod::SystemContext* ctx_;
};

}  // namespace st::testing
