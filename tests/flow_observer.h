// RAII FlowObserver for tests: records shed/abort/completion notifications
// and lets a test attach a per-flow completion hook right after startFlow
// (flows never complete synchronously, so attaching after the call is safe).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/flow_network.h"

namespace st::net::test {

class TestFlowObserver final : public FlowObserver {
 public:
  explicit TestFlowObserver(FlowNetwork& flows) : flows_(flows) {
    flows_.addObserver(this);
  }
  ~TestFlowObserver() override { flows_.removeObserver(this); }
  TestFlowObserver(const TestFlowObserver&) = delete;
  TestFlowObserver& operator=(const TestFlowObserver&) = delete;

  // Runs `hook` when `flow` completes (at most once).
  void onComplete(FlowId flow, std::function<void()> hook) {
    if (flow.valid()) hooks_[flow] = std::move(hook);
  }

  struct Shed {
    EndpointId src;
    EndpointId dst;
    FlowClass flowClass;
  };
  struct Abort {
    FlowId flow;
    std::uint64_t bytesDone;
  };

  void onFlowShed(EndpointId src, EndpointId dst,
                  FlowClass flowClass) override {
    shed.push_back({src, dst, flowClass});
  }
  void onFlowAborted(FlowId flow, std::uint64_t bytesDone,
                     const sim::EventTag&) override {
    aborts.push_back({flow, bytesDone});
  }
  void onFlowCompleted(FlowId flow) override {
    completions.push_back(flow);
    const auto it = hooks_.find(flow);
    if (it != hooks_.end()) {
      const std::function<void()> hook = std::move(it->second);
      hooks_.erase(it);
      hook();
    }
  }

  std::vector<Shed> shed;
  std::vector<Abort> aborts;
  std::vector<FlowId> completions;

 private:
  FlowNetwork& flows_;
  std::unordered_map<FlowId, std::function<void()>> hooks_;
};

}  // namespace st::net::test
