// Flow-solver microbenchmark: the batched incremental fair-share solver vs
// the pre-refactor eager solver, on the two churn patterns that dominate a
// protocol run.
//
//  * churn      — 1k endpoints under a mixed add/remove/preempt load: striped
//                 body starts (8 flows into one destination, one batch),
//                 batched cancel waves, node departures, all against a
//                 slot-limited admission-controlled origin hub and a playback
//                 floor that pauses/resumes prefetch-class flows;
//  * drop_storm — a hub uploading to 256 peers departs; the eager solver
//                 re-solved the hub's surviving uploads after every single
//                 removal (quadratic in degree), the batch drains each dirty
//                 endpoint once.
//
// The legacy solver below is a faithful copy of the previous
// src/net/flow_network.cpp: per-mutation refreshEndpoint() sweeps,
// std::function completion/shed/abort callbacks, and a FlowId-keyed hash map
// as the flow store (the snapshot and event-tag machinery is stripped;
// completions ride plain scheduler callbacks). Keeping it in-binary makes
// the speedup measurable under identical flags on the same machine.
//
// Both engines replay the identical deterministic scenario and must agree
// exactly on completions, aborts, sheds, and delivered bytes — the bench
// doubles as a differential test of the incremental solver (scripts/check.sh
// runs it with --smoke).
//
// Emits BENCH_flow.json (path = first positional arg, default
// ./BENCH_flow.json). Regenerate the committed baseline with:
//   cmake --build build --target flow_bench && ./build/bench/flow_bench BENCH_flow.json
#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "net/flow_network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/strong_id.h"

namespace st::bench {
namespace {

// --- the pre-refactor eager solver, verbatim (minus snapshot/tags) ----------
namespace legacy {

using net::EndpointCapacity;
using net::FlowClass;

class FlowNetwork {
 public:
  using CompletionCallback = std::function<void()>;
  using ShedCallback = std::function<void(EndpointId, EndpointId, FlowClass)>;
  using AbortCallback = std::function<void(FlowId, std::uint64_t)>;

  struct FlowOptions {
    FlowClass flowClass = FlowClass::kPlayback;
    sim::SimTime deadline = 0;
  };
  struct AdmissionPolicy {
    std::size_t queueCap = 0;
    bool shedPrefetch = true;
  };

  explicit FlowNetwork(sim::Simulator& simulator) : sim_(simulator) {}

  void addEndpoint(EndpointId id, EndpointCapacity capacity) {
    if (endpoints_.size() <= id.index()) endpoints_.resize(id.index() + 1);
    endpoints_[id.index()].capacity = capacity;
  }
  void setUploadConcurrencyLimit(EndpointId endpoint, std::size_t limit) {
    endpoints_[endpoint.index()].uploadLimit = limit;
  }
  void setPlaybackFloor(double floorBps) { floorBps_ = floorBps; }
  void setAdmissionPolicy(EndpointId endpoint, AdmissionPolicy policy) {
    endpoints_[endpoint.index()].admission = policy;
    endpoints_[endpoint.index()].admissionEnabled = true;
  }
  void setShedCallback(ShedCallback callback) {
    shedCallback_ = std::move(callback);
  }

  FlowId startFlow(EndpointId src, EndpointId dst, std::uint64_t bytes,
                   FlowOptions options, CompletionCallback onComplete) {
    EndpointState& source = endpoints_[src.index()];
    const std::size_t usedSlots =
        source.uploads.size() + source.pausedUploads.size();
    if (usedSlots >= source.uploadLimit) {
      if (shouldShed(src, options.flowClass, options.deadline)) {
        ++source.flowsShed;
        if (shedCallback_) shedCallback_(src, dst, options.flowClass);
        return FlowId::invalid();
      }
      const FlowId id{nextFlowId_++};
      Flow flow;
      flow.src = src;
      flow.dst = dst;
      flow.bytesRemaining = static_cast<double>(bytes);
      flow.totalBytes = bytes;
      flow.lastUpdate = sim_.now();
      flow.flowClass = options.flowClass;
      flow.queued = true;
      flow.onComplete = std::move(onComplete);
      flows_.emplace(id, std::move(flow));
      source.uploadQueue.push_back(id);
      endpoints_[dst.index()].queuedInbound.push_back(id);
      return id;
    }
    const FlowId id{nextFlowId_++};
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.bytesRemaining = static_cast<double>(bytes);
    flow.totalBytes = bytes;
    flow.lastUpdate = sim_.now();
    flow.flowClass = options.flowClass;
    flow.onComplete = std::move(onComplete);
    flows_.emplace(id, std::move(flow));
    activate(id, flows_.at(id));
    return id;
  }

  void cancelFlow(FlowId id) {
    if (flows_.count(id) == 0) return;
    removeFlow(id, /*completed=*/false);
  }

  void dropEndpointFlows(EndpointId endpoint, const AbortCallback& onAborted) {
    EndpointState& state = endpoints_[endpoint.index()];
    const std::vector<FlowId> queued(state.uploadQueue.begin(),
                                     state.uploadQueue.end());
    for (const FlowId id : queued) removeFlow(id, /*completed=*/false);
    const std::vector<FlowId> inbound = state.queuedInbound;
    for (const FlowId id : inbound) removeFlow(id, /*completed=*/false);
    std::vector<FlowId> doomed = state.uploads;
    doomed.insert(doomed.end(), state.downloads.begin(),
                  state.downloads.end());
    doomed.insert(doomed.end(), state.pausedUploads.begin(),
                  state.pausedUploads.end());
    doomed.insert(doomed.end(), state.pausedDownloads.begin(),
                  state.pausedDownloads.end());
    for (const FlowId id : doomed) {
      const auto it = flows_.find(id);
      if (it == flows_.end()) continue;
      settle(it->second);
      const bool isDownload = it->second.dst == endpoint;
      const auto bytesDone = static_cast<std::uint64_t>(
          static_cast<double>(it->second.totalBytes) -
          it->second.bytesRemaining);
      const bool notify = onAborted && !isDownload;
      removeFlow(id, /*completed=*/false);
      if (notify) onAborted(id, bytesDone);
    }
  }

  [[nodiscard]] std::uint64_t bytesUploaded(EndpointId id) const {
    return endpoints_[id.index()].bytesUploaded;
  }
  [[nodiscard]] std::size_t activeFlows() const { return flows_.size(); }

 private:
  struct Flow {
    EndpointId src;
    EndpointId dst;
    double bytesRemaining = 0.0;
    double rateBps = 0.0;
    sim::SimTime lastUpdate = 0;
    std::uint64_t totalBytes = 0;
    FlowClass flowClass = FlowClass::kPlayback;
    bool queued = false;
    bool paused = false;
    sim::EventHandle completion;
    CompletionCallback onComplete;
  };
  struct EndpointState {
    EndpointCapacity capacity;
    std::vector<FlowId> uploads;
    std::vector<FlowId> downloads;
    std::size_t uploadLimit = std::numeric_limits<std::size_t>::max();
    std::deque<FlowId> uploadQueue;
    std::vector<FlowId> queuedInbound;
    std::vector<FlowId> pausedUploads;
    std::vector<FlowId> pausedDownloads;
    AdmissionPolicy admission;
    bool admissionEnabled = false;
    std::uint64_t bytesUploaded = 0;
    std::uint64_t bytesDownloaded = 0;
    std::uint64_t flowsShed = 0;
  };

  static constexpr double kEpsilonBytes = 0.5;
  static constexpr double kRateEpsilon = 1e-9;

  static void eraseId(std::vector<FlowId>& list, FlowId id) {
    const auto it = std::find(list.begin(), list.end(), id);
    assert(it != list.end());
    list.erase(it);
  }

  [[nodiscard]] double fairRate(const Flow& flow) const {
    const EndpointState& src = endpoints_[flow.src.index()];
    const EndpointState& dst = endpoints_[flow.dst.index()];
    const double up =
        src.capacity.uploadBps / static_cast<double>(src.uploads.size());
    const double down =
        dst.capacity.downloadBps / static_cast<double>(dst.downloads.size());
    return std::min(up, down);
  }

  void settle(Flow& flow) {
    if (flow.queued || flow.paused) {
      flow.lastUpdate = sim_.now();
      return;
    }
    const sim::SimTime now = sim_.now();
    if (now > flow.lastUpdate && flow.rateBps > 0.0) {
      const double elapsedSeconds = sim::toSeconds(now - flow.lastUpdate);
      flow.bytesRemaining = std::max(
          0.0, flow.bytesRemaining - flow.rateBps / 8.0 * elapsedSeconds);
    }
    flow.lastUpdate = now;
  }

  void reschedule(FlowId id, Flow& flow) {
    if (flow.completion.valid()) sim_.cancel(flow.completion);
    flow.rateBps = fairRate(flow);
    if (flow.rateBps <= 0.0) {
      flow.completion = sim::EventHandle{};
      return;
    }
    const double seconds = flow.bytesRemaining * 8.0 / flow.rateBps;
    const auto delay = std::max<sim::SimTime>(sim::fromSeconds(seconds), 0);
    flow.completion = sim_.schedule(delay, [this, id] { finish(id); });
  }

  void refreshEndpoint(EndpointId endpoint) {
    EndpointState& state = endpoints_[endpoint.index()];
    std::vector<FlowId> touched = state.uploads;
    touched.insert(touched.end(), state.downloads.begin(),
                   state.downloads.end());
    for (const FlowId id : touched) {
      const auto it = flows_.find(id);
      settle(it->second);
      reschedule(id, it->second);
    }
  }

  [[nodiscard]] double estimatedBacklogSeconds(
      const EndpointState& state) const {
    if (state.capacity.uploadBps <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    const sim::SimTime now = sim_.now();
    double backlogBytes = 0.0;
    for (const FlowId id : state.uploads) {
      const Flow& flow = flows_.at(id);
      double remaining = flow.bytesRemaining;
      if (now > flow.lastUpdate && flow.rateBps > 0.0) {
        remaining -=
            flow.rateBps / 8.0 * sim::toSeconds(now - flow.lastUpdate);
      }
      backlogBytes += std::max(0.0, remaining);
    }
    for (const FlowId id : state.pausedUploads) {
      backlogBytes += flows_.at(id).bytesRemaining;
    }
    for (const FlowId id : state.uploadQueue) {
      backlogBytes += flows_.at(id).bytesRemaining;
    }
    return backlogBytes * 8.0 / state.capacity.uploadBps;
  }

  [[nodiscard]] bool shouldShed(EndpointId src, FlowClass flowClass,
                                sim::SimTime deadline) const {
    const EndpointState& state = endpoints_[src.index()];
    if (!state.admissionEnabled) return false;
    if (flowClass == FlowClass::kPrefetch && state.admission.shedPrefetch) {
      return true;
    }
    if (state.admission.queueCap > 0 &&
        state.uploadQueue.size() >= state.admission.queueCap) {
      return true;
    }
    if (deadline > 0 &&
        estimatedBacklogSeconds(state) > sim::toSeconds(deadline)) {
      return true;
    }
    return false;
  }

  void activate(FlowId id, Flow& flow) {
    if (flow.queued) {
      eraseId(endpoints_[flow.dst.index()].queuedInbound, id);
    }
    flow.queued = false;
    flow.paused = false;
    flow.lastUpdate = sim_.now();
    endpoints_[flow.src.index()].uploads.push_back(id);
    endpoints_[flow.dst.index()].downloads.push_back(id);
    refreshEndpoint(flow.src);
    if (flow.dst != flow.src) refreshEndpoint(flow.dst);
    enforceFloorFor(id);
  }

  void promoteQueued(EndpointId endpoint) {
    EndpointState& state = endpoints_[endpoint.index()];
    while (!state.uploadQueue.empty() &&
           state.uploads.size() + state.pausedUploads.size() <
               state.uploadLimit) {
      const FlowId next = state.uploadQueue.front();
      state.uploadQueue.pop_front();
      activate(next, flows_.at(next));
    }
  }

  void enforceFloorFor(FlowId id) {
    if (floorBps_ <= 0.0) return;
    Flow& flow = flows_.at(id);
    while (flow.rateBps + kRateEpsilon < floorBps_) {
      const EndpointState& src = endpoints_[flow.src.index()];
      const EndpointState& dst = endpoints_[flow.dst.index()];
      const double upShare =
          src.capacity.uploadBps / static_cast<double>(src.uploads.size());
      const double downShare = dst.capacity.downloadBps /
                               static_cast<double>(dst.downloads.size());
      const bool srcBottleneck = upShare <= downShare;
      const std::vector<FlowId>& members =
          srcBottleneck ? src.uploads : dst.downloads;
      FlowId victim = FlowId::invalid();
      FlowClass victimClass = flow.flowClass;
      for (const FlowId candidate : members) {
        const Flow& other = flows_.at(candidate);
        if (other.flowClass <= flow.flowClass) continue;
        if (!victim.valid() || other.flowClass >= victimClass) {
          victim = candidate;
          victimClass = other.flowClass;
        }
      }
      if (!victim.valid()) break;
      Flow& victimFlow = flows_.at(victim);
      const EndpointId vSrc = victimFlow.src;
      const EndpointId vDst = victimFlow.dst;
      pauseFlow(victim, victimFlow);
      refreshEndpoint(vSrc);
      if (vDst != vSrc) refreshEndpoint(vDst);
    }
  }

  void pauseFlow(FlowId id, Flow& flow) {
    settle(flow);
    if (flow.completion.valid()) {
      sim_.cancel(flow.completion);
      flow.completion = sim::EventHandle{};
    }
    eraseId(endpoints_[flow.src.index()].uploads, id);
    eraseId(endpoints_[flow.dst.index()].downloads, id);
    flow.paused = true;
    flow.rateBps = 0.0;
    endpoints_[flow.src.index()].pausedUploads.push_back(id);
    endpoints_[flow.dst.index()].pausedDownloads.push_back(id);
  }

  [[nodiscard]] bool canResume(const Flow& flow) const {
    const EndpointState& src = endpoints_[flow.src.index()];
    const double upShare =
        src.capacity.uploadBps / static_cast<double>(src.uploads.size() + 1);
    if (upShare + kRateEpsilon < floorBps_) {
      for (const FlowId other : src.uploads) {
        if (flows_.at(other).flowClass < flow.flowClass) return false;
      }
    }
    const EndpointState& dst = endpoints_[flow.dst.index()];
    const double downShare = dst.capacity.downloadBps /
                             static_cast<double>(dst.downloads.size() + 1);
    if (downShare + kRateEpsilon < floorBps_) {
      for (const FlowId other : dst.downloads) {
        if (flows_.at(other).flowClass < flow.flowClass) return false;
      }
    }
    return true;
  }

  void resumePaused(EndpointId endpoint) {
    if (floorBps_ <= 0.0) return;
    while (true) {
      EndpointState& state = endpoints_[endpoint.index()];
      FlowId pick = FlowId::invalid();
      FlowClass pickClass = FlowClass::kPrefetch;
      for (const std::vector<FlowId>* list :
           {&state.pausedUploads, &state.pausedDownloads}) {
        for (const FlowId id : *list) {
          const Flow& flow = flows_.at(id);
          if (pick.valid() && flow.flowClass >= pickClass) continue;
          if (canResume(flow)) {
            pick = id;
            pickClass = flow.flowClass;
          }
        }
      }
      if (!pick.valid()) return;
      Flow& flow = flows_.at(pick);
      eraseId(endpoints_[flow.src.index()].pausedUploads, pick);
      eraseId(endpoints_[flow.dst.index()].pausedDownloads, pick);
      activate(pick, flow);
    }
  }

  void finish(FlowId id) {
    const auto it = flows_.find(id);
    if (it == flows_.end()) return;
    settle(it->second);
    removeFlow(id, /*completed=*/true);
  }

  void removeFlow(FlowId id, bool completed) {
    const auto it = flows_.find(id);
    Flow flow = std::move(it->second);
    flows_.erase(it);
    if (flow.completion.valid()) sim_.cancel(flow.completion);

    if (flow.queued) {
      auto& queue = endpoints_[flow.src.index()].uploadQueue;
      queue.erase(std::find(queue.begin(), queue.end(), id));
      eraseId(endpoints_[flow.dst.index()].queuedInbound, id);
      return;
    }
    if (flow.paused) {
      eraseId(endpoints_[flow.src.index()].pausedUploads, id);
      eraseId(endpoints_[flow.dst.index()].pausedDownloads, id);
      promoteQueued(flow.src);
      resumePaused(flow.src);
      if (flow.dst != flow.src) resumePaused(flow.dst);
      return;
    }

    eraseId(endpoints_[flow.src.index()].uploads, id);
    eraseId(endpoints_[flow.dst.index()].downloads, id);
    if (completed) {
      endpoints_[flow.src.index()].bytesUploaded += flow.totalBytes;
      endpoints_[flow.dst.index()].bytesDownloaded += flow.totalBytes;
    }
    promoteQueued(flow.src);
    resumePaused(flow.src);
    if (flow.dst != flow.src) resumePaused(flow.dst);
    refreshEndpoint(flow.src);
    if (flow.dst != flow.src) refreshEndpoint(flow.dst);
    if (completed && flow.onComplete) flow.onComplete();
  }

  sim::Simulator& sim_;
  std::vector<EndpointState> endpoints_;
  std::unordered_map<FlowId, Flow> flows_;
  std::uint32_t nextFlowId_ = 1;
  double floorBps_ = 0.0;
  ShedCallback shedCallback_;
};

}  // namespace legacy

// --- engine adapters --------------------------------------------------------
// A uniform surface over both solvers so the workloads are shared templates:
// configure, (optionally batched) start/cancel, drop, and the cross-check
// counters.

struct EagerEngine {
  explicit EagerEngine(sim::Simulator& sim) : flows(sim) {
    flows.setShedCallback(
        [this](EndpointId, EndpointId, net::FlowClass) { ++sheds; });
  }
  template <typename Fn>
  void batch(Fn&& fn) {
    fn();  // the eager solver has no batch scope — every call settles
  }
  FlowId start(EndpointId src, EndpointId dst, std::uint64_t bytes,
               net::FlowClass flowClass) {
    legacy::FlowNetwork::FlowOptions options;
    options.flowClass = flowClass;
    return flows.startFlow(src, dst, bytes, options,
                           [this] { ++completions; });
  }
  void cancel(FlowId id) { flows.cancelFlow(id); }
  void drop(EndpointId endpoint) {
    flows.dropEndpointFlows(endpoint,
                            [this](FlowId, std::uint64_t) { ++aborts; });
  }

  legacy::FlowNetwork flows;
  std::uint64_t completions = 0;
  std::uint64_t aborts = 0;
  std::uint64_t sheds = 0;
};

struct BatchedEngine {
  struct Counter final : net::FlowObserver {
    std::uint64_t completions = 0;
    std::uint64_t aborts = 0;
    std::uint64_t sheds = 0;
    void onFlowCompleted(FlowId) override { ++completions; }
    void onFlowAborted(FlowId, std::uint64_t) override { ++aborts; }
    void onFlowShed(EndpointId, EndpointId, net::FlowClass) override {
      ++sheds;
    }
  };

  explicit BatchedEngine(sim::Simulator& sim) : flows(sim) {
    flows.addObserver(&counter);
  }
  ~BatchedEngine() { flows.removeObserver(&counter); }
  template <typename Fn>
  void batch(Fn&& fn) {
    net::FlowNetwork::MutationBatch scope(flows);
    fn();
  }
  FlowId start(EndpointId src, EndpointId dst, std::uint64_t bytes,
               net::FlowClass flowClass) {
    net::FlowNetwork::FlowOptions options;
    options.flowClass = flowClass;
    return flows.startFlow(src, dst, bytes, options);
  }
  void cancel(FlowId id) { flows.cancelFlow(id); }
  void drop(EndpointId endpoint) { flows.dropEndpointFlows(endpoint); }

  net::FlowNetwork flows;
  Counter counter;
  std::uint64_t& completionsRef() { return counter.completions; }
};

// The configuration surface is identical on both (setUploadConcurrencyLimit,
// setPlaybackFloor, setAdmissionPolicy have the same spelling), so workloads
// reach through `.flows` for setup and queries.

struct WorkloadResult {
  double opsPerSec = 0;
  std::uint64_t ops = 0;
  std::uint64_t completions = 0;
  std::uint64_t aborts = 0;
  std::uint64_t sheds = 0;
  std::uint64_t bytesDelivered = 0;
};

template <typename Engine>
std::uint64_t completionsOf(Engine& eng) {
  if constexpr (requires { eng.counter.completions; }) {
    return eng.counter.completions;
  } else {
    return eng.completions;
  }
}
template <typename Engine>
std::uint64_t abortsOf(Engine& eng) {
  if constexpr (requires { eng.counter.aborts; }) {
    return eng.counter.aborts;
  } else {
    return eng.aborts;
  }
}
template <typename Engine>
std::uint64_t shedsOf(Engine& eng) {
  if constexpr (requires { eng.counter.sheds; }) {
    return eng.counter.sheds;
  } else {
    return eng.sheds;
  }
}

double seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- workload 1: mixed churn -------------------------------------------------
// 1024 endpoints; 16 high-capacity hubs absorb half the traffic so their
// flow degree climbs into the hundreds (the regime where per-mutation
// refresh sweeps hurt). Endpoint 0 is the slot-limited origin server with
// deadline-free admission. Each tick is one churn event: a striped body
// start (8 flows into one destination under one batch), a batched cancel
// wave, or a node departure.
template <typename Engine>
WorkloadResult churnWorkload(int ticks, std::uint64_t seed) {
  constexpr std::uint32_t kEndpoints = 1024;
  constexpr std::uint32_t kHubs = 8;
  sim::Simulator sim;
  Engine eng(sim);
  for (std::uint32_t i = 0; i < kEndpoints; ++i) {
    eng.flows.addEndpoint(EndpointId{i}, i < kHubs
                                             ? net::EndpointCapacity{60e6, 60e6}
                                             : net::EndpointCapacity{4e6, 8e6});
  }
  eng.flows.setUploadConcurrencyLimit(EndpointId{0}, 12);
  eng.flows.setPlaybackFloor(3e5);
  {
    // Same shape on both engines; the types differ, hence the local.
    typename std::remove_reference_t<decltype(eng.flows)>::AdmissionPolicy
        policy;
    policy.queueCap = 128;
    policy.shedPrefetch = true;
    eng.flows.setAdmissionPolicy(EndpointId{0}, policy);
  }

  Rng rng(seed);
  std::vector<FlowId> started;
  started.reserve(static_cast<std::size_t>(ticks) * 8);
  std::uint64_t ops = 0;

  const auto pickEndpoint = [&rng]() -> std::uint32_t {
    if (rng.uniform() < 0.65) {
      return static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{kHubs}));
    }
    return static_cast<std::uint32_t>(
        rng.uniformInt(std::uint64_t{kEndpoints}));
  };

  const auto tick = [&] {
    const double op = rng.uniform();
    if (op < 0.60) {
      // Striped body start: 8 providers feed one destination, one batch —
      // the eager solver re-solved the shared destination once per stripe.
      const std::uint32_t dst = pickEndpoint();
      eng.batch([&] {
        for (int k = 0; k < 8; ++k) {
          std::uint32_t src = pickEndpoint();
          if (src == dst) src = (src + 1) % kEndpoints;
          const auto flowClass =
              static_cast<net::FlowClass>(rng.uniformInt(std::uint64_t{3}));
          const std::uint64_t bytes =
              500'000 + rng.uniformInt(std::uint64_t{3'500'000});
          const FlowId id =
              eng.start(EndpointId{src}, EndpointId{dst}, bytes, flowClass);
          ++ops;
          if (id.valid()) started.push_back(id);
        }
      });
    } else if (op < 0.80) {
      // Cancel wave (stale picks that already completed no-op identically
      // on both engines).
      eng.batch([&] {
        for (int k = 0; k < 12 && !started.empty(); ++k) {
          const std::size_t pick = rng.uniformInt(started.size());
          eng.cancel(started[pick]);
          ++ops;
        }
      });
    } else {
      // Node departure.
      eng.drop(EndpointId{pickEndpoint()});
      ++ops;
    }
  };

  for (int i = 0; i < ticks; ++i) {
    sim.scheduleAt(sim::fromSeconds(rng.uniform(0.0, 120.0)), tick);
  }

  const auto start = std::chrono::steady_clock::now();
  sim.run();
  const double elapsed = seconds(std::chrono::steady_clock::now() - start);

  WorkloadResult result;
  result.ops = ops;
  result.opsPerSec = static_cast<double>(ops) / elapsed;
  result.completions = completionsOf(eng);
  result.aborts = abortsOf(eng);
  result.sheds = shedsOf(eng);
  for (std::uint32_t i = 0; i < kEndpoints; ++i) {
    result.bytesDelivered += eng.flows.bytesUploaded(EndpointId{i});
  }
  return result;
}

// --- workload 2: drop storm --------------------------------------------------
// A hub serving 256 peers departs, over and over. Every peer also carries a
// long-lived background download from a survivor, so each drop leaves one
// live flow per peer to re-solve. The eager solver's removeFlow refreshed
// the hub after every removal — O(peers^2) reschedules per drop; the batch
// marks endpoints dirty and drains once.
template <typename Engine>
WorkloadResult dropStormWorkload(int rounds, std::uint64_t seed) {
  constexpr std::uint32_t kPeers = 256;
  const EndpointId hub{0};
  const EndpointId survivor{1};
  sim::Simulator sim;
  Engine eng(sim);
  eng.flows.addEndpoint(hub, {200e6, 200e6});
  eng.flows.addEndpoint(survivor, {100e6, 100e6});
  for (std::uint32_t i = 0; i < kPeers; ++i) {
    eng.flows.addEndpoint(EndpointId{2 + i}, {4e6, 8e6});
  }
  Rng rng(seed);
  std::uint64_t ops = 0;

  // Background flows that outlive every drop round (never complete).
  eng.batch([&] {
    for (std::uint32_t i = 0; i < kPeers; ++i) {
      eng.start(survivor, EndpointId{2 + i}, 4'000'000'000ull,
                net::FlowClass::kPlayback);
    }
  });

  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    eng.batch([&] {
      for (std::uint32_t i = 0; i < kPeers; ++i) {
        const std::uint64_t bytes =
            50'000'000 + rng.uniformInt(std::uint64_t{1'000'000});
        eng.start(hub, EndpointId{2 + i}, bytes, net::FlowClass::kPlayback);
        ++ops;
      }
    });
    sim.runUntil(sim.now() + sim::fromSeconds(0.01));
    eng.drop(hub);
    ++ops;
  }
  const double elapsed = seconds(std::chrono::steady_clock::now() - start);

  WorkloadResult result;
  result.ops = ops;
  result.opsPerSec = static_cast<double>(ops) / elapsed;
  result.completions = completionsOf(eng);
  result.aborts = abortsOf(eng);
  result.sheds = shedsOf(eng);
  result.bytesDelivered =
      eng.flows.bytesUploaded(hub) + eng.flows.bytesUploaded(survivor);
  return result;
}

template <typename Fn>
WorkloadResult bestOf(int n, Fn fn) {
  WorkloadResult best;
  for (int i = 0; i < n; ++i) {
    const WorkloadResult r = fn();
    if (r.opsPerSec > best.opsPerSec) best = r;
  }
  return best;
}

// The two engines replayed the same deterministic scenario; any counter
// drift means the incremental solver diverged from the eager model.
bool crossCheck(const char* name, const WorkloadResult& eager,
                const WorkloadResult& batched) {
  const bool ok = eager.ops == batched.ops &&
                  eager.completions == batched.completions &&
                  eager.aborts == batched.aborts &&
                  eager.sheds == batched.sheds &&
                  eager.bytesDelivered == batched.bytesDelivered;
  if (!ok) {
    std::fprintf(stderr,
                 "%s: eager/batched divergence!\n"
                 "  ops         %llu vs %llu\n"
                 "  completions %llu vs %llu\n"
                 "  aborts      %llu vs %llu\n"
                 "  sheds       %llu vs %llu\n"
                 "  bytes       %llu vs %llu\n",
                 name, static_cast<unsigned long long>(eager.ops),
                 static_cast<unsigned long long>(batched.ops),
                 static_cast<unsigned long long>(eager.completions),
                 static_cast<unsigned long long>(batched.completions),
                 static_cast<unsigned long long>(eager.aborts),
                 static_cast<unsigned long long>(batched.aborts),
                 static_cast<unsigned long long>(eager.sheds),
                 static_cast<unsigned long long>(batched.sheds),
                 static_cast<unsigned long long>(eager.bytesDelivered),
                 static_cast<unsigned long long>(batched.bytesDelivered));
  }
  return ok;
}

}  // namespace
}  // namespace st::bench

int main(int argc, char** argv) {
  using namespace st::bench;
  bool smoke = false;
  const char* outPath =
      microbenchOutputPath(argc, argv, "BENCH_flow.json", &smoke);
  const int kReps = smoke ? 1 : 3;
  const int kChurnTicks = smoke ? 300 : 6000;
  const int kStormRounds = smoke ? 3 : 40;
  constexpr std::uint64_t kSeed = 20240817;

  std::printf("flow-solver microbenchmarks (eager = pre-refactor "
              "per-mutation refresh solver, best of %d)%s\n\n",
              kReps, smoke ? " [smoke]" : "");

  const WorkloadResult eagerChurn = bestOf(
      kReps, [&] { return churnWorkload<EagerEngine>(kChurnTicks, kSeed); });
  const WorkloadResult batchedChurn = bestOf(
      kReps, [&] { return churnWorkload<BatchedEngine>(kChurnTicks, kSeed); });
  std::printf("churn:      eager %12.0f ops/s   batched %12.0f ops/s"
              "   speedup %.2fx\n",
              eagerChurn.opsPerSec, batchedChurn.opsPerSec,
              batchedChurn.opsPerSec / eagerChurn.opsPerSec);

  const WorkloadResult eagerStorm = bestOf(kReps, [&] {
    return dropStormWorkload<EagerEngine>(kStormRounds, kSeed + 1);
  });
  const WorkloadResult batchedStorm = bestOf(kReps, [&] {
    return dropStormWorkload<BatchedEngine>(kStormRounds, kSeed + 1);
  });
  std::printf("drop storm: eager %12.0f ops/s   batched %12.0f ops/s"
              "   speedup %.2fx\n",
              eagerStorm.opsPerSec, batchedStorm.opsPerSec,
              batchedStorm.opsPerSec / eagerStorm.opsPerSec);

  if (!crossCheck("churn", eagerChurn, batchedChurn) ||
      !crossCheck("drop_storm", eagerStorm, batchedStorm)) {
    return 1;
  }
  std::printf("cross-check: completions/aborts/sheds/bytes identical on both "
              "engines\n");

  FILE* out = std::fopen(outPath, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", outPath);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"flow_bench\",\n"
      "  \"churn\": {\n"
      "    \"eager_ops_per_sec\": %.0f,\n"
      "    \"batched_ops_per_sec\": %.0f,\n"
      "    \"speedup\": %.2f,\n"
      "    \"completions\": %llu,\n"
      "    \"aborts\": %llu,\n"
      "    \"sheds\": %llu\n"
      "  },\n"
      "  \"drop_storm\": {\n"
      "    \"eager_ops_per_sec\": %.0f,\n"
      "    \"batched_ops_per_sec\": %.0f,\n"
      "    \"speedup\": %.2f,\n"
      "    \"aborts\": %llu\n"
      "  }\n"
      "}\n",
      eagerChurn.opsPerSec, batchedChurn.opsPerSec,
      batchedChurn.opsPerSec / eagerChurn.opsPerSec,
      static_cast<unsigned long long>(batchedChurn.completions),
      static_cast<unsigned long long>(batchedChurn.aborts),
      static_cast<unsigned long long>(batchedChurn.sheds),
      eagerStorm.opsPerSec, batchedStorm.opsPerSec,
      batchedStorm.opsPerSec / eagerStorm.opsPerSec,
      static_cast<unsigned long long>(batchedStorm.aborts));
  std::fclose(out);
  std::printf("\nwrote %s\n", outPath);
  return 0;
}
