// Differential test of the incremental processor-sharing solver against an
// eager reference. net::FlowNetwork keeps every active flow in one group,
// its source's upload group or its destination's download group, and
// settles only the groups a mutation batch touched (DESIGN.md §12).
// EagerFlowNetwork below adopts the same rule but recomputes every group
// from scratch after every membership change: every share, every flow's
// binding side, every group's head (by a scan) and every completion time,
// with plain closure events and flows in a hash map. The byte ledger is
// the rule's own: per-group virtual clocks in integer work units, finish
// tags F = V(join) + bytes, F - V(now) carried across a binding flip. It
// shares no code with the solver and keeps its own copy of the queue,
// playback-floor, shed and drop policies. Both replay the same seeded
// scenarios, and the test compares the ordered completion stream (sim µs,
// flow id), the ordered abort stream (flow id, bytes delivered) and the
// totals, exactly.
#include "net/flow_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"
#include "util/strong_id.h"

namespace st::net {
namespace {

using Completion = std::pair<sim::SimTime, std::uint32_t>;  // (µs, flow id)
using Abort = std::pair<std::uint32_t, std::uint64_t>;  // (flow id, bytes)

// What one solver did over one scenario run; its callbacks write here.
struct Streams {
  std::vector<Completion> completions;
  std::vector<Abort> aborts;
  std::uint64_t sheds = 0;
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;  // Σ bytesUploaded over the scenario's endpoints
  std::uint64_t pauses = 0;  // eager side only: FlowNetwork reports no pauses
};

// --- the eager reference solver ---------------------------------------------
class EagerFlowNetwork {
 public:
  EagerFlowNetwork(sim::Simulator& simulator, Streams& out)
      : sim_(simulator), out_(out) {}

  void addEndpoint(EndpointId id, EndpointCapacity capacity) {
    if (endpoints_.size() <= id.index()) endpoints_.resize(id.index() + 1);
    endpoints_[id.index()].capacity = capacity;
  }
  void setUploadConcurrencyLimit(EndpointId endpoint, std::size_t limit) {
    endpoints_[endpoint.index()].uploadLimit = limit;
  }
  void setPlaybackFloor(double floorBps) { floorBps_ = floorBps; }
  void setAdmissionPolicy(EndpointId endpoint,
                          FlowNetwork::AdmissionPolicy policy) {
    endpoints_[endpoint.index()].admission = policy;
    endpoints_[endpoint.index()].admissionEnabled = true;
  }

  FlowId startFlow(EndpointId src, EndpointId dst, std::uint64_t bytes,
                   FlowOptions options) {
    EndpointState& source = endpoints_[src.index()];
    const std::size_t usedSlots =
        source.uploads.size() + source.pausedUploads.size();
    const bool queue = usedSlots >= source.uploadLimit;
    if (queue && shouldShed(src, options.flowClass, options.deadline)) {
      ++out_.sheds;
      return FlowId::invalid();
    }
    const FlowId id{nextFlowId_++};
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.work = std::llround(static_cast<double>(bytes) * kUnitsPerByte);
    flow.totalBytes = bytes;
    flow.flowClass = options.flowClass;
    flow.queued = queue;
    flows_.emplace(id, flow);
    if (queue) {
      source.uploadQueue.push_back(id);
      endpoints_[dst.index()].queuedInbound.push_back(id);
    } else {
      activate(id, flows_.at(id));
    }
    return id;
  }

  void cancelFlow(FlowId id) {
    if (flows_.count(id) == 0) return;
    removeFlow(id, /*completed=*/false);
  }

  void dropEndpointFlows(EndpointId endpoint) {
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
    const auto firstAbort = static_cast<std::ptrdiff_t>(out_.aborts.size());
    for (const FlowId id : doomed) {
      const auto it = flows_.find(id);
      if (it == flows_.end()) continue;
      const bool isDownload = it->second.dst == endpoint;
      const auto bytesDone = static_cast<std::uint64_t>(
          static_cast<double>(it->second.totalBytes) -
          remainingBytes(it->second));
      removeFlow(id, /*completed=*/false);
      if (!isDownload) out_.aborts.emplace_back(id.value(), bytesDone);
    }
    // FlowNetwork reports one departure's aborts in ascending flow-id order.
    std::sort(out_.aborts.begin() + firstAbort, out_.aborts.end());
  }

  [[nodiscard]] std::uint64_t bytesUploaded(EndpointId id) const {
    return endpoints_[id.index()].bytesUploaded;
  }

 private:
  // Work in 1/1024 byte units, as FlowNetwork counts it.
  static constexpr double kUnitsPerByte = 1024.0;
  static constexpr double kRateEpsilon = 1e-9;
  static constexpr std::size_t kUp = 0;
  static constexpr std::size_t kDown = 1;
  static constexpr int kNone = -1;  // Flow::side of a queued/paused flow

  struct Flow {
    EndpointId src;
    EndpointId dst;
    int side = kNone;        // kUp: src's group, kDown: dst's group
    std::int64_t work = 0;   // finish tag in a group, else remaining work
    std::uint64_t seq = 0;   // activation order
    std::uint64_t totalBytes = 0;
    FlowClass flowClass = FlowClass::kPlayback;
    bool queued = false;
    bool paused = false;
  };
  // One endpoint side's virtual clock: V(t) = v0 + what s0 delivers over
  // [t0, t]; a share change to s1 at t1 takes effect once its instant is
  // over.
  struct Clock {
    std::int64_t v0 = 0;
    sim::SimTime t0 = 0;
    double s0 = 0.0;
    double s1 = 0.0;
    sim::SimTime t1 = 0;
    // The completion event last scheduled: its head and time.
    sim::EventHandle completion;
    FlowId head = FlowId::invalid();
    sim::SimTime due = -1;
  };
  struct EndpointState {
    EndpointCapacity capacity;
    std::vector<FlowId> uploads;
    std::vector<FlowId> downloads;
    Clock clocks[2];
    std::size_t uploadLimit = std::numeric_limits<std::size_t>::max();
    std::deque<FlowId> uploadQueue;
    std::vector<FlowId> queuedInbound;
    std::vector<FlowId> pausedUploads;
    std::vector<FlowId> pausedDownloads;
    FlowNetwork::AdmissionPolicy admission;
    bool admissionEnabled = false;
    std::uint64_t bytesUploaded = 0;
  };

  static void eraseId(std::vector<FlowId>& list, FlowId id) {
    const auto it = std::find(list.begin(), list.end(), id);
    assert(it != list.end());
    list.erase(it);
  }

  static std::int64_t advance(double bps, sim::SimTime dt) {
    return std::llround(bps / 8.0 * sim::toSeconds(dt) * kUnitsPerByte);
  }
  static std::int64_t clockAt(const Clock& c, sim::SimTime t) {
    if (c.s1 != c.s0 && c.t1 < t) {
      return c.v0 + advance(c.s0, c.t1 - c.t0) + advance(c.s1, t - c.t1);
    }
    return c.v0 + advance(c.s0, t - c.t0);
  }
  static void setShare(Clock& c, double share, sim::SimTime now) {
    if (c.s1 != c.s0 && c.t1 < now) {
      c.v0 += advance(c.s0, c.t1 - c.t0);
      c.t0 = c.t1;
      c.s0 = c.s1;
    }
    c.s1 = share;
    c.t1 = now;
  }

  [[nodiscard]] static double share(const EndpointState& state,
                                    std::size_t side) {
    const std::size_t n =
        side == kUp ? state.uploads.size() : state.downloads.size();
    if (n == 0) return 0.0;
    return (side == kUp ? state.capacity.uploadBps
                        : state.capacity.downloadBps) /
           static_cast<double>(n);
  }
  [[nodiscard]] double fairRate(const Flow& flow) const {
    return std::min(share(endpoints_[flow.src.index()], kUp),
                    share(endpoints_[flow.dst.index()], kDown));
  }
  [[nodiscard]] Clock& clockOf(const Flow& flow, int side) {
    return side == static_cast<int>(kUp)
               ? endpoints_[flow.src.index()].clocks[kUp]
               : endpoints_[flow.dst.index()].clocks[kDown];
  }
  [[nodiscard]] double remainingBytes(const Flow& flow) {
    std::int64_t left = flow.work;
    if (flow.side != kNone) {
      left -= clockAt(clockOf(flow, flow.side), sim_.now());
    }
    return static_cast<double>(std::max<std::int64_t>(0, left)) /
           kUnitsPerByte;
  }

  // Every group from scratch: shares, binding sides (a flow flips with its
  // remaining work F - V(now)), heads by a full scan, completion times.
  void refresh() {
    const sim::SimTime now = sim_.now();
    for (EndpointState& state : endpoints_) {
      for (const std::size_t side : {kUp, kDown}) {
        const double s = share(state, side);
        if (s != state.clocks[side].s1) setShare(state.clocks[side], s, now);
      }
    }
    struct Head {
      FlowId id = FlowId::invalid();
      std::int64_t finish = 0;
      std::uint64_t seq = 0;
    };
    std::vector<std::array<Head, 2>> heads(endpoints_.size());
    for (auto& [id, flow] : flows_) {
      if (flow.queued || flow.paused) continue;
      const int want = endpoints_[flow.src.index()].clocks[kUp].s1 <=
                               endpoints_[flow.dst.index()].clocks[kDown].s1
                           ? static_cast<int>(kUp)
                           : static_cast<int>(kDown);
      if (flow.side != want) {
        const std::int64_t left =
            flow.side == kNone
                ? flow.work
                : flow.work - clockAt(clockOf(flow, flow.side), now);
        flow.side = want;
        flow.work = clockAt(clockOf(flow, want), now) + left;
      }
      const EndpointId at = want == static_cast<int>(kUp) ? flow.src : flow.dst;
      Head& head = heads[at.index()][static_cast<std::size_t>(want)];
      if (!head.id.valid() || flow.work < head.finish ||
          (flow.work == head.finish && flow.seq < head.seq)) {
        head = Head{id, flow.work, flow.seq};
      }
    }
    for (std::size_t e = 0; e < endpoints_.size(); ++e) {
      for (const std::size_t side : {kUp, kDown}) {
        Clock& c = endpoints_[e].clocks[side];
        const Head& head = heads[e][side];
        sim::SimTime due = -1;
        if (head.id.valid() && c.s1 > 0.0) {
          const bool pending = c.s1 != c.s0;
          const std::int64_t start =
              pending ? c.v0 + advance(c.s0, c.t1 - c.t0) : c.v0;
          const sim::SimTime from = pending ? c.t1 : c.t0;
          const double seconds = static_cast<double>(head.finish - start) /
                                 kUnitsPerByte * 8.0 / c.s1;
          due = std::max(now, from + sim::fromSeconds(seconds));
        }
        if (head.id == c.head && due == c.due) continue;
        sim_.cancel(c.completion);
        c.completion = sim::EventHandle{};
        c.head = head.id;
        c.due = due;
        if (due < 0) continue;
        const FlowId id = head.id;
        c.completion = sim_.schedule(due - now, [this, id] { finish(id); });
      }
    }
  }

  [[nodiscard]] double estimatedBacklogSeconds(const EndpointState& state) {
    if (state.capacity.uploadBps <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    double backlogBytes = 0.0;
    for (const FlowId id : state.uploads) {
      backlogBytes += remainingBytes(flows_.at(id));
    }
    for (const FlowId id : state.pausedUploads) {
      backlogBytes += remainingBytes(flows_.at(id));
    }
    for (const FlowId id : state.uploadQueue) {
      backlogBytes += remainingBytes(flows_.at(id));
    }
    return backlogBytes * 8.0 / state.capacity.uploadBps;
  }

  [[nodiscard]] bool shouldShed(EndpointId src, FlowClass flowClass,
                                sim::SimTime deadline) {
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
    flow.seq = nextSeq_++;
    endpoints_[flow.src.index()].uploads.push_back(id);
    endpoints_[flow.dst.index()].downloads.push_back(id);
    refresh();
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
    while (fairRate(flow) + kRateEpsilon < floorBps_) {
      const EndpointState& src = endpoints_[flow.src.index()];
      const EndpointState& dst = endpoints_[flow.dst.index()];
      const bool srcBottleneck = share(src, kUp) <= share(dst, kDown);
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
      pauseFlow(victim, flows_.at(victim));
      refresh();
    }
  }

  void pauseFlow(FlowId id, Flow& flow) {
    ++out_.pauses;
    if (flow.side != kNone) {
      flow.work -= clockAt(clockOf(flow, flow.side), sim_.now());
      flow.side = kNone;
    }
    eraseId(endpoints_[flow.src.index()].uploads, id);
    eraseId(endpoints_[flow.dst.index()].downloads, id);
    flow.paused = true;
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

  // The head of a group reached its finish tag.
  void finish(FlowId id) {
    const Flow& flow = flows_.at(id);
    Clock& c = clockOf(flow, flow.side);
    c.completion = sim::EventHandle{};
    c.head = FlowId::invalid();
    c.due = -1;
    removeFlow(id, /*completed=*/true);
  }

  void removeFlow(FlowId id, bool completed) {
    const auto it = flows_.find(id);
    const Flow flow = it->second;
    flows_.erase(it);

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
    }
    promoteQueued(flow.src);
    resumePaused(flow.src);
    if (flow.dst != flow.src) resumePaused(flow.dst);
    refresh();
    if (completed) out_.completions.emplace_back(sim_.now(), id.value());
  }

  sim::Simulator& sim_;
  Streams& out_;
  std::vector<EndpointState> endpoints_;
  std::unordered_map<FlowId, Flow> flows_;
  std::uint32_t nextFlowId_ = 1;
  std::uint64_t nextSeq_ = 0;
  double floorBps_ = 0.0;
};

// --- the incremental solver, recorded --------------------------------------
// Both solvers take (simulator, recorder) and spell every call the scenarios
// make the same, so the scenarios are templates over the solver type.

struct RecordedFlowNetwork final : FlowNetwork, FlowObserver {
  RecordedFlowNetwork(sim::Simulator& simulator, Streams& out)
      : FlowNetwork(simulator), sim(simulator), out(out) {
    addObserver(this);
  }
  void onFlowShed(EndpointId, EndpointId, FlowClass) override { ++out.sheds; }
  void onFlowAborted(FlowId id, std::uint64_t bytesDone,
                     const sim::EventTag&) override {
    out.aborts.emplace_back(id.value(), bytesDone);
  }
  void onFlowCompleted(FlowId id) override {
    out.completions.emplace_back(sim.now(), id.value());
  }
  sim::Simulator& sim;
  Streams& out;
};

// One multi-mutation churn event: a batch on FlowNetwork; the eager solver
// has no batch scope and settles every call at once.
template <typename Fn>
void batch(FlowNetwork& flows, Fn&& fn) {
  FlowNetwork::MutationBatch scope(flows);
  fn();
}
template <typename Fn>
void batch(EagerFlowNetwork&, Fn&& fn) { fn(); }

// --- scenario 1: mixed churn ------------------------------------------------
// A few hubs take 65 % of the endpoint picks; endpoint 0 is the slot-limited
// origin under an admission policy; a playback floor is set. Each tick, at a
// random time in the first two simulated minutes, is a striped body start (8
// providers feed one destination, one batch), a cancel wave or a departure.
struct ChurnShape {
  std::uint32_t endpoints = 1024;
  std::uint32_t hubs = 8;
  double hubBps = 60e6;
  FlowNetwork::AdmissionPolicy origin{.queueCap = 128, .shedPrefetch = true};
  double maxDeadlineSeconds = 0;  // > 0: starts draw a deadline up to this
};

template <typename Solver>
Streams churnScenario(const ChurnShape& shape, int ticks, std::uint64_t seed) {
  Streams out;
  sim::Simulator sim;
  Solver flows(sim, out);
  const EndpointCapacity hub{shape.hubBps, shape.hubBps}, peer{4e6, 8e6};
  for (std::uint32_t i = 0; i < shape.endpoints; ++i) {
    flows.addEndpoint(EndpointId{i}, i < shape.hubs ? hub : peer);
  }
  flows.setUploadConcurrencyLimit(EndpointId{0}, 12);
  flows.setPlaybackFloor(3e5);
  flows.setAdmissionPolicy(EndpointId{0}, shape.origin);

  Rng rng(seed);
  std::vector<FlowId> started;
  const auto pickEndpoint = [&] {
    const std::uint64_t n = rng.uniform() < 0.65 ? shape.hubs : shape.endpoints;
    return static_cast<std::uint32_t>(rng.uniformInt(n));
  };

  const auto tick = [&] {
    const double op = rng.uniform();
    if (op < 0.60) {
      const std::uint32_t dst = pickEndpoint();
      batch(flows, [&] {
        for (int k = 0; k < 8; ++k) {
          std::uint32_t src = pickEndpoint();
          if (src == dst) src = (src + 1) % shape.endpoints;
          FlowOptions options;
          options.flowClass =
              static_cast<FlowClass>(rng.uniformInt(std::uint64_t{3}));
          const std::uint64_t bytes =
              500'000 + rng.uniformInt(std::uint64_t{3'500'000});
          if (shape.maxDeadlineSeconds > 0) {
            options.deadline =
                sim::fromSeconds(rng.uniform(0.0, shape.maxDeadlineSeconds));
          }
          const FlowId id =
              flows.startFlow(EndpointId{src}, EndpointId{dst}, bytes, options);
          ++out.ops;
          if (id.valid()) started.push_back(id);
        }
      });
    } else if (op < 0.80) {
      // Stale picks that already finished are no-ops on both solvers.
      batch(flows, [&] {
        for (int k = 0; k < 12 && !started.empty(); ++k) {
          flows.cancelFlow(started[rng.uniformInt(started.size())]);
          ++out.ops;
        }
      });
    } else {
      flows.dropEndpointFlows(EndpointId{pickEndpoint()});
      ++out.ops;
    }
  };
  for (int i = 0; i < ticks; ++i) {
    sim.scheduleAt(sim::fromSeconds(rng.uniform(0.0, 120.0)), tick);
  }
  sim.run();

  for (std::uint32_t i = 0; i < shape.endpoints; ++i) {
    out.bytes += flows.bytesUploaded(EndpointId{i});
  }
  return out;
}

// --- scenario 2: drop storm -------------------------------------------------
// A hub serving 256 peers departs, over and over. Every peer also carries a
// long-lived background download from a survivor (it never completes), so
// each drop leaves one live flow per peer to re-solve.
template <typename Solver>
Streams dropStormScenario(int rounds, std::uint64_t seed) {
  constexpr std::uint32_t kPeers = 256;
  const EndpointId hub{0}, survivor{1};
  Streams out;
  sim::Simulator sim;
  Solver flows(sim, out);
  flows.addEndpoint(hub, {200e6, 200e6});
  flows.addEndpoint(survivor, {100e6, 100e6});
  for (std::uint32_t i = 0; i < kPeers; ++i) {
    flows.addEndpoint(EndpointId{2 + i}, {4e6, 8e6});
  }
  Rng rng(seed);
  const FlowOptions playback;
  batch(flows, [&] {
    for (std::uint32_t i = 0; i < kPeers; ++i) {
      flows.startFlow(survivor, EndpointId{2 + i}, 4'000'000'000ull, playback);
    }
  });
  for (int round = 0; round < rounds; ++round) {
    batch(flows, [&] {
      for (std::uint32_t i = 0; i < kPeers; ++i) {
        const std::uint64_t bytes =
            50'000'000 + rng.uniformInt(std::uint64_t{1'000'000});
        flows.startFlow(hub, EndpointId{2 + i}, bytes, playback);
        ++out.ops;
      }
    });
    sim.runUntil(sim.now() + sim::fromSeconds(0.01));
    flows.dropEndpointFlows(hub);
    ++out.ops;
  }
  out.bytes = flows.bytesUploaded(hub) + flows.bytesUploaded(survivor);
  return out;
}

// Names the first entry where two ordered streams part, instead of printing
// thousands of entries.
template <typename Entry>
void expectSameStream(const char* what, const std::vector<Entry>& eager,
                      const std::vector<Entry>& batched) {
  const auto [e, b] =
      std::mismatch(eager.begin(), eager.end(), batched.begin(), batched.end());
  if (e == eager.end() && b == batched.end()) return;
  const auto show = [](auto it, auto end) {
    return it == end ? std::string("end") : ::testing::PrintToString(*it);
  };
  ADD_FAILURE() << what << " streams diverge at entry " << (e - eager.begin())
                << " (eager " << eager.size() << " entries, batched "
                << batched.size() << "): eager " << show(e, eager.end())
                << ", batched " << show(b, batched.end());
}

// Replays one scenario on both solvers and compares what they did: the
// ordered streams (their lengths are the completion and abort totals), the
// operation and shed counts, and the delivered bytes. Returns the eager run.
template <typename Scenario>
Streams expectSameRun(const Scenario& scenario) {
  const Streams eager = scenario.template operator()<EagerFlowNetwork>();
  const Streams batched = scenario.template operator()<RecordedFlowNetwork>();
  EXPECT_EQ(eager.ops, batched.ops);
  EXPECT_EQ(eager.sheds, batched.sheds);
  EXPECT_EQ(eager.bytes, batched.bytes);
  expectSameStream("completion", eager.completions, batched.completions);
  expectSameStream("abort", eager.aborts, batched.aborts);
  return eager;
}

TEST(FlowDifferential, ChurnStreamsMatchTheEagerReference) {
  const Streams eager = expectSameRun([]<typename Solver>() {
    return churnScenario<Solver>(ChurnShape{}, 6000, 20240817);
  });
  // Every compared category is non-empty (completions imply bytes). The
  // sheds are prefetch flows refused at the origin; the floor never pauses.
  EXPECT_GT(eager.completions.size(), 0u);
  EXPECT_GT(eager.aborts.size(), 0u);
  EXPECT_GT(eager.sheds, 0u);
}

// The same churn on 128 endpoints with 20 Mbit/s hubs: the floor pauses
// lower-class flows and resumes them, and the origin queues, sheds at its
// queue cap and sheds flows whose admission deadline its backlog would miss.
TEST(FlowDifferential, OverloadChurnStreamsMatchTheEagerReference) {
  const ChurnShape shape{.endpoints = 128, .hubs = 2, .hubBps = 20e6,
                         .origin = {.queueCap = 6, .shedPrefetch = false},
                         .maxDeadlineSeconds = 20};
  const Streams eager = expectSameRun([&]<typename Solver>() {
    return churnScenario<Solver>(shape, 3000, 20240819);
  });
  EXPECT_GT(eager.pauses, 0u);
  EXPECT_GT(eager.sheds, 0u);
}

TEST(FlowDifferential, DropStormStreamsMatchTheEagerReference) {
  const Streams eager = expectSameRun([]<typename Solver>() {
    return dropStormScenario<Solver>(40, 20240818);
  });
  // Every hub upload of every round is aborted mid-transfer.
  EXPECT_EQ(eager.aborts.size(), 40u * 256u);
}

}  // namespace
}  // namespace st::net
