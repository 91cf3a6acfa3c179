// Scheduler microbenchmark: slotted arena simulator vs the pre-refactor
// implementation, on the three hot patterns of a protocol run.
//
//  * schedule/cancel — timers armed and disarmed without ever firing (the
//    dominant pattern: phase deadlines, probe timers, transfer timeouts);
//  * fire loop       — a pre-filled queue drained to empty;
//  * flood           — TTL-bounded query flooding over a fixed neighbor
//    graph, the per-visit path of SocialTube/NetTube search (dedup check +
//    schedule), with heap allocations counted per visit.
//
// The legacy scheduler below is a faithful copy of the previous
// src/sim/simulator.{h,cpp}: std::function callbacks stored inside the
// priority_queue entries, a pending_ hash set consulted per cancel/fire,
// and per-node unordered_set query dedup. Keeping it in-binary makes the
// speedup measurable under identical flags on the same machine.
//
// Emits BENCH_sim.json (path = the one positional arg, default
// ./BENCH_sim.json; any other argument exits 2).
// Regenerate the committed baseline with:
//   cmake --build build --target sim_bench && ./build/bench/sim_bench BENCH_sim.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "vod/query_dedup.h"

// --- allocation counter -----------------------------------------------------
// Counts every heap allocation in the process; benchmarks read deltas around
// a measured region. Relaxed atomics: the bench is single-threaded, the
// atomic just keeps the override well-defined in general.
namespace {
std::atomic<std::uint64_t> g_allocCount{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace st::bench {
namespace {

using sim::SimTime;

// --- the pre-refactor scheduler, verbatim ----------------------------------
namespace legacy {

class EventHandle {
 public:
  EventHandle() = default;

 private:
  friend class Simulator;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] SimTime now() const { return now_; }

  EventHandle schedule(SimTime delay, Callback fn) {
    return EventHandle{enqueue(now_ + delay, std::move(fn))};
  }

  EventHandle schedulePeriodic(SimTime period, Callback fn) {
    const std::uint64_t seriesId = nextSeq_++;
    periodics_.emplace(seriesId, PeriodicState{period, std::move(fn)});
    queue_.push(Event{now_ + period, seriesId, seriesId, /*periodic=*/true,
                      [this, seriesId] { firePeriodic(seriesId); }});
    ++queueSize_;
    return EventHandle{seriesId};
  }

  void cancel(EventHandle handle) {
    if (handle.id_ == 0) return;
    periodics_.erase(handle.id_);
    pending_.erase(handle.id_);
  }

  std::uint64_t run() {
    std::uint64_t count = 0;
    while (fireNext()) ++count;
    return count;
  }

  std::uint64_t runUntil(SimTime until) {
    std::uint64_t count = 0;
    while (!queue_.empty() && queue_.top().when <= until) {
      if (fireNext()) ++count;
    }
    if (now_ < until) now_ = until;
    return count;
  }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t id;
    bool periodic = false;
    Callback fn;

    bool operator<(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  struct PeriodicState {
    SimTime period;
    Callback fn;
  };

  std::uint64_t enqueue(SimTime when, Callback fn) {
    const std::uint64_t id = nextSeq_++;
    queue_.push(Event{when, id, id, /*periodic=*/false, std::move(fn)});
    pending_.insert(id);
    ++queueSize_;
    return id;
  }

  void firePeriodic(std::uint64_t seriesId) {
    const auto it = periodics_.find(seriesId);
    if (it == periodics_.end()) return;
    it->second.fn();
    const auto again = periodics_.find(seriesId);
    if (again == periodics_.end()) return;
    queue_.push(Event{now_ + again->second.period, nextSeq_++, seriesId,
                      /*periodic=*/true,
                      [this, seriesId] { firePeriodic(seriesId); }});
    ++queueSize_;
  }

  bool fireNext() {
    while (!queue_.empty()) {
      Event event = queue_.top();
      queue_.pop();
      --queueSize_;
      if (event.periodic) {
        if (periodics_.count(event.id) == 0) continue;
      } else if (pending_.erase(event.id) == 0) {
        continue;
      }
      now_ = event.when;
      ++fired_;
      event.fn();
      return true;
    }
    return false;
  }

  std::priority_queue<Event> queue_;
  std::unordered_set<std::uint64_t> pending_;
  std::unordered_map<std::uint64_t, PeriodicState> periodics_;
  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 1;
  std::uint64_t fired_ = 0;
  std::size_t queueSize_ = 0;
};

// The old per-node flood dedup: a hash set of seen query ids.
struct SetDedup {
  explicit SetDedup(std::size_t nodes) : seen(nodes) {}
  bool checkAndMark(std::size_t node, std::uint64_t queryId) {
    return !seen[node].insert(queryId).second;
  }
  std::vector<std::unordered_set<std::uint64_t>> seen;
};

}  // namespace legacy

double seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- microload 1: schedule/cancel churn -------------------------------------
// Rounds of: arm `batch` timers with a realistic 32-byte capture, then
// disarm all of them before they fire — the timeout-that-doesn't-expire
// pattern (phase deadlines, transfer timeouts: the awaited reply almost
// always arrives first). Ops = schedules + cancels. The legacy scheduler
// leaves the disarmed entries queued for the runUntil per round to sweep
// out; the indexed heap removes them at cancel.
template <typename Sim, typename Handle>
double scheduleCancelOpsPerSec(std::uint64_t* sinkOut) {
  constexpr int kRounds = 150;
  constexpr int kBatch = 2048;
  constexpr int kStanding = 65'536;
  Sim sim;
  Rng rng(42);
  std::uint64_t sink = 0;
  std::vector<Handle> handles;
  handles.reserve(kBatch);

  // Standing far-future timers: the deep heap a real run carries at all
  // times (probe timers, session ends for every online user). They are
  // never fired inside the bench — every churn push, cancel and purge
  // sifts past them.
  for (int i = 0; i < kStanding; ++i) {
    sim.schedule(static_cast<SimTime>(1'000'000'000 + i), [&sink] { ++sink; });
  }

  const auto runRounds = [&](int rounds) {
    std::uint64_t ops = 0;
    for (int round = 0; round < rounds; ++round) {
      handles.clear();
      for (int i = 0; i < kBatch; ++i) {
        // Three word-size captures + a reference: the shape of a protocol
        // timer (this + a couple of ids + a deadline).
        const std::uint64_t a = rng.next(), b = i, c = round;
        handles.push_back(sim.schedule(
            static_cast<SimTime>(1 + rng.uniformInt(99)),
            [&sink, a, b, c] { sink += a ^ b ^ c; }));
        ++ops;
      }
      for (const Handle handle : handles) {
        sim.cancel(handle);
        ++ops;
      }
      // A sentinel at the round horizon bounds the purge sweep: everything
      // else armed this round has been disarmed, and the standing timers
      // must stay untouched.
      sim.schedule(100, [&sink] { ++sink; });
      sim.runUntil(sim.now() + 100);
    }
    return ops;
  };

  runRounds(10);  // warmup: grow heap storage, arena, hash tables
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t ops = runRounds(kRounds);
  const double elapsed = seconds(std::chrono::steady_clock::now() - start);
  *sinkOut += sink;
  return static_cast<double>(ops) / elapsed;
}

// --- microload 2: fire loop --------------------------------------------------
// Pre-fill the queue with events at random times, then drain it.
template <typename Sim>
double fireLoopEventsPerSec(std::uint64_t* sinkOut) {
  constexpr int kEvents = 400'000;
  Sim sim;
  Rng rng(7);
  std::uint64_t sink = 0;

  const auto fill = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const std::uint64_t a = rng.next(), b = i, c = ~a;
      sim.schedule(static_cast<SimTime>(rng.uniformInt(10'000)),
                   [&sink, a, b, c] { sink += a ^ b ^ c; });
    }
  };

  fill(kEvents / 4);  // warmup
  sim.run();
  fill(kEvents);
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t fired = sim.run();
  const double elapsed = seconds(std::chrono::steady_clock::now() - start);
  *sinkOut += sink;
  return static_cast<double>(fired) / elapsed;
}

// --- microload 3: query flood ------------------------------------------------
// TTL-bounded flooding over a fixed random-regular neighbor graph: every
// visit checks the dedup structure and schedules its uncovered neighbors.
// This is the steady-state inner loop of SocialTube/NetTube search.
constexpr std::size_t kFloodNodes = 1024;
constexpr std::size_t kFloodDegree = 8;
constexpr int kFloodTtl = 3;

std::vector<std::vector<std::uint32_t>> makeFloodGraph() {
  Rng rng(99);
  std::vector<std::vector<std::uint32_t>> neighbors(kFloodNodes);
  for (std::uint32_t node = 0; node < kFloodNodes; ++node) {
    while (neighbors[node].size() < kFloodDegree) {
      const auto peer =
          static_cast<std::uint32_t>(rng.uniformInt(kFloodNodes));
      if (peer != node) neighbors[node].push_back(peer);
    }
  }
  return neighbors;
}

template <typename Sim, typename Dedup>
struct FloodCtx {
  Sim& sim;
  const std::vector<std::vector<std::uint32_t>>& neighbors;
  Dedup& dedup;
  std::uint64_t visits = 0;
};

template <typename Sim, typename Dedup>
void floodVisit(FloodCtx<Sim, Dedup>& ctx, std::uint32_t node,
                std::uint64_t queryId, int ttl) {
  ++ctx.visits;
  if (ttl == 0) return;
  for (const std::uint32_t peer : ctx.neighbors[node]) {
    if (ctx.dedup.checkAndMark(peer, queryId)) continue;
    ctx.sim.schedule(1, [&ctx, peer, queryId, ttl] {
      floodVisit(ctx, peer, queryId, ttl - 1);
    });
  }
}

struct FloodResult {
  double visitsPerSec = 0;
  double allocsPerVisit = 0;
};

template <typename Sim, typename Dedup>
FloodResult floodBench(const std::vector<std::vector<std::uint32_t>>& graph) {
  constexpr int kWarmupQueries = 400;
  constexpr int kQueries = 1200;
  Sim sim;
  Dedup dedup(kFloodNodes);
  FloodCtx<Sim, Dedup> ctx{sim, graph, dedup};
  Rng rng(1234);
  std::uint64_t nextQuery = 1;

  const auto runQueries = [&](int count) {
    for (int q = 0; q < count; ++q) {
      const auto origin =
          static_cast<std::uint32_t>(rng.uniformInt(kFloodNodes));
      const std::uint64_t queryId = nextQuery++;
      dedup.checkAndMark(origin, queryId);
      floodVisit(ctx, origin, queryId, kFloodTtl);
      sim.run();
    }
  };

  runQueries(kWarmupQueries);  // grow queue storage / arena / hash buckets
  ctx.visits = 0;
  const std::uint64_t allocsBefore =
      g_allocCount.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  runQueries(kQueries);
  const double elapsed = seconds(std::chrono::steady_clock::now() - start);
  const std::uint64_t allocs =
      g_allocCount.load(std::memory_order_relaxed) - allocsBefore;

  FloodResult result;
  result.visitsPerSec = static_cast<double>(ctx.visits) / elapsed;
  result.allocsPerVisit =
      static_cast<double>(allocs) / static_cast<double>(ctx.visits);
  return result;
}

// Best-of-N: the max rate over N runs approximates an unloaded machine
// (shared runners make single measurements noisy in both directions).
template <typename Fn>
double bestOf(int n, Fn fn) {
  double best = 0;
  for (int i = 0; i < n; ++i) best = std::max(best, fn());
  return best;
}

}  // namespace
}  // namespace st::bench

int main(int argc, char** argv) {
  using namespace st::bench;
  const char* outPath =
      microbenchOutputPath(argc, argv, "BENCH_sim.json", nullptr);
  constexpr int kReps = 3;

  std::uint64_t sink = 0;

  std::printf("scheduler microbenchmarks (legacy = pre-refactor "
              "std::function + hash-set scheduler, best of %d)\n\n",
              kReps);

  const double legacySched = bestOf(kReps, [&] {
    return scheduleCancelOpsPerSec<legacy::Simulator, legacy::EventHandle>(
        &sink);
  });
  const double slottedSched = bestOf(kReps, [&] {
    return scheduleCancelOpsPerSec<st::sim::Simulator, st::sim::EventHandle>(
        &sink);
  });
  std::printf("schedule/cancel: legacy %12.0f ops/s   slotted %12.0f ops/s"
              "   speedup %.2fx\n",
              legacySched, slottedSched, slottedSched / legacySched);

  const double legacyFire = bestOf(
      kReps, [&] { return fireLoopEventsPerSec<legacy::Simulator>(&sink); });
  const double slottedFire = bestOf(
      kReps, [&] { return fireLoopEventsPerSec<st::sim::Simulator>(&sink); });
  std::printf("fire loop:       legacy %12.0f ev/s    slotted %12.0f ev/s"
              "    speedup %.2fx\n",
              legacyFire, slottedFire, slottedFire / legacyFire);

  const auto graph = makeFloodGraph();
  FloodResult legacyFlood, slottedFlood;
  for (int i = 0; i < kReps; ++i) {
    const FloodResult lf =
        floodBench<legacy::Simulator, legacy::SetDedup>(graph);
    const FloodResult sf =
        floodBench<st::sim::Simulator, st::vod::QueryDedup>(graph);
    if (lf.visitsPerSec > legacyFlood.visitsPerSec) legacyFlood = lf;
    if (sf.visitsPerSec > slottedFlood.visitsPerSec) slottedFlood = sf;
  }
  std::printf("flood:           legacy %12.0f vis/s   slotted %12.0f vis/s"
              "   speedup %.2fx\n",
              legacyFlood.visitsPerSec, slottedFlood.visitsPerSec,
              slottedFlood.visitsPerSec / legacyFlood.visitsPerSec);
  std::printf("flood allocs/visit: legacy %.3f   slotted %.3f\n",
              legacyFlood.allocsPerVisit, slottedFlood.allocsPerVisit);

  FILE* out = std::fopen(outPath, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", outPath);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"sim_bench\",\n"
      "  \"schedule_cancel\": {\n"
      "    \"legacy_ops_per_sec\": %.0f,\n"
      "    \"slotted_ops_per_sec\": %.0f,\n"
      "    \"speedup\": %.2f\n"
      "  },\n"
      "  \"fire_loop\": {\n"
      "    \"legacy_events_per_sec\": %.0f,\n"
      "    \"slotted_events_per_sec\": %.0f,\n"
      "    \"speedup\": %.2f\n"
      "  },\n"
      "  \"flood\": {\n"
      "    \"legacy_visits_per_sec\": %.0f,\n"
      "    \"slotted_visits_per_sec\": %.0f,\n"
      "    \"speedup\": %.2f,\n"
      "    \"legacy_allocs_per_visit\": %.3f,\n"
      "    \"slotted_allocs_per_visit\": %.3f\n"
      "  }\n"
      "}\n",
      legacySched, slottedSched, slottedSched / legacySched, legacyFire,
      slottedFire, slottedFire / legacyFire, legacyFlood.visitsPerSec,
      slottedFlood.visitsPerSec,
      slottedFlood.visitsPerSec / legacyFlood.visitsPerSec,
      legacyFlood.allocsPerVisit, slottedFlood.allocsPerVisit);
  std::fclose(out);
  std::printf("\nwrote %s\n", outPath);

  // Keep the callback side effects alive past optimization.
  if (sink == 0xdeadbeef) std::printf("%llu\n",
                                      static_cast<unsigned long long>(sink));
  return 0;
}
