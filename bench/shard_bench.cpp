// Sharded-engine benchmark: one large community-keyed run through the
// unsharded one-key plan (every event on the root key, one queue), the
// sharded serial merge, and the parallel lookahead windows at 2 and at 4
// workers, with an in-binary sequential cross-check.
//
// The workload is synthetic but shaped like a protocol run at figure-16
// scale: 100k nodes spread over 128 interest communities, each node
// driving a chain of chunk-download events on its home community key,
// with occasional cross-community gossip posted at or above the lookahead
// floor. Every event touches only its owner key's state (RNG, byte/
// completion tallies, FNV fingerprint), which is exactly the shard-safety
// contract DESIGN.md §13 asks of parallel workloads.
//
// Cross-check: completions, bytes, events fired, and the combined
// per-community fingerprint must match EXACTLY across every arm (and
// crossBelowFloor must stay 0 in parallel mode). Any divergence prints the
// offending quantity and exits 1, failing the bench — the numbers in
// BENCH_shard.json are only meaningful if the engines agree.
//
// The JSON reports measured wall-clock only, best of the repetitions; the
// parallel arms need as many free cores as workers to show their speed-up.
//
// Emits BENCH_shard.json (path = first positional arg, default
// ./BENCH_shard.json). Regenerate the committed baseline with:
//   cmake --build build --target shard_bench && ./build/bench/shard_bench BENCH_shard.json
// `--smoke` runs a reduced configuration (scripts/check.sh uses it to arm
// the cross-check in CI without paying the full-scale wall-clock).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace st::bench {
namespace {

using sim::SimTime;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnvMix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

struct BenchConfig {
  std::size_t nodes = 100'000;
  std::uint32_t communities = 128;  // keys 1..128; key 0 = root/driver
  std::uint32_t shards = 8;
  int chunksPerSession = 12;
  SimTime lookahead = 10 * sim::kMillisecond;
  std::uint64_t seed = 1;
};

// Per-community tallies. Only events owned by `key` touch slot `key`, so
// parallel windows never race on a slot; alignas keeps hot neighbouring
// communities off one cache line anyway.
struct alignas(64) CommunityState {
  Rng rng{0};
  std::uint64_t bytes = 0;
  std::uint64_t completions = 0;
  std::uint64_t fingerprint = kFnvOffset;
  // Gossip arrivals accumulate commutatively (a sum, not an FNV chain):
  // a gossip event and a local chunk can land on one community at the
  // same microsecond, and the engines legitimately break that tie
  // differently (one-key plan: global insertion order; sharded: canonical
  // source-key order). The tie never touches chunk state — gossip draws
  // no RNG and schedules nothing — so an order-insensitive accumulator
  // keeps the cross-check exact without depending on tie-break policy.
  std::uint64_t gossipSum = 0;
};

struct RunResult {
  std::uint64_t eventsFired = 0;
  std::uint64_t bytes = 0;
  std::uint64_t completions = 0;
  std::uint64_t fingerprint = 0;  // FNV over the per-community fingerprints
  std::uint64_t crossShardPosts = 0;
  std::uint64_t crossBelowFloor = 0;
  std::uint64_t windowsRun = 0;
  double wallMs = 0.0;
};

// The chunk-chain workload. Every callback runs under its community's
// owner key: local follow-ups inherit the key via schedule(), cross-
// community gossip goes through scheduleForKey at >= the lookahead floor.
// On the one-key plan every post goes to the root key instead; the
// community index still selects the state the event touches.
class Workload {
 public:
  Workload(sim::Simulator& sim, const BenchConfig& config)
      : sim_(sim),
        config_(config),
        keyed_(sim.shardPlan().keyCount > 1),
        state_(config.communities + 1) {
    for (std::uint32_t key = 1; key <= config_.communities; ++key) {
      state_[key].rng = Rng(config_.seed * 1000003ULL + key);
    }
  }

  // Seed posts run from key 0 (the driver), so they are cross-shard and
  // must respect the floor themselves.
  void seed() {
    for (std::size_t node = 0; node < config_.nodes; ++node) {
      const std::uint32_t key =
          1 + static_cast<std::uint32_t>(node % config_.communities);
      const SimTime start =
          config_.lookahead +
          static_cast<SimTime>(node / config_.communities) * sim::kMillisecond;
      sim_.scheduleForKey(ownerKey(key), start, [this, key] {
        chunk(key, config_.chunksPerSession);
      });
    }
  }

  [[nodiscard]] const std::vector<CommunityState>& state() const {
    return state_;
  }

 private:
  void chunk(std::uint32_t key, int remaining) {
    CommunityState& community = state_[key];
    const std::uint64_t draw = community.rng.next();
    const std::uint64_t chunkBytes = 16'384 + (draw & 0x3fff);
    community.bytes += chunkBytes;
    community.fingerprint =
        fnvMix(fnvMix(community.fingerprint, sim_.now()), chunkBytes);
    if (remaining > 1) {
      const SimTime delay = 1 + static_cast<SimTime>(draw >> 32) % (5 * sim::kMillisecond);
      sim_.schedule(delay, [this, key, remaining] { chunk(key, remaining - 1); });
      return;
    }
    ++community.completions;
    // 1-in-8 sessions end with cross-community gossip: a recommendation
    // forwarded to another interest community, never faster than the floor.
    if ((draw & 0x7) == 0) {
      const auto other = static_cast<std::uint32_t>(
          1 + (draw >> 16) % config_.communities);
      const SimTime delay =
          config_.lookahead + static_cast<SimTime>((draw >> 40) & 0x3ff);
      sim_.scheduleForKey(ownerKey(other), delay,
                          [this, other] { gossip(other); });
    }
  }

  void gossip(std::uint32_t key) {
    CommunityState& community = state_[key];
    community.gossipSum += fnvMix(kFnvOffset, sim_.now() ^ 0x9e37);
  }

  [[nodiscard]] std::uint32_t ownerKey(std::uint32_t community) const {
    return keyed_ ? community : 0;
  }

  sim::Simulator& sim_;
  const BenchConfig& config_;
  bool keyed_;  // false on the one-key plan
  std::vector<CommunityState> state_;
};

enum class Engine { kOneKey, kShardedSerial, kShardedParallel };

// `workers` applies to the parallel arm only.
RunResult runOnce(const BenchConfig& config, Engine engine,
                  std::size_t workers) {
  sim::Simulator sim;
  if (engine != Engine::kOneKey) {
    sim::ShardPlan plan;
    plan.keyCount = config.communities + 1;
    plan.shardCount = config.shards;
    plan.lookahead = config.lookahead;
    std::string error;
    if (!sim.configureShards(plan, &error)) {
      std::fprintf(stderr, "shard_bench: configureShards failed: %s\n",
                   error.c_str());
      std::exit(1);
    }
    sim.setWorkers(engine == Engine::kShardedParallel ? workers : 1);
  }
  Workload workload(sim, config);

  const auto start = std::chrono::steady_clock::now();
  workload.seed();
  if (engine == Engine::kShardedParallel) {
    // Parallel lookahead windows only engage through runUntil(); run()
    // is always the serial merge. The horizon is far past the last event,
    // and windows skip dead time, so this drains everything.
    sim.runUntil(sim::kHour);
  }
  sim.run();  // no-op after a fully-drained parallel horizon
  const auto stop = std::chrono::steady_clock::now();

  RunResult result;
  result.wallMs =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.eventsFired = sim.eventsFired();
  result.fingerprint = kFnvOffset;
  for (std::uint32_t key = 1; key <= config.communities; ++key) {
    const CommunityState& community = workload.state()[key];
    result.bytes += community.bytes;
    result.completions += community.completions;
    result.fingerprint = fnvMix(result.fingerprint, community.fingerprint);
    result.fingerprint = fnvMix(result.fingerprint, community.gossipSum);
  }
  if (engine != Engine::kOneKey) {
    result.crossShardPosts = sim.crossShardPosts();
    result.crossBelowFloor = sim.crossBelowFloor();
    result.windowsRun = sim.windowsRun();
  }
  return result;
}

// Exact-equality cross-check; a divergence fails the whole bench.
bool crossCheck(const char* label, const RunResult& expected,
                const RunResult& actual) {
  bool ok = true;
  const auto check = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    if (a != b) {
      std::fprintf(stderr,
                   "shard_bench: CROSS-CHECK FAILED [%s] %s: %llu != %llu\n",
                   label, what, static_cast<unsigned long long>(a),
                   static_cast<unsigned long long>(b));
      ok = false;
    }
  };
  check("completions", expected.completions, actual.completions);
  check("bytes", expected.bytes, actual.bytes);
  check("eventsFired", expected.eventsFired, actual.eventsFired);
  check("fingerprint", expected.fingerprint, actual.fingerprint);
  return ok;
}

RunResult bestOf(int reps, const BenchConfig& config, Engine engine,
                 std::size_t workers = 1) {
  RunResult best;
  for (int rep = 0; rep < reps; ++rep) {
    RunResult result = runOnce(config, engine, workers);
    if (rep == 0 || result.wallMs < best.wallMs) best = std::move(result);
  }
  return best;
}

int benchMain(int argc, char** argv) {
  bool smoke = false;
  const char* outPath =
      microbenchOutputPath(argc, argv, "BENCH_shard.json", &smoke);

  BenchConfig config;
  if (smoke) {
    config.nodes = 20'000;
    config.chunksPerSession = 8;
  }
  const int kReps = smoke ? 1 : 3;
  constexpr std::size_t kWorkers[] = {2, 4};
  std::printf("shard_bench: %zu nodes, %u communities, %u shards, best of %d%s\n",
              config.nodes, config.communities, config.shards, kReps,
              smoke ? " [smoke]" : "");

  const RunResult oneKey = bestOf(kReps, config, Engine::kOneKey);
  std::printf("  one-key plan      %10.1f ms  %llu events\n", oneKey.wallMs,
              static_cast<unsigned long long>(oneKey.eventsFired));

  const RunResult serial = bestOf(kReps, config, Engine::kShardedSerial);
  std::printf("  sharded serial    %10.1f ms  %llu cross-shard posts\n",
              serial.wallMs,
              static_cast<unsigned long long>(serial.crossShardPosts));
  bool ok = crossCheck("sharded-serial vs one-key", oneKey, serial);

  std::vector<RunResult> parallel;
  for (const std::size_t workers : kWorkers) {
    parallel.push_back(
        bestOf(kReps, config, Engine::kShardedParallel, workers));
    const RunResult& run = parallel.back();
    std::printf("  sharded parallel  %10.1f ms  %llu windows (%zu workers)\n",
                run.wallMs, static_cast<unsigned long long>(run.windowsRun),
                workers);
    const std::string label =
        "sharded-parallel x" + std::to_string(workers) + " vs one-key";
    ok = crossCheck(label.c_str(), oneKey, run) && ok;
    if (run.crossBelowFloor != 0) {
      std::fprintf(stderr,
                   "shard_bench: CROSS-CHECK FAILED: %zu-worker run counted "
                   "%llu sub-floor cross posts (degraded; equality not "
                   "guaranteed)\n",
                   workers,
                   static_cast<unsigned long long>(run.crossBelowFloor));
      ok = false;
    }
  }
  if (!ok) return 1;
  std::printf("  cross-check       pass (completions/bytes/events/fingerprint "
              "exact across all arms)\n");

  const auto speedup = [&](const RunResult& run) {
    return run.wallMs > 0.0 ? oneKey.wallMs / run.wallMs : 0.0;
  };
  std::FILE* f = std::fopen(outPath, "w");
  if (!f) {
    std::fprintf(stderr, "shard_bench: cannot write %s\n", outPath);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"shard_bench\",\n");
  std::fprintf(f,
               "  \"config\": {\"nodes\": %zu, \"communities\": %u, "
               "\"shards\": %u, \"reps\": %d, \"smoke\": %s},\n",
               config.nodes, config.communities, config.shards, kReps,
               smoke ? "true" : "false");
  std::fprintf(f, "  \"oneKey\": {\"wallMs\": %.1f, \"events\": %llu},\n",
               oneKey.wallMs,
               static_cast<unsigned long long>(oneKey.eventsFired));
  std::fprintf(f,
               "  \"shardedSerial\": {\"wallMs\": %.1f, \"speedupVsOneKey\": "
               "%.2f, \"crossShardPosts\": %llu},\n",
               serial.wallMs, speedup(serial),
               static_cast<unsigned long long>(serial.crossShardPosts));
  std::fprintf(f, "  \"shardedParallel\": [");
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    const RunResult& run = parallel[i];
    std::fprintf(f,
                 "%s\n    {\"workers\": %zu, \"wallMs\": %.1f, "
                 "\"speedupVsOneKey\": %.2f, \"windows\": %llu, "
                 "\"crossBelowFloor\": %llu}",
                 i == 0 ? "" : ",", kWorkers[i], run.wallMs, speedup(run),
                 static_cast<unsigned long long>(run.windowsRun),
                 static_cast<unsigned long long>(run.crossBelowFloor));
  }
  std::fprintf(f, "\n  ],\n  \"crossCheck\": \"pass\"\n}\n");
  std::fclose(f);
  std::printf("shard_bench: wrote %s\n", outPath);
  return 0;
}

}  // namespace
}  // namespace st::bench

int main(int argc, char** argv) { return st::bench::benchMain(argc, argv); }
