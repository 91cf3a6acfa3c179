// Shared plumbing for the figure-reproduction binaries.
//
// Trace figures (2-13) analyze a crawl-scale synthetic catalog (the paper
// crawled 2,031 users); system figures (16-18) run reduced-scale
// experiments by default and paper scale with --full.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/config.h"
#include "fault/schedule.h"
#include "sim/shard.h"
#include "trace/crawler.h"
#include "trace/generator.h"
#include "trace/stats.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "vod/overload.h"

namespace st::bench {

// Worker count for independent runs: --threads wins, then ST_THREADS, then
// sequential. Results are independent of this value by construction (runs
// land in fixed slots); it only changes wall-clock.
inline std::size_t threadCount(const Flags& flags) {
  return resolveThreadCount(flags.getInt("threads", 0), 1);
}

// Catalog sized like the paper's crawl sample.
inline trace::Catalog crawlScaleCatalog(const Flags& flags) {
  trace::GeneratorParams params;
  params.seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  params.numUsers =
      static_cast<std::size_t>(flags.getInt("users", 2'031, 1));
  params.numChannels =
      static_cast<std::size_t>(flags.getInt("channels", 545, 1));
  // The crawl saw 261,101 videos; default to a computationally friendly
  // subset with the same per-channel shape (override with --videos).
  params.numVideos =
      static_cast<std::size_t>(flags.getInt("videos", 20'000, 0));
  return trace::generateTrace(params);
}

// The robustness CLI every experiment binary shares: --faults SPEC layers a
// scripted fault schedule, --audit SECONDS arms the invariant checker,
// --overload SPEC enables the overload-control knobs, and --shards N runs
// on the community-sharded engine. A malformed spec prints the offending
// token and the full grammar on stderr and exits 2, exactly like
// churn_storm and the runner — no partial catalog generation first.
inline void applyRobustnessFlags(const Flags& flags,
                                 exp::ExperimentConfig& config) {
  if (const std::string faultSpec = flags.getString("faults", "");
      !faultSpec.empty()) {
    fault::Schedule schedule;
    std::string error;
    if (!fault::Schedule::parse(faultSpec, &schedule, &error)) {
      std::fprintf(stderr, "--faults: %s\n%s\n", error.c_str(),
                   fault::Schedule::grammar());
      std::exit(2);
    }
    config.faults.spec = faultSpec;
  }
  const sim::SimTime audit = flags.getSeconds("audit", 0);
  if (audit < 0) {
    std::fprintf(stderr, "--audit: interval must be >= 0 seconds (got %g)\n",
                 sim::toSeconds(audit));
    std::exit(2);
  }
  if (audit > 0) config.faults.auditInterval = audit;
  if (const std::string overloadSpec = flags.getString("overload", "");
      !overloadSpec.empty()) {
    vod::OverloadConfig overload;
    std::string error;
    if (!vod::OverloadConfig::parse(overloadSpec, &overload, &error)) {
      std::fprintf(stderr, "--overload: %s\n%s\n", error.c_str(),
                   vod::OverloadConfig::grammar());
      std::exit(2);
    }
    config.vod.overload = overload;
  }
  if (const std::string shardSpec = flags.getString("shards", "");
      !shardSpec.empty()) {
    sim::ShardSpec shards;
    std::string error;
    if (!sim::ShardSpec::parse(shardSpec, &shards, &error)) {
      std::fprintf(stderr, "--shards: %s\n%s\n", error.c_str(),
                   sim::ShardSpec::grammar());
      std::exit(2);
    }
    config.shards.count = shards.count;
  }
}

// Experiment config honoring --full / --planetlab / --users / --sessions
// plus the shared robustness flags (--faults / --audit / --overload /
// --shards, see applyRobustnessFlags).
inline exp::ExperimentConfig experimentConfig(const Flags& flags) {
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  const bool planetlab = flags.getBool("planetlab", false);
  exp::ExperimentConfig config =
      planetlab ? exp::ExperimentConfig::planetLabDefaults(seed)
                : exp::ExperimentConfig::simulationDefaults(seed);
  if (!flags.getBool("full", false)) {
    const auto users = static_cast<std::size_t>(
        flags.getInt("users", planetlab ? 250 : 1'500, 1));
    const auto sessions = static_cast<std::size_t>(
        flags.getInt("sessions", planetlab ? 10 : 8, 0));
    config = config.scaledTo(users, sessions);
    if (planetlab) config.vod.serverUploadBps = 5'000'000.0;
  }
  // Checkpoint/restore (DESIGN.md §11): --snapshot-out saves the complete
  // state at --snapshot-at seconds (0 = the horizon) and --snapshot-in
  // resumes from such a file. Figure binaries run all three systems, so
  // exp::runAllSystems suffixes both paths per system (".PA-VoD",
  // ".SocialTube", ".NetTube"); a warmed three-system figure re-drives
  // from its snapshots without replaying a single cold session. Negative
  // --snapshot-at values are treated as 0.
  config.snapshot.out = flags.getString("snapshot-out", "");
  config.snapshot.in = flags.getString("snapshot-in", "");
  config.snapshot.at =
      std::max<sim::SimTime>(flags.getSeconds("snapshot-at", 0), 0);
  applyRobustnessFlags(flags, config);
  return config;
}

inline int rejectUnknownFlags(const Flags& flags) {
  if (!flags.ok()) {
    std::fprintf(stderr, "flag error: %s\n", flags.error().c_str());
    return 1;
  }
  for (const auto& name : flags.unconsumed()) {
    std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
    return 1;
  }
  return 0;
}

// Arguments of a microbenchmark (shard_bench): an optional output path and
// `--smoke`. Any other dash argument, or a second path, prints the token and
// exits 2 instead of becoming the output file's name.
inline const char* microbenchOutputPath(int argc, char** argv,
                                        const char* defaultPath, bool* smoke) {
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      *smoke = true;
    } else if (arg.rfind('-', 0) == 0 || path != nullptr) {
      std::fprintf(stderr,
                   "%s: unexpected argument '%s' (usage: %s [--smoke] [OUT])\n",
                   argv[0], argv[i], argv[0]);
      std::exit(2);
    } else {
      path = argv[i];
    }
  }
  return path != nullptr ? path : defaultPath;
}

}  // namespace st::bench
