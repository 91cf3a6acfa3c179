#include "workloads.h"

#include <algorithm>
#include <cstdlib>

#include "sim/time.h"

namespace st::e2e {

namespace {

exp::ExperimentConfig tableOne(std::uint64_t seed) {
  exp::ExperimentConfig config =
      exp::ExperimentConfig::simulationDefaults(seed).scaledTo(
          kUsers, kSessionsPerUser);
  config.trace.seed = kCatalogSeed;
  return config;
}

// Faults spread over the three simulated days: three crash waves, each
// followed by a rejoin of every crashed user; gray slow and flapping
// windows; a duplicate+reorder window; one partition of category 0; one
// origin-server outage.
constexpr const char* kStormFaults =
    "crash:t=14400,frac=0.1;rejoin:t=18000,frac=1.0;"
    "slow:t=36000,dur=3600,frac=0.15,factor=6;"
    "dup:t=57600,dur=3600,rate=0.2;"
    "reorder:t=57600,dur=3600,rate=0.2,delay_ms=150;"
    "partition:t=79200,dur=1800,cat=0;"
    "crash:t=100800,frac=0.1;rejoin:t=104400,frac=1.0;"
    "flap:t=122400,dur=3600,frac=0.1,period=45;"
    "outage:t=144000,dur=600;"
    "crash:t=187200,frac=0.1;rejoin:t=190800,frac=1.0";

exp::ExperimentConfig churnStorm(std::uint64_t seed) {
  exp::ExperimentConfig config = tableOne(seed);
  config.shards.count = 8;
  config.faults.spec = kStormFaults;
  config.faults.auditInterval = 10 * sim::kMinute;
  // Every overload knob at its default, plus hedged first-chunk refetch.
  if (!vod::OverloadConfig::parse("on,hedge=2", &config.vod.overload,
                                   nullptr)) {
    std::abort();
  }
  return config;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"fig16", "monolithic",
       {exp::SystemKind::kPaVod, exp::SystemKind::kSocialTube,
        exp::SystemKind::kNetTube},
       &tableOne},
      {"churn-storm", "shards=8 (serial merge)",
       {exp::SystemKind::kSocialTube}, &churnStorm},
  };
  return kWorkloads;
}

const Workload* findWorkload(std::string_view name) {
  const auto& all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return w.name == name; });
  return it == all.end() ? nullptr : &*it;
}

}  // namespace st::e2e
