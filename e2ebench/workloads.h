// The benchmark's named workloads: one input shape each, derived from the
// seed alone, so the same seed always gives the same catalog and sessions.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"

namespace st::e2e {

// Table-I shape at half the ROADMAP's 2000-user reference scale, so a run
// fits several repeats (README.md, "Scale").
inline constexpr std::size_t kUsers = 1000;
inline constexpr std::size_t kSessionsPerUser = 8;
// The catalog (users, channels, videos, interests) is fixed; the seed drives
// everything the simulation draws. Catalog shape alone moves every metric
// by tens of percent from seed to seed (README.md, "Inputs").
inline constexpr std::uint64_t kCatalogSeed = 2;

struct Workload {
  std::string_view name;  // why each exists: README.md, BENCHMARK.json
  // Engine the runs use. Overlay fingerprints are comparable only within
  // one engine mode (monolithic and sharded runs of SocialTube diverge).
  std::string_view engine;
  // Systems run one after another against one shared catalog.
  std::vector<exp::SystemKind> systems;
  exp::ExperimentConfig (*config)(std::uint64_t seed);
};

[[nodiscard]] const std::vector<Workload>& workloads();
// nullptr when no workload has that name.
[[nodiscard]] const Workload* findWorkload(std::string_view name);

}  // namespace st::e2e
