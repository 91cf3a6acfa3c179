// Strict command line for e2e_bench. Every value is validated whole: a
// non-numeric or trailing-garbage number, an unknown workload, an unknown or
// repeated flag is an error naming the offending token (e2e_bench exits 2),
// never a silent default — a typo must not benchmark seed 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace st::e2e {

struct Options {
  std::vector<const Workload*> workloads;  // --workload a[,b...] (required)
  std::uint64_t seed = 0;                  // --seed N (required)
  double seconds = 10.0;                   // --seconds S: measuring budget
  bool trace = false;                      // --trace 0|1: the traced pass
  std::size_t minRepeats = 2;              // --repeats N: runs at least N
};

[[nodiscard]] const char* usage();

// False with *error set on any invalid argument.
bool parseOptions(int argc, char** argv, Options* out, std::string* error);

}  // namespace st::e2e
