// Minimal command-line flag parser for the bench/example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--name`. Unknown
// flags are an error so typos in sweep scripts fail loudly. Numeric values
// are checked in full (util/parse.h): an empty, non-numeric, trailing-garbage
// or out-of-range value prints the flag and the token on stderr and exits 2,
// like the --faults / --overload / --shards spec errors.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace st {

class Flags {
 public:
  // Parses argv. On error, records a message retrievable via error().
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  // True when the flag was given (with any value, or as a bare boolean).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string getString(const std::string& name,
                                      std::string fallback) const;
  // A given value must be a whole decimal integer, at least `min`.
  [[nodiscard]] std::int64_t getInt(
      const std::string& name, std::int64_t fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min()) const;
  // A given value must be a whole finite number.
  [[nodiscard]] double getDouble(const std::string& name,
                                 double fallback) const;
  // A duration or instant in seconds, returned as sim::SimTime: a given
  // value must be a whole finite number whose microseconds fit SimTime
  // (sim::checkedTime).
  [[nodiscard]] sim::SimTime getSeconds(const std::string& name,
                                        sim::SimTime fallback) const;
  [[nodiscard]] bool getBool(const std::string& name, bool fallback) const;

  // Flags consumed by any getter or has(); a main() can call this to reject
  // unknown flags: returns names that were provided but never queried.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  std::string error_;
};

}  // namespace st
