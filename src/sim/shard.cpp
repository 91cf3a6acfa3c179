#include "sim/shard.h"

#include <utility>

namespace st::sim {

namespace {

bool isPowerOfTwo(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

bool ShardSpec::parse(std::string_view spec, ShardSpec* out,
                      std::string* error) {
  auto reject = [&](const std::string& why) {
    if (error != nullptr) {
      std::string message = "'";
      message.append(spec).append("': ").append(why);
      *error = std::move(message);
    }
    return false;
  };
  if (spec.empty()) return reject("expected a shard count");
  std::uint64_t value = 0;
  for (const char c : spec) {
    if (c < '0' || c > '9') {
      return reject(std::string("unexpected character '") + c +
                    "' (decimal digits only)");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > kMaxShards) {
      return reject("shard count exceeds the maximum of " +
                    std::to_string(kMaxShards));
    }
  }
  if (value == 0) return reject("shard count must be at least 1");
  if (!isPowerOfTwo(value)) {
    return reject("shard count must be a power of two");
  }
  if (out != nullptr) out->count = static_cast<std::uint32_t>(value);
  return true;
}

const char* ShardSpec::grammar() {
  return "--shards N\n"
         "  N: power-of-two shard count, 1..256 (decimal)\n"
         "  Shards partition the event queue by interest community; N may\n"
         "  not exceed the catalog's community count. Omit the flag to run\n"
         "  unsharded.";
}

bool ShardPlan::validate(std::string* error) const {
  auto reject = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (shardCount == 0 || !isPowerOfTwo(shardCount)) {
    return reject("shard count must be a positive power of two (got " +
                  std::to_string(shardCount) + ")");
  }
  if (shardCount > ShardSpec::kMaxShards) {
    return reject("shard count " + std::to_string(shardCount) +
                  " exceeds the maximum of " +
                  std::to_string(ShardSpec::kMaxShards));
  }
  if (keyCount < 2) {
    return reject("sharding needs at least one community key besides the "
                  "root (keyCount >= 2)");
  }
  const std::uint32_t communities = keyCount - 1;
  if (shardCount > communities) {
    return reject("shards (" + std::to_string(shardCount) +
                  ") exceed the catalog's communities (" +
                  std::to_string(communities) +
                  "); an empty shard is pure barrier overhead");
  }
  if (lookahead <= 0) {
    return reject(
        "latency model's cross-community delay floor must be positive to "
        "derive a lookahead window (got " + std::to_string(lookahead) +
        "us); fix the latency configuration or run without --shards");
  }
  return true;
}

}  // namespace st::sim
