// Community sharding plan for the conservative parallel engine.
//
// The overlay is naturally partitioned by interest community (DESIGN.md
// §13): every event is owned by a *community key* — key 0 is the root
// (origin server, experiment machinery, the data plane), keys 1..C are the
// interest communities. Keys map onto a power-of-two number of shards by
// masking, each shard owns its own slotted event queue, and cross-shard
// events are exchanged at lookahead barriers derived from the latency
// model's minimum cross-community delay. The canonical order of two events
// is (time, then owner key, then per-key sequence), which no shard count
// can change — so a sharded run is bitwise-identical to the same run at
// any other shard count, including the serial `--shards 1` merge. The
// default ShardPlan is the one-key plan of an unsharded run: its order
// differs from a community plan's, so results compare only within one
// `--shards` setting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/time.h"

namespace st::sim {

// Parsed value of the `--shards` flag. Pure CLI-validatable (like
// fault::Schedule and vod::OverloadConfig): parse() touches no simulator
// state, so example binaries can reject a bad spec with exit code 2 and
// the offending token before any setup work runs.
struct ShardSpec {
  std::uint32_t count = 0;  // 0 = sharding off (the one-key plan)

  [[nodiscard]] bool any() const { return count > 0; }

  // Accepts a positive power of two up to kMaxShards. On failure returns
  // false and sets *error to a message naming the offending token.
  static bool parse(std::string_view spec, ShardSpec* out, std::string* error);
  [[nodiscard]] static const char* grammar();

  static constexpr std::uint32_t kMaxShards = 256;
};

// Resolved sharding geometry handed to Simulator::configureShards once the
// catalog (community count) and latency model (lookahead floor) are known.
struct ShardPlan {
  // Owner-key space: 1 root key + the community count. Every key maps to
  // shard (key & (shardCount - 1)).
  std::uint32_t keyCount = 1;
  std::uint32_t shardCount = 1;  // power of two, >= 1
  // Conservative lookahead: no cross-shard message travels faster than
  // this, so a window [T, T + lookahead) can run shard-local without
  // seeing any event born in another shard during the same window.
  SimTime lookahead = 0;

  [[nodiscard]] std::uint32_t shardOf(std::uint32_t key) const {
    return key & (shardCount - 1);
  }

  // Structural validity: power-of-two shard count, shards <= communities
  // (an empty shard would be pure barrier overhead and signals a misread
  // of the catalog), and a positive lookahead floor.
  [[nodiscard]] bool validate(std::string* error) const;
};

}  // namespace st::sim
