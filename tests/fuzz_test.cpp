// Randomized model-checking tests: drive components with random operation
// sequences and compare against simple reference models (oracles).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/nettube.h"
#include "core/socialtube.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "fault/schedule.h"
#include "net/flow_network.h"
#include "sim/simulator.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "snapshot_harness.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "vod/membership.h"
#include "vod/releases.h"
#include "vod/session.h"
#include "vod/transfer.h"

namespace st {
namespace {

// --- MembershipDirectory vs a std::map/set oracle -----------------------------

class MembershipFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MembershipFuzz, MatchesReferenceModel) {
  vod::MembershipDirectory<ChannelId> directory;
  std::map<std::uint32_t, std::set<std::uint32_t>> oracle;  // key -> users
  Rng rng(GetParam());
  constexpr std::uint32_t kUsers = 40;
  constexpr std::uint32_t kKeys = 8;

  for (int step = 0; step < 5000; ++step) {
    const auto user = static_cast<std::uint32_t>(
        rng.uniformInt(std::uint64_t{kUsers}));
    const auto key = static_cast<std::uint32_t>(
        rng.uniformInt(std::uint64_t{kKeys}));
    const double roll = rng.uniform();
    if (roll < 0.5) {
      directory.add(UserId{user}, ChannelId{key});
      oracle[key].insert(user);
    } else if (roll < 0.8) {
      directory.remove(UserId{user}, ChannelId{key});
      oracle[key].erase(user);
    } else if (roll < 0.9) {
      directory.removeAll(UserId{user});
      for (auto& [k, users] : oracle) users.erase(user);
    } else {
      // Invariant audit.
      std::size_t total = 0;
      for (const auto& [k, users] : oracle) {
        ASSERT_EQ(directory.memberCount(ChannelId{k}), users.size());
        for (const std::uint32_t u : users) {
          ASSERT_TRUE(directory.contains(UserId{u}, ChannelId{k}));
        }
        total += users.size();
      }
      ASSERT_EQ(directory.totalRegistrations(), total);
      // Random-member sampling returns only real members.
      const ChannelId probe{key};
      const auto picked =
          directory.randomMembers(probe, 3, UserId{user}, rng);
      for (const UserId p : picked) {
        ASSERT_TRUE(oracle[key].count(p.value()) > 0);
        ASSERT_NE(p.value(), user);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- Simulator under random schedule/cancel churn ------------------------------

class SimulatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorFuzz, FiresExactlyTheUncancelledEvents) {
  sim::Simulator sim;
  Rng rng(GetParam());
  int fired = 0;
  std::vector<sim::EventHandle> handles;
  int expected = 0;
  std::set<std::size_t> cancelled;

  for (int i = 0; i < 2000; ++i) {
    handles.push_back(sim.schedule(
        static_cast<sim::SimTime>(rng.uniformInt(std::uint64_t{10000})),
        [&fired] { ++fired; }));
  }
  // Cancel a random subset before running.
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (rng.bernoulli(0.3)) {
      sim.cancel(handles[i]);
      cancelled.insert(i);
    }
  }
  expected = static_cast<int>(handles.size() - cancelled.size());
  sim.run();
  EXPECT_EQ(fired, expected);
  // Double-cancel and post-fire cancel are harmless.
  for (const auto& handle : handles) sim.cancel(handle);
  EXPECT_FALSE(sim.step());
}

TEST_P(SimulatorFuzz, TimeNeverGoesBackwardUnderNestedScheduling) {
  sim::Simulator sim;
  Rng rng(GetParam() ^ 0x777);
  sim::SimTime last = 0;
  bool monotone = true;
  int remaining = 3000;

  std::function<void()> spawn = [&] {
    if (sim.now() < last) monotone = false;
    last = sim.now();
    if (remaining-- > 0) {
      sim.schedule(static_cast<sim::SimTime>(rng.uniformInt(std::uint64_t{50})),
                   spawn);
      if (rng.bernoulli(0.3)) {
        sim.schedule(
            static_cast<sim::SimTime>(rng.uniformInt(std::uint64_t{50})),
            spawn);
      }
    }
  };
  sim.schedule(0, spawn);
  sim.run();
  EXPECT_TRUE(monotone);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFuzz, ::testing::Values(1, 2, 3));

// --- Fault-schedule parsing under random and mutated specs ---------------------

// Random spec builder biased toward well-formed input, with mutations mixed
// in. Whatever comes out, Schedule::parse must never crash; rejections must
// carry an error message and leave the schedule empty; accepted schedules
// must satisfy the documented field ranges and time ordering.
class ScheduleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

namespace schedule_fuzz {

std::string randomToken(Rng& rng) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789.=,:;- \t";
  std::string token;
  const auto length = rng.uniformInt(std::uint64_t{8});
  for (std::uint64_t i = 0; i < length; ++i) {
    token += kAlphabet[rng.uniformInt(std::uint64_t{sizeof(kAlphabet) - 1})];
  }
  return token;
}

std::string randomValue(Rng& rng) {
  switch (rng.uniformInt(std::uint64_t{7})) {
    case 0: return std::to_string(rng.uniformInt(std::uint64_t{100000}));
    case 1: return std::to_string(rng.uniform() * 2.0);  // may exceed [0,1]
    case 2: return "-" + std::to_string(rng.uniformInt(std::uint64_t{100}));
    case 3: return "nan";
    case 4: return "inf";
    case 5: return "1e300";  // finite, but overflows SimTime as seconds
    default: return randomToken(rng);
  }
}

std::string randomEvent(Rng& rng) {
  static constexpr const char* kKinds[] = {
      "crash", "blackhole", "loss",    "partition", "outage", "slow",
      "flap",  "dup",       "reorder", "rejoin",    "meteor", ""};
  static constexpr const char* kKeys[] = {
      "t",    "dur",    "frac",   "user",  "cat",    "rate", "delay_ms",
      "peer", "factor", "period", "server", "bogus", ""};
  std::string event(kKinds[rng.uniformInt(std::uint64_t{12})]);
  event += ':';
  const auto fields = rng.uniformInt(std::uint64_t{4});
  for (std::uint64_t f = 0; f <= fields; ++f) {
    if (f > 0) event += ',';
    event += kKeys[rng.uniformInt(std::uint64_t{13})];
    if (!rng.bernoulli(0.1)) event += '=';  // sometimes drop the '='
    event += randomValue(rng);
  }
  return event;
}

}  // namespace schedule_fuzz

TEST_P(ScheduleFuzz, NeverCrashesAndRejectsCleanly) {
  Rng rng(GetParam());
  for (int step = 0; step < 3000; ++step) {
    std::string spec;
    if (rng.bernoulli(0.1)) {
      spec = schedule_fuzz::randomToken(rng);  // pure garbage
    } else {
      const auto events = rng.uniformInt(std::uint64_t{3});
      for (std::uint64_t e = 0; e <= events; ++e) {
        if (e > 0) spec += ';';
        spec += schedule_fuzz::randomEvent(rng);
      }
    }
    fault::Schedule schedule;
    std::string error;
    if (fault::Schedule::parse(spec, &schedule, &error)) {
      // Accepted: every event honors the documented contract.
      sim::SimTime last = 0;
      for (const fault::FaultEvent& event : schedule.events()) {
        ASSERT_GE(event.at, last) << spec;
        last = event.at;
        ASSERT_GE(event.at, 0) << spec;
        ASSERT_GT(event.duration, 0) << spec;
        ASSERT_GE(event.fraction, 0.0) << spec;
        ASSERT_LE(event.fraction, 1.0) << spec;
        ASSERT_GE(event.lossRate, 0.0) << spec;
        ASSERT_LE(event.lossRate, 1.0) << spec;
        ASSERT_GE(event.extraDelay, 0) << spec;
        ASSERT_GE(event.factor, 1.0) << spec;  // gray never speeds links up
        if (event.kind == fault::FaultKind::kFlap) {
          ASSERT_GT(event.period, 0) << spec;  // no zero-microsecond flap
        }
        if (event.kind == fault::FaultKind::kPartition) {
          ASSERT_TRUE(event.category.valid()) << spec;
        }
        if (event.peer.valid()) {
          // Edge scoping: only slow/dup/reorder, always with a distinct
          // user= anchor.
          ASSERT_TRUE(event.kind == fault::FaultKind::kSlow ||
                      event.kind == fault::FaultKind::kDup ||
                      event.kind == fault::FaultKind::kReorder)
              << spec;
          ASSERT_TRUE(event.user.valid()) << spec;
          ASSERT_NE(event.peer, event.user) << spec;
        }
      }
      // Accepted specs parse identically on a second pass (parsing is pure).
      fault::Schedule again;
      ASSERT_TRUE(fault::Schedule::parse(spec, &again, nullptr)) << spec;
      ASSERT_EQ(again.events().size(), schedule.events().size()) << spec;
    } else {
      ASSERT_FALSE(error.empty()) << spec;
      ASSERT_TRUE(schedule.empty()) << spec;
    }
    // A null error sink must also be safe on the reject path.
    fault::Schedule ignored;
    fault::Schedule::parse(spec, &ignored, nullptr);
  }
}

TEST_P(ScheduleFuzz, WellFormedSpecsAlwaysParse) {
  Rng rng(GetParam() ^ 0xfa017);
  static constexpr const char* kKinds[] = {
      "crash", "blackhole", "loss", "partition", "outage",
      "slow",  "flap",      "dup",  "reorder",   "rejoin"};
  for (int step = 0; step < 2000; ++step) {
    std::string spec;
    const auto events = rng.uniformInt(std::uint64_t{4});
    for (std::uint64_t e = 0; e <= events; ++e) {
      if (e > 0) spec += ';';
      const std::size_t kind = rng.uniformInt(std::uint64_t{10});
      spec += kKinds[kind];
      spec += ":t=" + std::to_string(rng.uniform() * 86400.0);
      if (rng.bernoulli(0.5)) {
        spec += ",dur=" + std::to_string(1.0 + rng.uniform() * 600.0);
      }
      if (rng.bernoulli(0.5)) {
        spec += ",frac=" + std::to_string(rng.uniform());
      }
      if ((kind == 2 || kind == 7 || kind == 8) && rng.bernoulli(0.5)) {
        spec += ",rate=" + std::to_string(rng.uniform());
      }
      if ((kind == 2 || kind == 8) && rng.bernoulli(0.5)) {
        spec += ",delay_ms=" + std::to_string(rng.uniform() * 200.0);
      }
      if (kind == 3) {
        spec += ",cat=" + std::to_string(rng.uniformInt(std::uint64_t{32}));
        if (rng.bernoulli(0.5)) spec += ",server=1";
      }
      if ((kind == 5 || kind == 6) && rng.bernoulli(0.5)) {
        spec += ",factor=" + std::to_string(1.0 + rng.uniform() * 15.0);
      }
      if (kind == 6 && rng.bernoulli(0.5)) {
        spec += ",period=" + std::to_string(1.0 + rng.uniform() * 120.0);
      }
      if ((kind == 1 || kind == 5 || kind == 6 || kind == 9) &&
          rng.bernoulli(0.5)) {
        spec += ",user=" + std::to_string(rng.uniformInt(std::uint64_t{1000}));
      }
      if ((kind == 5 || kind == 7 || kind == 8) && rng.bernoulli(0.3)) {
        // A well-formed edge scope: user= plus a distinct peer=.
        const std::uint64_t user = rng.uniformInt(std::uint64_t{1000});
        spec += ",user=" + std::to_string(user);
        spec += ",peer=" + std::to_string(user + 1);
      }
    }
    fault::Schedule schedule;
    std::string error;
    ASSERT_TRUE(fault::Schedule::parse(spec, &schedule, &error))
        << spec << " -> " << error;
    ASSERT_EQ(schedule.events().size(), events + 1) << spec;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz, ::testing::Values(1, 2, 3));

// --- --shards spec parsing under random and adversarial input -------------------

// ShardSpec::parse is the CLI gate for the sharded engine (the same
// exit-2-with-offending-token contract --faults and --overload follow).
// Documented rejects: zero, non-power-of-two, counts above kMaxShards,
// non-decimal garbage. Whatever goes in, parse must never crash; rejects
// must name the offending token; accepted counts are exactly the powers of
// two in [1, 256].

TEST(ShardSpecFuzz, RejectsDocumentedBadSpecs) {
  const char* bad[] = {
      "",      "0",    "3",    "6",     "12",  "100",      "255",
      "257",   "512",  "1024", "99999999999999999999",     "two",
      "8 ",    " 8",   "0x8",  "-4",    "4.0", "8;8",      "2,4",
  };
  for (const char* spec : bad) {
    sim::ShardSpec out;
    std::string error;
    EXPECT_FALSE(sim::ShardSpec::parse(spec, &out, &error)) << spec;
    // The diagnostic quotes the offending token, --faults/--overload style.
    EXPECT_NE(error.find('\''), std::string::npos) << spec;
    EXPECT_NE(error.find(spec), std::string::npos) << spec << " -> " << error;
    // A null error sink must be safe on the reject path too.
    EXPECT_FALSE(sim::ShardSpec::parse(spec, &out, nullptr)) << spec;
  }
}

TEST(ShardSpecFuzz, AcceptsExactlyThePowersOfTwoUpToMax) {
  for (std::uint32_t n = 1; n <= 2 * sim::ShardSpec::kMaxShards; ++n) {
    sim::ShardSpec out;
    std::string error;
    const bool accepted =
        sim::ShardSpec::parse(std::to_string(n), &out, &error);
    const bool powerOfTwo = (n & (n - 1)) == 0;
    EXPECT_EQ(accepted, powerOfTwo && n <= sim::ShardSpec::kMaxShards) << n;
    if (accepted) {
      EXPECT_EQ(out.count, n);
      EXPECT_TRUE(out.any());
    }
  }
}

class ShardSpecRandomFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardSpecRandomFuzz, NeverCrashesAndAcceptsOnlyValidCounts) {
  Rng rng(GetParam());
  static constexpr char kAlphabet[] = "0123456789abcxyz.,;-+ ";
  for (int step = 0; step < 5000; ++step) {
    std::string spec;
    const auto length = rng.uniformInt(std::uint64_t{12});
    for (std::uint64_t i = 0; i < length; ++i) {
      spec += kAlphabet[rng.uniformInt(std::uint64_t{sizeof(kAlphabet) - 1})];
    }
    sim::ShardSpec out;
    std::string error;
    if (sim::ShardSpec::parse(spec, &out, &error)) {
      ASSERT_GE(out.count, 1u) << spec;
      ASSERT_LE(out.count, sim::ShardSpec::kMaxShards) << spec;
      ASSERT_EQ(out.count & (out.count - 1), 0u) << spec;
      // Parsing is pure: a second pass agrees.
      sim::ShardSpec again;
      ASSERT_TRUE(sim::ShardSpec::parse(spec, &again, nullptr)) << spec;
      ASSERT_EQ(again.count, out.count) << spec;
    } else {
      ASSERT_FALSE(error.empty()) << spec;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardSpecRandomFuzz,
                         ::testing::Values(1, 2, 3));

// Shards-vs-communities is a plan-level check (the catalog is not known at
// CLI-parse time): a spec that passes the grammar still fails validation —
// with a diagnostic naming the community count — when it exceeds the
// catalog's communities.
TEST(ShardSpecFuzz, ShardsBeyondCommunitiesRejectedAtPlanValidation) {
  sim::ShardSpec spec;
  ASSERT_TRUE(sim::ShardSpec::parse("64", &spec, nullptr));
  sim::ShardPlan plan;
  plan.keyCount = 9;  // 8 communities
  plan.shardCount = spec.count;
  plan.lookahead = sim::kMillisecond;
  std::string error;
  EXPECT_FALSE(plan.validate(&error));
  EXPECT_NE(error.find("communities"), std::string::npos) << error;
  EXPECT_NE(error.find("8"), std::string::npos) << error;
}

// --- Snapshot deserialization under hostile bytes ------------------------------

// The codec promises restore-or-nothing on bad input: any mutation of a
// snapshot file must either restore (a flipped bit in, say, a counter value
// can survive a recomputed CRC) or come back as `false` plus an error
// message — never a crash, hang, or sanitizer report. These tests run under
// ASan+UBSan in scripts/sanitize.sh.
namespace snapshot_fuzz {

// Header layout (snapshot/codec.h): magic u32 @0, version u32 @4,
// body-length u64 @8, body crc32 u32 @16, body @20.
constexpr std::size_t kHeaderBytes = 20;

exp::ExperimentConfig tinyConfig() {
  exp::ExperimentConfig config = exp::ExperimentConfig::simulationDefaults(41);
  config = config.scaledTo(40, 1);
  config.duration = sim::kHour;
  return config;
}

// A snapshot of `config` taken mid-run, so the file carries a live event
// queue, overlay, and in-flight transfers.
std::vector<std::uint8_t> donorOf(exp::SystemKind system,
                                  sim::SimTime saveAt = sim::kHour / 2,
                                  const exp::ExperimentConfig& config =
                                      tinyConfig()) {
  const std::string path = st::testing::snapshotPath("fuzz_donor");
  const std::string error =
      st::testing::runSaving(config, system, path, saveAt).error;
  if (!error.empty()) ADD_FAILURE() << error;
  std::vector<std::uint8_t> bytes = st::testing::fileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

// One valid SocialTube donor shared by every mutation below.
const std::vector<std::uint8_t>& donorBytes() {
  static const auto* bytes =
      new std::vector<std::uint8_t>(donorOf(exp::SystemKind::kSocialTube));
  return *bytes;
}

// Rewrites the header's length and CRC fields to match the (possibly
// mutated) body, so the mutation reaches the section parsers instead of
// being caught by the header check.
void fixupHeader(std::vector<std::uint8_t>* file) {
  const std::uint64_t length = file->size() - kHeaderBytes;
  for (int i = 0; i < 8; ++i) {
    (*file)[8 + i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  const std::uint32_t crc = snapshot::crc32(
      file->data() + kHeaderBytes, static_cast<std::size_t>(length));
  for (int i = 0; i < 4; ++i) {
    (*file)[16 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

// Restores the image `file` into `run` through a scratch file. Returns
// restore()'s verdict; the caller asserts on cleanliness, not on rejection.
bool restoreBytes(exp::Run& run, const std::vector<std::uint8_t>& file,
                  std::string* error) {
  const std::string path = st::testing::snapshotPath("mutant");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot write mutant file";
    return false;
  }
  if (!file.empty()) std::fwrite(file.data(), 1, file.size(), f);
  std::fclose(f);
  const bool ok = run.restore(path, error);
  std::remove(path.c_str());
  return ok;
}

// Full restore attempt into a fresh stack.
bool tryRestore(const std::vector<std::uint8_t>& file, std::string* error) {
  const auto run =
      st::testing::makeRun(tinyConfig(), exp::SystemKind::kSocialTube);
  return run != nullptr && restoreBytes(*run, file, error);
}

}  // namespace snapshot_fuzz

TEST(SnapshotFuzz, DonorRestoresIntact) {
  std::string error;
  EXPECT_TRUE(snapshot_fuzz::tryRestore(snapshot_fuzz::donorBytes(), &error))
      << error;
}

TEST(SnapshotFuzz, TruncationAtEveryHeaderLengthFailsCleanly) {
  const std::vector<std::uint8_t>& donor = snapshot_fuzz::donorBytes();
  ASSERT_GT(donor.size(), snapshot_fuzz::kHeaderBytes);
  for (std::size_t len = 0; len <= snapshot_fuzz::kHeaderBytes; ++len) {
    std::vector<std::uint8_t> cut(donor.begin(), donor.begin() + len);
    snapshot::Reader reader(cut);
    EXPECT_FALSE(reader.ok()) << "length " << len;
    EXPECT_FALSE(reader.error().empty()) << "length " << len;
  }
}

TEST(SnapshotFuzz, TruncationAnywhereFailsCleanly) {
  const std::vector<std::uint8_t>& donor = snapshot_fuzz::donorBytes();
  Rng rng(97);
  for (int step = 0; step < 40; ++step) {
    const auto len = static_cast<std::size_t>(
        rng.uniformInt(static_cast<std::uint64_t>(donor.size())));
    std::vector<std::uint8_t> cut(donor.begin(), donor.begin() + len);
    std::string error;
    EXPECT_FALSE(snapshot_fuzz::tryRestore(cut, &error)) << "length " << len;
    EXPECT_FALSE(error.empty()) << "length " << len;
  }
}

TEST(SnapshotFuzz, EveryHeaderBitFlipIsRefused) {
  const std::vector<std::uint8_t>& donor = snapshot_fuzz::donorBytes();
  for (std::size_t byte = 0; byte < snapshot_fuzz::kHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutant = donor;
      mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
      snapshot::Reader reader(std::move(mutant));
      // Magic, version, length, or CRC — some header check must trip.
      EXPECT_FALSE(reader.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_FALSE(reader.error().empty()) << "byte " << byte;
    }
  }
}

TEST(SnapshotFuzz, VersionSkewIsRefusedByName) {
  for (const std::uint32_t version :
       {std::uint32_t{0}, snapshot::kFormatVersion + 1, 0xffffffffu}) {
    std::vector<std::uint8_t> mutant = snapshot_fuzz::donorBytes();
    for (int i = 0; i < 4; ++i) {
      mutant[4 + i] = static_cast<std::uint8_t>(version >> (8 * i));
    }
    std::string error;
    EXPECT_FALSE(snapshot_fuzz::tryRestore(mutant, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
}

TEST(SnapshotFuzz, FlippedCrcBytesAreRefused) {
  for (std::size_t i = 16; i < 20; ++i) {
    std::vector<std::uint8_t> mutant = snapshot_fuzz::donorBytes();
    mutant[i] ^= 0xff;
    std::string error;
    EXPECT_FALSE(snapshot_fuzz::tryRestore(mutant, &error));
    EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  }
}

class SnapshotBodyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Body mutations with the header re-fixed so they reach the section
// parsers: random bit flips, random byte rewrites, and tail truncations.
// The only assertions are "no crash" (implicit: ASan/UBSan would abort)
// and "failure implies an error message".
TEST_P(SnapshotBodyFuzz, MutatedBodiesNeverCrash) {
  const std::vector<std::uint8_t>& donor = snapshot_fuzz::donorBytes();
  Rng rng(GetParam());
  const std::uint64_t bodySize = donor.size() - snapshot_fuzz::kHeaderBytes;
  for (int step = 0; step < 24; ++step) {
    std::vector<std::uint8_t> mutant = donor;
    const double roll = rng.uniform();
    if (roll < 0.4) {
      mutant[snapshot_fuzz::kHeaderBytes + rng.uniformInt(bodySize)] ^=
          static_cast<std::uint8_t>(1u << rng.uniformInt(std::uint64_t{8}));
    } else if (roll < 0.8) {
      const int rewrites = 1 + static_cast<int>(rng.uniformInt(8ull));
      for (int i = 0; i < rewrites; ++i) {
        mutant[snapshot_fuzz::kHeaderBytes + rng.uniformInt(bodySize)] =
            static_cast<std::uint8_t>(rng.uniformInt(std::uint64_t{256}));
      }
    } else {
      mutant.resize(snapshot_fuzz::kHeaderBytes +
                    rng.uniformInt(bodySize));  // drop the tail
    }
    snapshot_fuzz::fixupHeader(&mutant);
    std::string error;
    if (!snapshot_fuzz::tryRestore(mutant, &error)) {
      ASSERT_FALSE(error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotBodyFuzz,
                         ::testing::Values(11, 12, 13, 14));

// Targeted tag corruption: one pending event's tag is pointed at state
// that does not exist, which each factory must catch in onRestored() — the
// restore fails naming the component and kind, instead of writing through
// the word (probe timers), dereferencing a missing pool entry (deadlines,
// timeouts), indexing past the endpoints (flow group completions), or
// reading past the presence array when the event fires (delivery stages).
// A kind the component no longer schedules fails the same way. A restore
// that wrongly succeeds runs on to the horizon, so a word read only at fire
// time crashes here too.
namespace snapshot_fuzz {

// How the chosen pending event's tag is pointed at missing state.
enum class Rewrite : std::uint8_t {
  kArgumentPastCatalog,  // a = a user or video id past the catalog
  kWatchIdScrambled,     // a = a transfer watch id no pool entry holds
  // A flow group's completion turned into the per-flow finish event that
  // format v2 scheduled (kind 0, a = a flow id): that kind is retired.
  kRetiredFlowFinish,
  // A probe turned into a goodbye addressed to a user past the catalog:
  // wrapStage() reads the receiver's presence flag.
  kGoodbyeToNobody,
  kUnknownKind,  // kind = one the component never schedules
};

void applyRewrite(Rewrite rewrite, sim::EventTag* tag) {
  switch (rewrite) {
    case Rewrite::kArgumentPastCatalog:
      tag->a = 0xffffff;
      return;
    case Rewrite::kWatchIdScrambled:
      tag->a ^= 0x5a5a0000;
      return;
    case Rewrite::kRetiredFlowFinish:
      tag->kind = 0;
      tag->a = 1;
      tag->b = 0;
      return;
    case Rewrite::kGoodbyeToNobody:
      tag->kind = core::SocialTubeSystem::kGoodbyeEvent;
      tag->stage = static_cast<std::uint16_t>(sim::Stage::kUserDeliver);
      tag->a32 = 0xffffff;
      return;
    case Rewrite::kUnknownKind:
      tag->kind = 0xee;
      return;
  }
}

// Plain values only, and no padding: gtest lists a parameter it has no
// printer for by its object bytes, and that listing is part of every
// discovered ctest name. A pointer here (a name literal, a rewrite
// callback) would make the names change with the build's layout and ASLR.
struct TagCorruption {
  char name[24];
  exp::SystemKind system;
  std::uint8_t releasesPerChannel;
  // The first pending event of this component and kind is rewritten.
  sim::Component component;
  std::uint8_t kind;
  Rewrite rewrite;
};
static_assert(std::has_unique_object_representations_v<TagCorruption>);

exp::ExperimentConfig corruptionConfig(const TagCorruption& c) {
  exp::ExperimentConfig config = tinyConfig();
  if (c.releasesPerChannel > 0) {
    config.releases.perChannel = c.releasesPerChannel;
    config.releases.windowStartFraction = 0.6;
    config.releases.windowEndFraction = 0.9;
  }
  return config;
}

// File offsets of every pending event's tag. The simulator queue is the
// body's last section (Simulator::saveState): "SSIM", now, events fired,
// key count, one sequence per key, the event count, then per event
// when/stamp/owner key/period and the 40-byte tag.
std::vector<std::size_t> pendingTagOffsets(
    const std::vector<std::uint8_t>& file) {
  constexpr std::size_t kEventBytes = 8 + 8 + 4 + 8 + 40;
  const auto le = [&](std::size_t at, std::size_t bytes) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(file[at + i]) << (8 * i);
    }
    return v;
  };
  for (std::size_t at = file.size() - 4; at >= kHeaderBytes; --at) {
    if (le(at, 4) != 0x4d495353) continue;  // "SSIM"
    const std::size_t keysAt = at + 4 + 8 + 8;
    if (keysAt + 4 > file.size()) continue;
    const std::size_t countAt = keysAt + 4 + 8 * le(keysAt, 4);
    if (countAt + 8 > file.size()) continue;
    const std::size_t count = le(countAt, 8);
    if (countAt + 8 + count * kEventBytes != file.size()) continue;
    std::vector<std::size_t> tags;
    for (std::size_t i = 0; i < count; ++i) {
      tags.push_back(countAt + 8 + i * kEventBytes + 28);
    }
    return tags;
  }
  return {};
}

}  // namespace snapshot_fuzz

class SnapshotTagFuzz
    : public ::testing::TestWithParam<snapshot_fuzz::TagCorruption> {};

TEST_P(SnapshotTagFuzz, OutOfRangeTagFailsTheRestore) {
  // The file's tag fields are little-endian in EventTag's member order, so
  // on a little-endian host the 40 bytes are the struct's bytes.
  static_assert(std::endian::native == std::endian::little);
  const snapshot_fuzz::TagCorruption& c = GetParam();
  const exp::ExperimentConfig config = snapshot_fuzz::corruptionConfig(c);
  std::vector<std::uint8_t> mutant =
      snapshot_fuzz::donorOf(c.system, sim::kHour / 2, config);
  sim::EventTag tag;
  std::size_t at = 0;
  for (const std::size_t offset : snapshot_fuzz::pendingTagOffsets(mutant)) {
    std::memcpy(&tag, mutant.data() + offset, sizeof tag);
    if (tag.component == static_cast<std::uint8_t>(c.component) &&
        tag.kind == c.kind) {
      at = offset;
      break;
    }
  }
  ASSERT_NE(at, 0u) << "donor has no matching pending event";
  snapshot_fuzz::applyRewrite(c.rewrite, &tag);
  std::memcpy(mutant.data() + at, &tag, sizeof tag);
  snapshot_fuzz::fixupHeader(&mutant);

  const auto run = st::testing::makeRun(config, c.system);
  ASSERT_TRUE(run);
  std::string error;
  const bool ok = snapshot_fuzz::restoreBytes(*run, mutant, &error);
  if (ok) run->simulator().runUntil(config.duration);
  EXPECT_FALSE(ok);
  const std::string named = "(component " + std::to_string(tag.component) +
                            ", kind " + std::to_string(tag.kind) + ")";
  EXPECT_NE(error.find(named), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(
    Factories, SnapshotTagFuzz,
    ::testing::Values(
        snapshot_fuzz::TagCorruption{
            "SocialTubeProbeUser", exp::SystemKind::kSocialTube, 0,
            sim::Component::kSocialTube, core::SocialTubeSystem::kProbeEvent,
            snapshot_fuzz::Rewrite::kArgumentPastCatalog},
        snapshot_fuzz::TagCorruption{
            "NetTubeProbeUser", exp::SystemKind::kNetTube, 0,
            sim::Component::kNetTube, baselines::NetTubeSystem::kProbeEvent,
            snapshot_fuzz::Rewrite::kArgumentPastCatalog},
        snapshot_fuzz::TagCorruption{
            "TransferWatchId", exp::SystemKind::kSocialTube, 0,
            sim::Component::kTransfer, vod::TransferManager::kTimeoutEvent,
            snapshot_fuzz::Rewrite::kWatchIdScrambled},
        snapshot_fuzz::TagCorruption{
            "FlowId", exp::SystemKind::kSocialTube, 0, sim::Component::kFlow,
            net::FlowNetwork::kGroupEvent,
            snapshot_fuzz::Rewrite::kRetiredFlowFinish},
        snapshot_fuzz::TagCorruption{
            "FlowGroupEndpoint", exp::SystemKind::kSocialTube, 0,
            sim::Component::kFlow, net::FlowNetwork::kGroupEvent,
            snapshot_fuzz::Rewrite::kArgumentPastCatalog},
        snapshot_fuzz::TagCorruption{
            "DeliveryStageReceiver", exp::SystemKind::kSocialTube, 0,
            sim::Component::kSocialTube, core::SocialTubeSystem::kProbeEvent,
            snapshot_fuzz::Rewrite::kGoodbyeToNobody},
        snapshot_fuzz::TagCorruption{
            "SessionUser", exp::SystemKind::kPaVod, 0,
            sim::Component::kSession, vod::SessionDriver::kLoginEvent,
            snapshot_fuzz::Rewrite::kArgumentPastCatalog},
        snapshot_fuzz::TagCorruption{
            "ReleaseVideo", exp::SystemKind::kPaVod, 2,
            sim::Component::kReleases, vod::ReleaseManager::kReleaseEvent,
            snapshot_fuzz::Rewrite::kArgumentPastCatalog},
        // The runner restores its periodic sample; any other kind of
        // pending kRunner event names nothing.
        snapshot_fuzz::TagCorruption{
            "RunnerKind", exp::SystemKind::kSocialTube, 0,
            sim::Component::kRunner, exp::Run::kSampleEvent,
            snapshot_fuzz::Rewrite::kUnknownKind}),
    [](const auto& info) { return std::string(info.param.name); });

// Section bodies carry catalog ids too, which later code indexes arrays
// with. One id per record family is pointed just past the catalog; the
// loader must refuse it by name. A restore that wrongly succeeds runs on to
// the horizon, where the id gets used (SnapshotBodyFuzz only restores, so
// random mutations there never reached the use).
namespace snapshot_fuzz {

// Little-endian reads over a snapshot image at a moving offset, enough to
// walk a section's layout to one field.
struct Cursor {
  const std::vector<std::uint8_t>& file;
  std::size_t at = 0;

  std::uint64_t read(std::size_t bytes) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(file.at(at + i)) << (8 * i);
    }
    at += bytes;
    return v;
  }
  void skip(std::size_t bytes) { at += bytes; }
  // A u64 count followed by that many fixed-size elements.
  void skipList(std::size_t elementBytes) { at += read(8) * elementBytes; }

  // Positions the cursor just past the first occurrence of a section tag.
  static Cursor atSection(const std::vector<std::uint8_t>& file,
                          std::uint32_t tag) {
    Cursor c{file};
    for (c.at = kHeaderBytes; c.at + 4 <= file.size(); ++c.at) {
      if (Cursor{file, c.at}.read(4) == tag) {
        c.at += 4;
        return c;
      }
    }
    ADD_FAILURE() << "no section " << tag;
    return c;
  }
  // A membership directory (vod/membership.h).
  void skipDirectory() {
    skip(4);  // "BMEM"
    for (std::uint64_t keys = read(8); keys > 0; --keys) skipList(4);
    for (std::uint64_t users = read(8); users > 0; --users) skipList(8);
  }
  // A SlotPool arena up to its first live record; 0 when none is live.
  std::size_t firstLiveRecord() {
    for (std::uint64_t slots = read(8); slots > 0; --slots) {
      const bool live = read(1) != 0;
      skip(8);  // generation, next free
      if (live) return at;
    }
    return 0;
  }
};

enum class BodyId : std::uint8_t {
  kWatchVideo,        // XFER: the first live watch's video
  kSearchVideo,       // SOCT: the first live search's video
  kNodeCategory,      // SOCT: the first node's category, if it has one
  kNetTubeCachedVideo,  // NETT: the first cached video of the first cache
};

// File offset of the u32 id to rewrite; 0 when the donor holds none.
std::size_t bodyIdOffset(const std::vector<std::uint8_t>& file, BodyId id) {
  if (id == BodyId::kWatchVideo) {
    Cursor c = Cursor::atSection(file, 0x52454658);  // "XFER"
    const std::size_t watch = c.firstLiveRecord();
    return watch == 0 ? 0 : watch + 4;  // user, then video
  }
  if (id == BodyId::kNetTubeCachedVideo) {
    Cursor c = Cursor::atSection(file, 0x5454454e);  // "NETT"
    c.skipDirectory();
    for (std::uint64_t nodes = c.read(8); nodes > 0; --nodes) {
      for (std::uint64_t overlays = c.read(8); overlays > 0; --overlays) {
        c.skip(4);  // video
        c.skipList(4);
      }
      if (c.read(8) > 0) return c.at;
      c.skipList(4);  // prefetched chunks
    }
    return 0;
  }
  Cursor c = Cursor::atSection(file, 0x54434f53);  // "SOCT"
  c.skipDirectory();
  std::size_t category = 0;
  for (std::uint64_t nodes = c.read(8); nodes > 0; --nodes) {
    c.skip(4);  // channel
    if (c.read(4) != CategoryId::invalid().value() && category == 0) {
      category = c.at - 4;
    }
    c.skipList(4);  // inner
    c.skipList(4);  // inter
    c.skip(8);      // last channel, last category
    c.skipList(4);  // last inner
    c.skipList(4);  // last inter
    c.skipList(4);  // cached videos
    c.skipList(4);  // prefetched chunks
  }
  if (id == BodyId::kNodeCategory) return category;
  const std::size_t search = c.firstLiveRecord();
  return search == 0 ? 0 : search + 4;  // user, then video
}

// A search lives for one flood round trip, so a fixed save time rarely
// catches one: the donor is the first save, on a 7-s grid, that does.
std::vector<std::uint8_t> liveSearchDonor() {
  for (sim::SimTime at = sim::kMinute; at < sim::kHour;
       at += 7 * sim::kSecond) {
    std::vector<std::uint8_t> bytes =
        donorOf(exp::SystemKind::kSocialTube, at);
    if (bodyIdOffset(bytes, BodyId::kSearchVideo) != 0) return bytes;
  }
  return {};
}

void expectBodyIdRefused(exp::SystemKind system, BodyId id,
                         const std::string& field) {
  std::vector<std::uint8_t> mutant =
      id == BodyId::kSearchVideo ? liveSearchDonor()
      : system == exp::SystemKind::kSocialTube ? donorBytes()
                                               : donorOf(system);
  const std::size_t at = mutant.empty() ? 0 : bodyIdOffset(mutant, id);
  ASSERT_NE(at, 0u) << "donor holds no " << field;
  const exp::ExperimentConfig config = tinyConfig();
  const auto run = st::testing::makeRun(config, system);
  ASSERT_TRUE(run);
  const trace::Catalog& catalog = run->catalog();
  const std::uint64_t pastCatalog = id == BodyId::kNodeCategory
                                        ? catalog.categoryCount()
                                        : catalog.videoCount();
  for (int i = 0; i < 4; ++i) {
    mutant[at + i] = static_cast<std::uint8_t>(pastCatalog >> (8 * i));
  }
  fixupHeader(&mutant);

  std::string error;
  const bool ok = restoreBytes(*run, mutant, &error);
  if (ok) run->simulator().runUntil(config.duration);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find(field + " out of range"), std::string::npos) << error;
}

}  // namespace snapshot_fuzz

TEST(SnapshotBodyIdFuzz, TransferWatchVideo) {
  snapshot_fuzz::expectBodyIdRefused(exp::SystemKind::kSocialTube,
                                     snapshot_fuzz::BodyId::kWatchVideo,
                                     "watch video");
}

TEST(SnapshotBodyIdFuzz, SearchVideo) {
  snapshot_fuzz::expectBodyIdRefused(exp::SystemKind::kSocialTube,
                                     snapshot_fuzz::BodyId::kSearchVideo,
                                     "SocialTube search video");
}

TEST(SnapshotBodyIdFuzz, SocialTubeNodeCategory) {
  snapshot_fuzz::expectBodyIdRefused(exp::SystemKind::kSocialTube,
                                     snapshot_fuzz::BodyId::kNodeCategory,
                                     "SocialTube node category");
}

TEST(SnapshotBodyIdFuzz, CachedVideo) {
  snapshot_fuzz::expectBodyIdRefused(
      exp::SystemKind::kNetTube, snapshot_fuzz::BodyId::kNetTubeCachedVideo,
      "cached video");
}

// The FLOW section's group records: each flow's group placement and each
// endpoint's two group clocks. A placement a save never writes (an open
// batch's pending mark, or none for an active flow) and a clock whose share
// is negative or whose pending share change predates its base must fail
// the restore by name. A restore that wrongly succeeds runs on to the
// horizon, where the flow solver uses them.
namespace snapshot_fuzz {

// A flow record: id, src, dst (u32 each), placement (u8), finish tag,
// join sequence, total bytes (u64 each), class, queued, paused (u8 each)
// and the 40-byte completion tag.
constexpr std::size_t kFlowRecordBytes = 4 * 3 + 1 + 8 * 3 + 3 + 40;

enum class FlowGroupField : std::uint8_t {
  kPlacePending,      // an active flow's placement := the pending mark
  kPlaceDropped,      // an active flow's placement := none
  kNegativeShare,     // endpoint 0's upload clock share := -1
  kChangeBeforeBase,  // endpoint 0's upload clock base := after its change
};

void expectFlowGroupRefused(FlowGroupField field, const std::string& what) {
  std::vector<std::uint8_t> mutant = donorBytes();
  Cursor c = Cursor::atSection(mutant, 0x574f4c46);  // "FLOW"
  const std::uint64_t flows = c.read(8);
  const std::size_t records = c.at;
  const auto write = [&](std::size_t at, std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      mutant.at(at + i) = static_cast<std::uint8_t>(value >> (8 * i));
    }
  };
  if (field == FlowGroupField::kPlacePending ||
      field == FlowGroupField::kPlaceDropped) {
    std::size_t place = 0;
    for (std::uint64_t i = 0; i < flows && place == 0; ++i) {
      const std::size_t at = records + i * kFlowRecordBytes + 12;
      if (mutant.at(at) != 0) place = at;
    }
    ASSERT_NE(place, 0u) << "donor holds no flow in a group";
    mutant[place] = field == FlowGroupField::kPlacePending ? 3 : 0;
  } else {
    c.skip(flows * kFlowRecordBytes);
    c.skip(8);                                  // endpoint count
    const std::size_t clock = c.at;             // v0, t0, s0, t1
    if (field == FlowGroupField::kNegativeShare) {
      write(clock + 16, std::bit_cast<std::uint64_t>(-1.0));
    } else {
      write(clock + 8, std::uint64_t{1} << 50);  // t0 far past t1
    }
  }
  fixupHeader(&mutant);

  const exp::ExperimentConfig config = tinyConfig();
  const auto run = st::testing::makeRun(config, exp::SystemKind::kSocialTube);
  ASSERT_TRUE(run);
  std::string error;
  const bool ok = restoreBytes(*run, mutant, &error);
  if (ok) run->simulator().runUntil(config.duration);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find(what), std::string::npos) << error;
}

}  // namespace snapshot_fuzz

TEST(SnapshotFlowGroupFuzz, PendingPlacement) {
  snapshot_fuzz::expectFlowGroupRefused(
      snapshot_fuzz::FlowGroupField::kPlacePending, "flow record out of range");
}

TEST(SnapshotFlowGroupFuzz, ActiveFlowOutsideAnyGroup) {
  snapshot_fuzz::expectFlowGroupRefused(
      snapshot_fuzz::FlowGroupField::kPlaceDropped, "flow record out of range");
}

TEST(SnapshotFlowGroupFuzz, NegativeGroupShare) {
  snapshot_fuzz::expectFlowGroupRefused(
      snapshot_fuzz::FlowGroupField::kNegativeShare,
      "flow group clock out of range");
}

TEST(SnapshotFlowGroupFuzz, GroupShareChangeBeforeItsBase) {
  snapshot_fuzz::expectFlowGroupRefused(
      snapshot_fuzz::FlowGroupField::kChangeBeforeBase,
      "flow group clock out of range");
}

// The FLOW section's completion tags: the last byte of a flow invokes its
// tag, so a restored tag must name live state like a queued one. The tag
// of the first stripe flow (kind 2, a = watch id, b = stripe index) is
// rewritten, and the restore must fail naming the tag's component and
// kind. A restore that wrongly succeeds runs on to the horizon, where the
// completion fires.
namespace snapshot_fuzz {

enum class FlowTagRewrite : std::uint8_t {
  kUnknownComponent,  // component := 0xee
  kDeadWatch,  // a first-chunk tag (kind 1) of a watch no pool entry holds
  kStripePastWatch,  // stripe index := 1,000,000
};

void expectFlowTagRefused(FlowTagRewrite rewrite) {
  // The file's tag fields are little-endian in EventTag's member order, so
  // on a little-endian host the 40 bytes are the struct's bytes.
  static_assert(std::endian::native == std::endian::little);
  std::vector<std::uint8_t> mutant = donorBytes();
  Cursor c = Cursor::atSection(mutant, 0x574f4c46);  // "FLOW"
  const std::uint64_t flows = c.read(8);
  sim::EventTag tag;
  std::size_t at = 0;
  for (std::uint64_t i = 0; i < flows && at == 0; ++i) {
    const std::size_t offset = c.at + (i + 1) * kFlowRecordBytes - sizeof tag;
    std::memcpy(&tag, mutant.data() + offset, sizeof tag);
    if (tag.component == static_cast<std::uint8_t>(sim::Component::kTransfer) &&
        tag.kind == vod::TransferManager::kSegmentEvent) {
      at = offset;
    }
  }
  ASSERT_NE(at, 0u) << "donor holds no stripe flow";
  switch (rewrite) {
    case FlowTagRewrite::kUnknownComponent:
      tag.component = 0xee;
      break;
    case FlowTagRewrite::kDeadWatch:
      tag.kind = vod::TransferManager::kFirstChunkEvent;
      tag.a ^= 0x5a5a0000;
      break;
    case FlowTagRewrite::kStripePastWatch:
      tag.b = 1'000'000;
      break;
  }
  std::memcpy(mutant.data() + at, &tag, sizeof tag);
  fixupHeader(&mutant);

  const exp::ExperimentConfig config = tinyConfig();
  const auto run = st::testing::makeRun(config, exp::SystemKind::kSocialTube);
  ASSERT_TRUE(run);
  std::string error;
  const bool ok = restoreBytes(*run, mutant, &error);
  if (ok) run->simulator().runUntil(config.duration);
  EXPECT_FALSE(ok);
  const std::string named = "(component " + std::to_string(tag.component) +
                            ", kind " + std::to_string(tag.kind) + ")";
  EXPECT_NE(error.find(named), std::string::npos) << error;
}

}  // namespace snapshot_fuzz

TEST(SnapshotFlowTagFuzz, UnknownComponent) {
  snapshot_fuzz::expectFlowTagRefused(
      snapshot_fuzz::FlowTagRewrite::kUnknownComponent);
}

TEST(SnapshotFlowTagFuzz, FirstChunkOfADeadWatch) {
  snapshot_fuzz::expectFlowTagRefused(
      snapshot_fuzz::FlowTagRewrite::kDeadWatch);
}

TEST(SnapshotFlowTagFuzz, StripePastItsWatch) {
  snapshot_fuzz::expectFlowTagRefused(
      snapshot_fuzz::FlowTagRewrite::kStripePastWatch);
}

// Payloads in the CTXT pool carry id lists that the consuming handler
// indexes with: users, or videos for a NetTube inventory. A fresh run is
// stepped until a message of one kind is pending with a non-empty list;
// the list's first entry is pointed just past its limit, and the kind's
// onRestored must refuse the restore. A restore that wrongly succeeds runs
// on to the horizon, where the handler uses the entry.
namespace snapshot_fuzz {

// Two sessions a user with short breaks, so logins find warm caches.
exp::ExperimentConfig payloadConfig() {
  exp::ExperimentConfig config =
      exp::ExperimentConfig::simulationDefaults(41).scaledTo(40, 2);
  config.vod.offTimeMeanSeconds = 60.0;
  config.duration = 2 * sim::kHour;
  return config;
}

// File offset of the first `u` entry of pooled payload `id`; 0 when the
// pool does not hold it or its `u` list is empty. Walks SystemContext's
// CTXT layout up to the pool.
std::size_t payloadEntryOffset(const std::vector<std::uint8_t>& file,
                               std::uint64_t id) {
  Cursor c = Cursor::atSection(file, 0x54585443);  // "CTXT"
  c.skip(4 * 8 + 8 + 1);                           // protocol RNG
  const std::uint64_t users = c.read(8);
  c.skip(users * (1 + 8));  // online flags, offline-since times
  c.skip(c.read(8));        // release flags
  c.skip(4);                // "BRKB"
  for (std::uint64_t owners = c.read(8); owners > 0; --owners) {
    c.skipList(4 + 4 + 1 + 8);
  }
  c.skip(4 * 8);  // breaker tallies
  for (std::uint64_t payloads = c.read(8); payloads > 0; --payloads) {
    const std::uint64_t payloadId = c.read(8);
    const std::uint64_t entries = c.read(8);
    if (payloadId == id) return entries == 0 ? 0 : c.at;
    c.skip(entries * 4);
    c.skipList(4);  // v
    c.skip(8);      // x
  }
  return 0;
}

// Forwards to a component's factory and notes each event of `kind` it
// builds, i.e. each one scheduled.
class KindSpy final : public sim::EventFactory {
 public:
  KindSpy(sim::EventFactory& inner, std::uint8_t kind)
      : inner_(inner), kind_(kind) {}
  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override {
    scheduled = scheduled || tag.kind == kind_;
    return inner_.rebuild(tag);
  }
  void discard(const sim::EventTag& tag) override { inner_.discard(tag); }
  [[nodiscard]] bool onRestored(const sim::EventTag& tag,
                                sim::EventHandle handle) override {
    return inner_.onRestored(tag, handle);
  }
  bool scheduled = false;

 private:
  sim::EventFactory& inner_;
  std::uint8_t kind_;
};

struct PayloadDonor {
  std::vector<std::uint8_t> file;
  std::size_t entry = 0;  // offset of the list entry to rewrite
};

// Steps a fresh run until a pending message of `component`/`kind` names a
// payload with a non-empty `u` list, and snapshots it there.
PayloadDonor pendingPayloadDonor(exp::SystemKind system,
                                 sim::Component component,
                                 std::uint8_t kind) {
  const exp::ExperimentConfig config = payloadConfig();
  const auto run = st::testing::makeRun(config, system);
  if (run == nullptr) return {};
  sim::Simulator& simulator = run->simulator();
  sim::EventFactory* factory = simulator.factory(component);
  KindSpy spy(*factory, kind);
  simulator.registerFactory(component, &spy);
  run->start();
  const std::string path = st::testing::snapshotPath("payload_donor");
  PayloadDonor donor;
  while (donor.entry == 0 && simulator.now() < config.duration &&
         simulator.step()) {
    if (!std::exchange(spy.scheduled, false)) continue;
    std::string error;
    if (!snapshot::save(path, run->participants(), run->compat(), &error)) {
      ADD_FAILURE() << error;
      break;
    }
    donor.file = st::testing::fileBytes(path);
    for (const std::size_t offset : pendingTagOffsets(donor.file)) {
      sim::EventTag tag;
      std::memcpy(&tag, donor.file.data() + offset, sizeof tag);
      if (tag.component == static_cast<std::uint8_t>(component) &&
          tag.kind == kind) {
        donor.entry = payloadEntryOffset(donor.file, tag.b);
        if (donor.entry != 0) break;
      }
    }
  }
  simulator.registerFactory(component, factory);
  std::remove(path.c_str());
  return donor;
}

void expectPayloadIdRefused(exp::SystemKind system, sim::Component component,
                            std::uint8_t kind, bool listsVideos) {
  static_assert(std::endian::native == std::endian::little);
  PayloadDonor donor = pendingPayloadDonor(system, component, kind);
  ASSERT_NE(donor.entry, 0u) << "no pending payload of kind " << int{kind};
  const exp::ExperimentConfig config = payloadConfig();
  const auto run = st::testing::makeRun(config, system);
  ASSERT_TRUE(run);
  const std::uint64_t limit = listsVideos ? run->catalog().videoCount()
                                          : run->catalog().userCount();
  for (int i = 0; i < 4; ++i) {
    donor.file[donor.entry + i] = static_cast<std::uint8_t>(limit >> (8 * i));
  }
  fixupHeader(&donor.file);

  std::string error;
  const bool ok = restoreBytes(*run, donor.file, &error);
  if (ok) run->simulator().runUntil(config.duration);
  EXPECT_FALSE(ok);
  const std::string named = "(component " +
                            std::to_string(static_cast<int>(component)) +
                            ", kind " + std::to_string(kind) + ")";
  EXPECT_NE(error.find(named), std::string::npos) << error;
}

}  // namespace snapshot_fuzz

TEST(SnapshotBodyIdFuzz, NetTubeInventoryPayload) {
  snapshot_fuzz::expectPayloadIdRefused(
      exp::SystemKind::kNetTube, sim::Component::kNetTube,
      baselines::NetTubeSystem::kInventoryAtServer, /*listsVideos=*/true);
}

TEST(SnapshotBodyIdFuzz, NetTubeReplyPayload) {
  snapshot_fuzz::expectPayloadIdRefused(
      exp::SystemKind::kNetTube, sim::Component::kNetTube,
      baselines::NetTubeSystem::kCachedReply, /*listsVideos=*/false);
}

TEST(SnapshotBodyIdFuzz, SocialTubeJoinReplyPayload) {
  snapshot_fuzz::expectPayloadIdRefused(
      exp::SystemKind::kSocialTube, sim::Component::kSocialTube,
      core::SocialTubeSystem::kJoinReply, /*listsVideos=*/false);
}

// Two snapshot tables are written in strictly ascending key order: the
// recovery ledger (per rejoined user, at the end of the injector's FALT
// section) and the invariant checker's suspect table (IVAR, which follows
// FALT). A copy of a table's first entry inserted after it repeats a key,
// and the loader must refuse it instead of dropping the copy silently.
namespace snapshot_fuzz {

// Crash-rejoin under message loss with minute audits: the crashed users
// rejoin 5 s later and the save lands before their first recovery round,
// while lost goodbyes keep one-sided links under suspicion.
exp::ExperimentConfig rejoinConfig() {
  exp::ExperimentConfig config =
      exp::ExperimentConfig::simulationDefaults(41).scaledTo(60, 4);
  config.vod.offTimeMeanSeconds = 120.0;
  config.vod.loginStaggerSeconds = 60.0;
  config.duration = sim::kHour;
  config.faults.spec =
      "loss:t=600,dur=1800,rate=0.5;crash:t=900,frac=0.3;"
      "rejoin:t=905,frac=1";
  config.faults.auditInterval = sim::kMinute;
  return config;
}

// A table's u64 entry count and the bytes of its first entry.
struct Table {
  std::size_t count = 0;
  std::size_t first = 0;
  std::size_t entryBytes = 0;
};

// Walks FALT's layout (Injector::saveState) to the ledger and on into IVAR.
std::pair<Table, Table> ledgerAndSuspects(
    const std::vector<std::uint8_t>& file) {
  Cursor c = Cursor::atSection(file, 0x544c4146);  // "FALT"
  c.skip(8 + 1 + 4 * 8 + 8 + 1);  // schedule size, armed, injector RNG
  const std::uint64_t users = c.read(8);
  c.skip(users * 2 + 4);          // blackhole counts and total
  c.skip(users * 2 + 4 + 4 + 4);  // isolation counts and total, server cuts
                                  // and outages
  c.skipList(8);                  // active loss windows
  for (std::uint64_t n = c.read(8); n > 0; --n) {  // blackhole victims
    c.skip(8);
    c.skipList(4);
  }
  for (int windows = 0; windows < 3; ++windows) {  // slow, dup, reorder
    for (std::uint64_t n = c.read(8); n > 0; --n) {
      c.skip(8 + 1);
      c.skipList(4);
    }
  }
  std::pair<Table, Table> tables;
  if (c.read(1) == 0) {
    ADD_FAILURE() << "donor has no recovery ledger";
    return tables;
  }
  tables.first = {c.at, c.at + 8, 4 + 4};
  c.skipList(4 + 4);
  if (c.read(4) != 0x52415649) {  // "IVAR"
    ADD_FAILURE() << "no IVAR section after FALT";
    return tables;
  }
  tables.second.count = c.at;
  const std::uint64_t suspects = c.read(8);
  tables.second.first = c.at;
  if (suspects > 0) tables.second.entryBytes = 8 + c.read(8) + 4 + 4 + 8;
  return tables;
}

void expectRepeatedKeyRefused(bool ledger, const std::string& message) {
  std::vector<std::uint8_t> file = donorOf(
      exp::SystemKind::kSocialTube, 915 * sim::kSecond, rejoinConfig());
  ASSERT_FALSE(file.empty());

  const auto [ledgerTable, suspectTable] = ledgerAndSuspects(file);
  const Table table = ledger ? ledgerTable : suspectTable;
  ASSERT_NE(table.count, 0u);
  const std::uint64_t entries = Cursor{file, table.count}.read(8);
  ASSERT_GT(entries, 0u) << "donor table is empty";
  const std::vector<std::uint8_t> entry(
      file.begin() + static_cast<std::ptrdiff_t>(table.first),
      file.begin() + static_cast<std::ptrdiff_t>(table.first +
                                                 table.entryBytes));
  file.insert(file.begin() +
                  static_cast<std::ptrdiff_t>(table.first + table.entryBytes),
              entry.begin(), entry.end());
  for (int i = 0; i < 8; ++i) {
    file[table.count + i] = static_cast<std::uint8_t>((entries + 1) >> (8 * i));
  }
  fixupHeader(&file);

  const auto run =
      st::testing::makeRun(rejoinConfig(), exp::SystemKind::kSocialTube);
  ASSERT_TRUE(run);
  std::string error;
  EXPECT_FALSE(restoreBytes(*run, file, &error));
  EXPECT_NE(error.find(message), std::string::npos) << error;
}

}  // namespace snapshot_fuzz

TEST(SnapshotRepeatedKeyFuzz, RecoveryLedgerUser) {
  snapshot_fuzz::expectRepeatedKeyRefused(
      /*ledger=*/true, "recovery ledger users not ascending");
}

TEST(SnapshotRepeatedKeyFuzz, InvariantSuspectKey) {
  snapshot_fuzz::expectRepeatedKeyRefused(
      /*ledger=*/false, "invariant checker suspect keys not ascending");
}

// --- numeric flag values ------------------------------------------------------

// Flags::getInt / getDouble are the CLI gate for every counted or measured
// flag. A value must be a whole decimal number; anything else (empty,
// non-numeric, trailing garbage, out of range) exits 2 naming the flag.

double flagDouble(const std::string& value) {
  const char* argv[] = {"prog", "--x", value.c_str()};
  return Flags(3, argv).getDouble("x", -1.0);
}

std::int64_t flagInt(const std::string& value) {
  const char* argv[] = {"prog", "--x", value.c_str()};
  return Flags(3, argv).getInt("x", -1);
}

TEST(FlagValueFuzz, RejectsDocumentedBadValues) {
  for (const char* bad :
       {"", "abc", "50x", "1.9", "0x10", " 5", "5 ", "+5", "1e3", "-", "--1",
        "9223372036854775808", "-9223372036854775809"}) {
    EXPECT_EXIT((void)flagInt(bad), ::testing::ExitedWithCode(2),
                "--x: expected an integer") << "'" << bad << "'";
  }
  for (const char* bad : {"", "abc", "0.5s", "1e999", "-1e999", "inf",
                          "-inf", "nan", "-", ".", "1..2", " 1", "1e"}) {
    EXPECT_EXIT((void)flagDouble(bad), ::testing::ExitedWithCode(2),
                "--x: expected a finite number") << "'" << bad << "'";
  }
}

class FlagValueRandomFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlagValueRandomFuzz, AcceptsExactlyTheWholeDecimalTokens) {
  // Tokens stay at most 12 characters, so no accepted one overflows and a
  // regular expression is an exact, independent oracle.
  const std::regex wholeInt("-?[0-9]+");
  const std::regex wholeDouble(R"(-?([0-9]+(\.[0-9]*)?|\.[0-9]+))");
  Rng rng(GetParam());
  static constexpr char kAlphabet[] = "0123456789-.x";
  int rejectsChecked = 0;
  for (int step = 0; step < 4000; ++step) {
    std::string token;
    const auto length = rng.uniformInt(std::uint64_t{13});
    for (std::uint64_t i = 0; i < length; ++i) {
      token += kAlphabet[rng.uniformInt(std::uint64_t{sizeof(kAlphabet) - 1})];
    }
    if (std::regex_match(token, wholeInt)) {
      ASSERT_EQ(flagInt(token), std::stoll(token)) << token;
    } else if (rejectsChecked < 4) {
      ++rejectsChecked;  // a death test forks: sample the rejects
      EXPECT_EXIT((void)flagInt(token), ::testing::ExitedWithCode(2),
                  "--x: expected an integer") << token;
    }
    if (std::regex_match(token, wholeDouble)) {
      ASSERT_EQ(flagDouble(token), std::strtod(token.c_str(), nullptr))
          << token;
    } else if (rejectsChecked < 8) {
      ++rejectsChecked;
      EXPECT_EXIT((void)flagDouble(token), ::testing::ExitedWithCode(2),
                  "--x: expected a finite number") << token;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlagValueRandomFuzz,
                         ::testing::Values(1, 2, 3));

// --- Gini coefficient properties ----------------------------------------------

TEST(Gini, UniformContributionsScoreZero) {
  const std::vector<double> equal(50, 3.0);
  EXPECT_NEAR(giniCoefficient(equal), 0.0, 1e-12);
}

TEST(Gini, SingleContributorApproachesOne) {
  std::vector<double> skewed(100, 0.0);
  skewed.back() = 42.0;
  EXPECT_NEAR(giniCoefficient(skewed), 0.99, 1e-9);
}

TEST(Gini, KnownSmallExample) {
  // {1, 3}: G = (2*(1*1 + 2*3) / (2*4)) - 3/2 = 14/8 - 1.5 = 0.25.
  const std::vector<double> values = {1.0, 3.0};
  EXPECT_NEAR(giniCoefficient(values), 0.25, 1e-12);
}

TEST(Gini, ScaleInvariant) {
  Rng rng(9);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.pareto(1.0, 1.3));
  std::vector<double> scaled = values;
  for (double& v : scaled) v *= 1000.0;
  EXPECT_NEAR(giniCoefficient(values), giniCoefficient(scaled), 1e-9);
}

TEST(Gini, EmptyAndZeroAreZero) {
  EXPECT_DOUBLE_EQ(giniCoefficient({}), 0.0);
  const std::vector<double> zeros(10, 0.0);
  EXPECT_DOUBLE_EQ(giniCoefficient(zeros), 0.0);
}

TEST(Gini, BoundedByOne) {
  Rng rng(10);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> values;
    const int n = 1 + static_cast<int>(rng.uniformInt(std::uint64_t{100}));
    for (int i = 0; i < n; ++i) values.push_back(rng.uniform() * 100.0);
    const double g = giniCoefficient(values);
    ASSERT_GE(g, 0.0);
    ASSERT_LT(g, 1.0);
  }
}

}  // namespace
}  // namespace st
