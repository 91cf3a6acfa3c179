#include "util/flags.h"

#include <gtest/gtest.h>

#include <string>

#include "bench_common.h"
#include "fault/schedule.h"
#include "vod/overload.h"

namespace st {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, SpaceSeparatedValue) {
  const Flags flags = parse({"--users", "500"});
  EXPECT_TRUE(flags.ok());
  EXPECT_EQ(flags.getInt("users", 0), 500);
}

TEST(Flags, EqualsSeparatedValue) {
  const Flags flags = parse({"--seed=42"});
  EXPECT_EQ(flags.getInt("seed", 0), 42);
}

TEST(Flags, BareBooleanFlag) {
  const Flags flags = parse({"--planetlab"});
  EXPECT_TRUE(flags.getBool("planetlab", false));
  EXPECT_TRUE(flags.has("planetlab"));
}

TEST(Flags, BooleanFalseValues) {
  EXPECT_FALSE(parse({"--x=false"}).getBool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).getBool("x", true));
  EXPECT_TRUE(parse({"--x=yes"}).getBool("x", false));
}

TEST(Flags, FallbacksWhenAbsent) {
  const Flags flags = parse({});
  EXPECT_EQ(flags.getInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(flags.getDouble("missing", 2.5), 2.5);
  EXPECT_EQ(flags.getString("missing", "abc"), "abc");
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Flags, DoubleParsing) {
  const Flags flags = parse({"--ratio", "0.75"});
  EXPECT_DOUBLE_EQ(flags.getDouble("ratio", 0.0), 0.75);
}

TEST(Flags, NonFlagTokenIsError) {
  const Flags flags = parse({"stray"});
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("stray"), std::string::npos);
}

TEST(Flags, BooleanFollowedByFlag) {
  const Flags flags = parse({"--verbose", "--users", "10"});
  EXPECT_TRUE(flags.getBool("verbose", false));
  EXPECT_EQ(flags.getInt("users", 0), 10);
}

TEST(Flags, UnconsumedTracksUnqueriedFlags) {
  const Flags flags = parse({"--known", "1", "--typo", "2"});
  EXPECT_EQ(flags.getInt("known", 0), 1);
  const auto leftover = flags.unconsumed();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo");
}

TEST(Flags, NegativeNumbersAsValues) {
  // "-5" does not start with "--", so it parses as a value.
  const Flags flags = parse({"--offset", "-5"});
  EXPECT_EQ(flags.getInt("offset", 0), -5);
}

// Numeric values are checked in full. A bad one exits 2 and names the flag
// and the token, instead of silently reading as 0 (`abc`) or as its numeric
// prefix (`50x`, `1.9` for an integer).

TEST(FlagsDeathTest, NonNumericIntegerExitsTwoNamingFlagAndToken) {
  const Flags flags = parse({"--users", "abc"});
  EXPECT_EXIT((void)flags.getInt("users", 1), ::testing::ExitedWithCode(2),
              "--users: expected an integer, got 'abc'");
}

TEST(FlagsDeathTest, TrailingGarbageIsRejected) {
  EXPECT_EXIT((void)parse({"--users", "50x"}).getInt("users", 1),
              ::testing::ExitedWithCode(2), "--users.*'50x'");
  EXPECT_EXIT((void)parse({"--seed", "1.9"}).getInt("seed", 1),
              ::testing::ExitedWithCode(2), "--seed.*'1.9'");
  EXPECT_EXIT((void)parse({"--ratio", "0.5s"}).getDouble("ratio", 0.0),
              ::testing::ExitedWithCode(2),
              "--ratio: expected a finite number, got '0.5s'");
}

TEST(FlagsDeathTest, EmptyAndBareValuesAreRejected) {
  EXPECT_EXIT((void)parse({"--users="}).getInt("users", 1),
              ::testing::ExitedWithCode(2), "--users.*''");
  EXPECT_EXIT((void)parse({"--audit="}).getDouble("audit", 0.0),
              ::testing::ExitedWithCode(2), "--audit.*''");
  // A bare numeric flag reads as the boolean "true", which is no number.
  EXPECT_EXIT((void)parse({"--users"}).getInt("users", 1),
              ::testing::ExitedWithCode(2), "--users.*'true'");
}

TEST(FlagsDeathTest, OutOfRangeValuesAreRejected) {
  EXPECT_EXIT((void)parse({"--seed", "99999999999999999999"}).getInt("seed", 1),
              ::testing::ExitedWithCode(2), "--seed.*'99999999999999999999'");
  EXPECT_EXIT((void)parse({"--audit", "1e999"}).getDouble("audit", 0.0),
              ::testing::ExitedWithCode(2), "--audit.*'1e999'");
  EXPECT_EXIT((void)parse({"--audit", "inf"}).getDouble("audit", 0.0),
              ::testing::ExitedWithCode(2), "--audit.*'inf'");
  EXPECT_EXIT((void)parse({"--audit", "nan"}).getDouble("audit", 0.0),
              ::testing::ExitedWithCode(2), "--audit.*'nan'");
  // Finite, but its microseconds overflow the simulation clock.
  EXPECT_EXIT((void)parse({"--audit", "1e300"}).getSeconds("audit", 0),
              ::testing::ExitedWithCode(2), "--audit.*'1e300'");
  EXPECT_EXIT((void)bench::experimentConfig(parse({"--audit", "1e300"})),
              ::testing::ExitedWithCode(2), "--audit.*'1e300'");
  EXPECT_EXIT(
      (void)bench::experimentConfig(parse({"--snapshot-at", "1e300"})),
      ::testing::ExitedWithCode(2), "--snapshot-at.*'1e300'");
}

TEST(FlagsDeathTest, IntegerBelowTheCallersMinimumIsRejected) {
  EXPECT_EXIT((void)parse({"--users", "0"}).getInt("users", 5, 1),
              ::testing::ExitedWithCode(2),
              "--users: expected an integer >= 1, got '0'");
  EXPECT_EXIT((void)parse({"--users", "-3"}).getInt("users", 5, 1),
              ::testing::ExitedWithCode(2), "--users.*'-3'");
}

TEST(Flags, MinimumIsInclusive) {
  EXPECT_EQ(parse({"--users", "1"}).getInt("users", 5, 1), 1);
  EXPECT_EQ(parse({}).getInt("users", 0, 1), 0);  // fallback is not checked
}

TEST(Flags, ExtremeButValidNumbersParse) {
  EXPECT_EQ(parse({"--seed", "9223372036854775807"}).getInt("seed", 0),
            9223372036854775807);
  EXPECT_DOUBLE_EQ(parse({"--x", "-2.5e-3"}).getDouble("x", 0.0), -2.5e-3);
  EXPECT_DOUBLE_EQ(parse({"--x", "7"}).getDouble("x", 0.0), 7.0);
  EXPECT_EQ(parse({"--t", "1.5"}).getSeconds("t", 0), 1'500'000);
  EXPECT_EQ(parse({"--t", "-9e12"}).getSeconds("t", 0),
            sim::fromSeconds(-9e12));
  EXPECT_EQ(parse({}).getSeconds("t", 42), 42);  // fallback is not checked
}

// The figure binaries share bench::experimentConfig: zero users used to
// crash the run (SIGSEGV), now it is a flag error.
TEST(FlagsDeathTest, FigureBinariesRejectZeroUsers) {
  EXPECT_EXIT((void)bench::experimentConfig(parse({"--users", "0"})),
              ::testing::ExitedWithCode(2), "--users.*'0'");
  EXPECT_EXIT((void)bench::crawlScaleCatalog(parse({"--users", "0"})),
              ::testing::ExitedWithCode(2), "--users.*'0'");
  EXPECT_EXIT((void)bench::experimentConfig(parse({"--users", "abc"})),
              ::testing::ExitedWithCode(2), "--users.*'abc'");
}

// The CLI fail-fast contract: a rejected --faults / --overload spec names the
// offending token so the operator does not have to diff a long spec by eye,
// and each parser publishes its accepted grammar for the error message.

TEST(SpecErrors, FaultParseNamesOffendingToken) {
  fault::Schedule schedule;
  std::string error;
  EXPECT_FALSE(fault::Schedule::parse("crash:t=10,zork=1", &schedule, &error));
  EXPECT_NE(error.find("zork"), std::string::npos);
  EXPECT_FALSE(
      fault::Schedule::parse("meltdown:t=10", &schedule, &error));
  EXPECT_NE(error.find("meltdown"), std::string::npos);
}

TEST(SpecErrors, FaultGrammarListsKindsAndKeys) {
  const std::string grammar = fault::Schedule::grammar();
  for (const char* token :
       {"crash", "blackhole", "loss", "partition", "outage", "t", "dur"}) {
    EXPECT_NE(grammar.find(token), std::string::npos) << token;
  }
}

TEST(SpecErrors, OverloadParseNamesOffendingToken) {
  vod::OverloadConfig config;
  std::string error;
  EXPECT_FALSE(
      vod::OverloadConfig::parse("floor_kbps=200,bogus=3", &config, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_FALSE(vod::OverloadConfig::parse("queue=nope", &config, &error));
  EXPECT_NE(error.find("nope"), std::string::npos);
  // Not finite, out of a duration's range, or overflowing the count type.
  for (const char* spec :
       {"cooldown=inf", "cooldown=1e300", "deadline=inf", "deadline=1e300",
        "floor_kbps=nan", "slo=nan", "hedge=nan", "hedge=1e300",
        "queue=99999999999999999999"}) {
    error.clear();
    EXPECT_FALSE(vod::OverloadConfig::parse(spec, &config, &error)) << spec;
    const std::string value = std::string(spec).substr(
        std::string(spec).find('=') + 1);
    EXPECT_NE(error.find(value), std::string::npos) << spec << ": " << error;
  }
}

TEST(SpecErrors, OverloadGrammarListsKeys) {
  const std::string grammar = vod::OverloadConfig::grammar();
  for (const char* token : {"floor_kbps", "queue", "deadline", "credit",
                            "contention", "breaker", "cooldown", "slo"}) {
    EXPECT_NE(grammar.find(token), std::string::npos) << token;
  }
}

}  // namespace
}  // namespace st
