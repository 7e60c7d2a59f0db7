// Unit tests for src/base: Result, Rng, stats, bitops, units, CHECK macros,
// and the declared flag layer.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <set>
#include <vector>

#include "src/base/bitops.h"
#include "src/base/check.h"
#include "src/base/flags.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/units.h"

namespace siloz {
namespace {

// --- Result / Status ---

Result<int> ParsePositive(int v) {
  if (v <= 0) {
    return MakeError(ErrorCode::kInvalidArgument, "not positive");
  }
  return v;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.value_or(-1), 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
  EXPECT_NE(r.error().ToString().find("INVALID_ARGUMENT"), std::string::npos);
}

TEST(ResultTest, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 7);
}

TEST(StatusTest, OkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status bad = MakeError(ErrorCode::kNoMemory, "pool empty");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kNoMemory);
}

TEST(ErrorCodeTest, AllCodesHaveNames) {
  for (ErrorCode code : {ErrorCode::kInvalidArgument, ErrorCode::kOutOfRange,
                         ErrorCode::kNoMemory, ErrorCode::kPermissionDenied, ErrorCode::kNotFound,
                         ErrorCode::kAlreadyExists, ErrorCode::kFailedPrecondition,
                         ErrorCode::kIntegrityViolation, ErrorCode::kUnsupported}) {
    EXPECT_STRNE(ErrorCodeName(code), "UNKNOWN");
  }
}

// --- CHECK macros ---
//
// Death tests: the macros must abort with the failing expression, source
// location, and any streamed detail — that message is the only diagnostic an
// operator gets from a tripped invariant.

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, FailedCheckAbortsWithExpressionAndDetail) {
  EXPECT_DEATH(SILOZ_CHECK(1 == 2) << "boom " << 42,
               "CHECK failed at .*base_test.*: 1 == 2 — boom 42");
}

TEST(CheckDeathTest, PassingCheckDoesNotEvaluateSink) {
  bool streamed = false;
  auto side_effect = [&streamed]() {
    streamed = true;
    return "detail";
  };
  SILOZ_CHECK(true) << side_effect();
  EXPECT_FALSE(streamed);
}

TEST(CheckDeathTest, ComparisonMacrosReportBothOperands) {
  const int lhs = 3;
  const int rhs = 4;
  EXPECT_DEATH(SILOZ_CHECK_EQ(lhs, rhs), "\\(lhs\\) == \\(rhs\\)");
  EXPECT_DEATH(SILOZ_CHECK_GT(lhs, rhs), "\\(lhs\\) > \\(rhs\\)");
  SILOZ_CHECK_LT(lhs, rhs);  // passing comparisons are silent
  SILOZ_CHECK_NE(lhs, rhs);
}

TEST(CheckDeathTest, ResultValueOnErrorAborts) {
  Result<int> r = ParsePositive(-3);
  EXPECT_DEATH((void)r.value(), "CHECK failed.*not positive");
}

TEST(CheckDeathTest, StatusErrorOnOkAborts) {
  Status ok = Status::Ok();
  EXPECT_DEATH((void)ok.error(), "CHECK failed");
}

// --- Rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.NextU64() == b.NextU64());
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.NextInRange(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    saw_lo |= (v == 10);
    saw_hi |= (v == 13);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(23);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    hits += rng.NextBernoulli(0.3);
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(29);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) {
    stat.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stat.mean(), 0.0, 0.03);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.03);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent(31);
  Rng child_a = parent.Fork(1);
  Rng child_b = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (child_a.NextU64() == child_b.NextU64());
  }
  EXPECT_LT(same, 2);
}

// --- Stats ---

TEST(StatsTest, MeanAndStddev) {
  RunningStat stat;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stat.Add(v);
  }
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.stddev(), 2.138, 0.001);
  EXPECT_EQ(stat.count(), 8u);
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(StatsTest, CiShrinksWithSamples) {
  RunningStat small;
  RunningStat large;
  Rng rng(37);
  for (int i = 0; i < 5; ++i) {
    small.Add(rng.NextGaussian());
  }
  for (int i = 0; i < 500; ++i) {
    large.Add(rng.NextGaussian());
  }
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(StatsTest, CiZeroForSingleSample) {
  RunningStat stat;
  stat.Add(1.0);
  EXPECT_DOUBLE_EQ(stat.ci95_halfwidth(), 0.0);
}

TEST(StatsTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(GeometricMean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(GeometricMean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(StatsTest, TCriticalMonotone) {
  EXPECT_GT(TCritical95(1), TCritical95(5));
  EXPECT_GT(TCritical95(5), TCritical95(30));
  EXPECT_DOUBLE_EQ(TCritical95(1000), 1.96);
}

TEST(StatsTest, MergeEmptyIntoPopulatedIsANoOp) {
  // Regression: parallel phases merge per-task accumulators in task order,
  // and a task can legitimately contribute zero samples (an empty shard).
  // Merging that empty accumulator must not perturb any moment — min/max
  // must not absorb the empty side's sentinel defaults.
  RunningStat stat;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stat.Add(v);
  }
  const RunningStat before = stat;
  stat.Merge(RunningStat{});
  EXPECT_EQ(stat.count(), before.count());
  EXPECT_EQ(stat.mean(), before.mean());
  EXPECT_EQ(stat.stddev(), before.stddev());
  EXPECT_EQ(stat.ci95_halfwidth(), before.ci95_halfwidth());
  EXPECT_EQ(stat.min(), before.min());
  EXPECT_EQ(stat.max(), before.max());
}

TEST(StatsTest, MergePopulatedIntoEmptyCopies) {
  RunningStat populated;
  populated.Add(3.0);
  populated.Add(11.0);
  RunningStat empty;
  empty.Merge(populated);
  EXPECT_EQ(empty.count(), populated.count());
  EXPECT_EQ(empty.mean(), populated.mean());
  EXPECT_EQ(empty.stddev(), populated.stddev());
  EXPECT_EQ(empty.min(), populated.min());
  EXPECT_EQ(empty.max(), populated.max());
}

TEST(StatsTest, MergeMatchesSerialAccumulation) {
  // Interleaving empties among populated shards must still reproduce the
  // serial result bit-for-bit — the exact situation of a sharded trial loop
  // where some shards receive no work.
  std::vector<double> samples = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStat serial;
  for (double v : samples) {
    serial.Add(v);
  }
  RunningStat left;
  RunningStat right;
  for (size_t i = 0; i < samples.size(); ++i) {
    (i < samples.size() / 2 ? left : right).Add(samples[i]);
  }
  RunningStat merged;
  merged.Merge(RunningStat{});  // leading empty shard
  merged.Merge(left);
  merged.Merge(RunningStat{});  // interior empty shard
  merged.Merge(right);
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_EQ(merged.mean(), serial.mean());
  EXPECT_EQ(merged.min(), serial.min());
  EXPECT_EQ(merged.max(), serial.max());
  EXPECT_NEAR(merged.stddev(), serial.stddev(), 1e-12);
}

// --- Bitops ---

TEST(BitopsTest, GetSetBit) {
  EXPECT_EQ(GetBit(0b1010, 1), 1u);
  EXPECT_EQ(GetBit(0b1010, 0), 0u);
  EXPECT_EQ(SetBit(0b1010, 0, 1), 0b1011u);
  EXPECT_EQ(SetBit(0b1010, 1, 0), 0b1000u);
}

TEST(BitopsTest, GetBits) {
  EXPECT_EQ(GetBits(0b110100, 4, 2), 0b101u);
  EXPECT_EQ(GetBits(~0ull, 63, 0), ~0ull);
}

TEST(BitopsTest, SwapBits) {
  EXPECT_EQ(SwapBits(0b10, 0, 1), 0b01u);
  EXPECT_EQ(SwapBits(0b11, 0, 1), 0b11u);
  // Paper example (§6): 0b10000 with <b4,b3> mirrored becomes 0b01000.
  EXPECT_EQ(SwapBits(0b10000, 3, 4), 0b01000u);
}

TEST(BitopsTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(768));
  EXPECT_EQ(NextPowerOfTwo(768), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
  EXPECT_EQ(Log2(1024), 10u);
}

TEST(BitopsTest, Align) {
  EXPECT_EQ(AlignDown(1000, 256), 768u);
  EXPECT_EQ(AlignUp(1000, 256), 1024u);
  EXPECT_EQ(AlignUp(1024, 256), 1024u);
}

// --- Units ---

TEST(UnitsTest, Literals) {
  EXPECT_EQ(32_GiB, 32ull * 1024 * 1024 * 1024);
  EXPECT_EQ(8_KiB, 8192ull);
  EXPECT_EQ(24_MiB, 24ull * 1024 * 1024);
}

// --- Flags ---

// Parses `args` (program name excluded) with TryParse: true when --help was
// asked for, an error message otherwise.
Result<bool> ParseArgs(FlagSet& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags.TryParse(static_cast<int>(args.size()), args.data());
}

std::string ParseError(FlagSet& flags, std::vector<const char*> args) {
  const Result<bool> parsed = ParseArgs(flags, std::move(args));
  return parsed.ok() ? "" : parsed.error().message;
}

TEST(FlagsTest, UintRangeIsInclusiveAndDefaultsStay) {
  uint32_t threads = 7;
  uint32_t queue = 1;
  FlagSet flags("prog", "test");
  flags.Uint("--threads", &threads, "", 0, 1024).Uint("--queue", &queue, "", 1, 4);
  ASSERT_TRUE(ParseArgs(flags, {}).ok());
  EXPECT_EQ(threads, 7u);
  EXPECT_EQ(queue, 1u);

  FlagSet edges("prog", "test");
  edges.Uint("--threads", &threads, "", 0, 1024).Uint("--queue", &queue, "", 1, 4);
  ASSERT_TRUE(ParseArgs(edges, {"--threads", "1024", "--queue", "4"}).ok());
  EXPECT_EQ(threads, 1024u);
  EXPECT_EQ(queue, 4u);

  for (const char* bad : {"1025", "-1", "99999999999999999999"}) {
    FlagSet out("prog", "test");
    out.Uint("--threads", &threads, "", 0, 1024);
    EXPECT_NE(ParseError(out, {"--threads", bad}).find("expects an unsigned integer in [0, 1024]"),
              std::string::npos)
        << bad;
  }
  FlagSet zero("prog", "test");
  zero.Uint("--queue", &queue, "", 1, 4);
  EXPECT_NE(ParseError(zero, {"--queue", "0"}), "");
  EXPECT_EQ(queue, 4u);  // a rejected value never reaches the variable
}

TEST(FlagsTest, UintsUseCSyntaxAndAllOfTheirText) {
  uint64_t stride = 0;
  uint8_t small = 0;
  for (const auto& [text, value] :
       std::vector<std::pair<const char*, uint64_t>>{{"0x100000", 0x100000}, {"010", 8}, {"42", 42}}) {
    FlagSet flags("prog", "test");
    flags.Uint("--stride", &stride, "");
    ASSERT_TRUE(ParseArgs(flags, {"--stride", text}).ok()) << text;
    EXPECT_EQ(stride, value) << text;
  }
  for (const char* bad : {"0x", "4x", "abc", "", " 4", "+4", "1e3"}) {
    FlagSet flags("prog", "test");
    flags.Uint("--stride", &stride, "");
    EXPECT_NE(ParseError(flags, {"--stride", bad}), "") << "'" << bad << "'";
  }
  // The default range is the variable's type.
  FlagSet narrow("prog", "test");
  narrow.Uint("--small", &small, "");
  EXPECT_NE(ParseError(narrow, {"--small", "256"}), "");
}

TEST(FlagsTest, DoublesAreStrictAndFinite) {
  double duration = 200.0;
  FlagSet flags("prog", "test");
  flags.Double("--duration", &duration, "");
  ASSERT_TRUE(ParseArgs(flags, {"--duration", "12.5"}).ok());
  EXPECT_EQ(duration, 12.5);
  for (const char* bad : {"abc", "1e", "nan", "inf", "-inf", "1e999", "", " 1", "1.5x"}) {
    FlagSet strict("prog", "test");
    strict.Double("--duration", &duration, "");
    EXPECT_NE(ParseError(strict, {"--duration", bad}).find("expects a finite number"),
              std::string::npos)
        << "'" << bad << "'";
  }
  EXPECT_EQ(duration, 12.5);
}

TEST(FlagsTest, StringsCheckTheirChoices) {
  std::string policy = "defrag";
  std::string out;
  FlagSet flags("prog", "test");
  flags.String("--policy", &policy, "", {"reject", "queue", "defrag"}).String("--out", &out, "");
  ASSERT_TRUE(ParseArgs(flags, {"--policy", "queue", "--out", "-"}).ok());
  EXPECT_EQ(policy, "queue");
  EXPECT_EQ(out, "-");
  FlagSet bad("prog", "test");
  bad.String("--policy", &policy, "", {"reject", "queue", "defrag"});
  EXPECT_NE(ParseError(bad, {"--policy", "bogus"}).find("one of reject|queue|defrag"),
            std::string::npos);
}

TEST(FlagsTest, UnknownRepeatedAndValuelessFlagsAreRejected) {
  uint32_t trials = 5;
  bool json = false;
  auto make = [&](FlagSet& flags) {
    flags.Uint("--trials", &trials, "").Bool("--json", &json, "");
  };
  FlagSet typo("prog", "test");
  make(typo);
  EXPECT_EQ(ParseError(typo, {"--trails", "2"}), "unknown flag '--trails'");
  FlagSet twice("prog", "test");
  make(twice);
  EXPECT_EQ(ParseError(twice, {"--trials", "1", "--trials", "2"}),
            "--trials given more than once");
  FlagSet twice_bool("prog", "test");
  make(twice_bool);
  EXPECT_EQ(ParseError(twice_bool, {"--json", "--json"}), "--json given more than once");
  FlagSet missing("prog", "test");
  make(missing);
  EXPECT_EQ(ParseError(missing, {"--trials"}), "--trials requires a value");
  FlagSet ok("prog", "test");
  make(ok);
  ASSERT_TRUE(ParseArgs(ok, {"--json", "--trials", "3"}).ok());
  EXPECT_TRUE(json);
  EXPECT_EQ(trials, 3u);
}

TEST(FlagsTest, PositionalsFillInOrderAndStraysAreRejected) {
  std::string workload = "redis-a";
  std::optional<uint64_t> address;
  uint32_t trials = 5;
  auto make = [&](FlagSet& flags) {
    flags.String("workload", &workload, "").Uint("address", &address, "").Uint(
        "--trials", &trials, "");
  };
  FlagSet none("prog", "test");
  make(none);
  ASSERT_TRUE(ParseArgs(none, {"--trials", "2"}).ok());
  EXPECT_EQ(workload, "redis-a");
  EXPECT_FALSE(address.has_value());

  FlagSet both("prog", "test");
  make(both);
  ASSERT_TRUE(ParseArgs(both, {"memcached", "--trials", "3", "0x40000000"}).ok());
  EXPECT_EQ(workload, "memcached");
  EXPECT_EQ(address, 0x40000000u);

  FlagSet stray("prog", "test");
  make(stray);
  EXPECT_EQ(ParseError(stray, {"a", "1", "extra"}), "unexpected argument 'extra'");
  FlagSet malformed("prog", "test");
  make(malformed);
  EXPECT_NE(ParseError(malformed, {"a", "12abc"}).find("address expects"), std::string::npos);
  FlagSet flagless("prog", "test");
  EXPECT_EQ(ParseError(flagless, {"1"}), "unexpected argument '1'");
  FlagSet threads("prog", "test");
  EXPECT_EQ(ParseError(threads, {"--threads", "8"}), "unknown flag '--threads'");
}

TEST(FlagsTest, HelpStopsParsingAndListsEveryDeclaration) {
  uint32_t threads = 0;
  std::optional<uint32_t> rows;
  std::string platform;
  FlagSet flags("prog", "one-line summary");
  DeclareThreads(flags, &threads);
  DeclareSubarrayRows(flags, &rows);
  flags.String("--platform", &platform, "platform", {"skylake", "zen"});
  const Result<bool> help = ParseArgs(flags, {"--help", "--bogus"});
  ASSERT_TRUE(help.ok());
  EXPECT_TRUE(*help);
  const std::string usage = flags.Usage();
  EXPECT_EQ(usage.rfind("usage: prog [flags]\none-line summary\n", 0), 0u) << usage;
  EXPECT_NE(usage.find("--threads N"), std::string::npos);
  EXPECT_NE(usage.find("[0, 1024] (default 0)"), std::string::npos);
  EXPECT_NE(usage.find("--subarray-rows N"), std::string::npos);
  EXPECT_NE(usage.find("--platform skylake|zen"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
  FlagSet short_help("prog", "test");
  EXPECT_TRUE(*ParseArgs(short_help, {"-h"}));
}

TEST(FlagsDeathTest, ParseExitsTwoOnBadInputAndZeroOnHelp) {
  uint32_t threads = 0;
  const char* bad[] = {"prog", "--threads", "abc"};
  EXPECT_EXIT(
      {
        FlagSet flags("prog", "test");
        DeclareThreads(flags, &threads);
        flags.Parse(3, bad);
      },
      ::testing::ExitedWithCode(2), "prog: --threads expects an unsigned integer");
  const char* help[] = {"prog", "--help"};
  EXPECT_EXIT(
      {
        FlagSet flags("prog", "test");
        flags.Parse(2, help);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace siloz
