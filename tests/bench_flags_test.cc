// Strict-parsing tests for the shared bench flag parser: every malformed
// value and every unknown flag must be a hard process exit (code 2),
// never a silently defaulted run — a bench running with thread count "4x"
// or scale 0 measures the wrong thing while looking healthy.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"

namespace tufast {
namespace {

BenchFlags ParseArgs(std::vector<std::string> args) {
  std::vector<std::vector<char>> storage;
  std::vector<char*> argv;
  storage.emplace_back(std::vector<char>{'b', 'e', 'n', 'c', 'h', '\0'});
  argv.push_back(storage.back().data());
  for (const std::string& a : args) {
    storage.emplace_back(a.begin(), a.end());
    storage.back().push_back('\0');
    argv.push_back(storage.back().data());
  }
  return BenchFlags::Parse(static_cast<int>(argv.size()), argv.data(),
                           /*default_scale=*/1.0);
}

TEST(BenchFlagsTest, ServingFlagsParse) {
  const BenchFlags flags =
      ParseArgs({"--rate=120000", "--zipf=1.2", "--tenants=interactive:70,bulk:30",
                 "--slo-p99-us=1500", "--duration=3.5", "--serve-chaos"});
  EXPECT_DOUBLE_EQ(flags.rate, 120000.0);
  EXPECT_DOUBLE_EQ(flags.zipf, 1.2);
  EXPECT_EQ(flags.interactive_percent, 70u);
  EXPECT_EQ(flags.slo_p99_us, 1500u);
  EXPECT_DOUBLE_EQ(flags.duration, 3.5);
  EXPECT_TRUE(flags.serve_chaos);
}

TEST(BenchFlagsTest, ServingDefaults) {
  const BenchFlags flags = ParseArgs({"--threads=2"});
  EXPECT_DOUBLE_EQ(flags.rate, 50000.0);
  EXPECT_DOUBLE_EQ(flags.zipf, 0.99);
  EXPECT_EQ(flags.interactive_percent, 80u);
  EXPECT_EQ(flags.slo_p99_us, 2000u);
  EXPECT_DOUBLE_EQ(flags.duration, 2.0);
  EXPECT_FALSE(flags.serve_chaos);
}

TEST(BenchFlagsDeathTest, RejectsMalformedRate) {
  EXPECT_EXIT(ParseArgs({"--rate="}), ::testing::ExitedWithCode(2),
              "missing value");
  EXPECT_EXIT(ParseArgs({"--rate=fast"}), ::testing::ExitedWithCode(2),
              "not a number");
  EXPECT_EXIT(ParseArgs({"--rate=0"}), ::testing::ExitedWithCode(2),
              "must be in");
  EXPECT_EXIT(ParseArgs({"--rate=-100"}), ::testing::ExitedWithCode(2),
              "must be in");
  EXPECT_EXIT(ParseArgs({"--rate=nan"}), ::testing::ExitedWithCode(2),
              "must be in");
  EXPECT_EXIT(ParseArgs({"--rate=1e12"}), ::testing::ExitedWithCode(2),
              "must be in");
}

TEST(BenchFlagsDeathTest, RejectsMalformedSlo) {
  EXPECT_EXIT(ParseArgs({"--slo-p99-us="}), ::testing::ExitedWithCode(2),
              "missing value");
  EXPECT_EXIT(ParseArgs({"--slo-p99-us=-5"}), ::testing::ExitedWithCode(2),
              "must be in");
  EXPECT_EXIT(ParseArgs({"--slo-p99-us=0"}), ::testing::ExitedWithCode(2),
              "must be in");
  EXPECT_EXIT(ParseArgs({"--slo-p99-us=2ms"}), ::testing::ExitedWithCode(2),
              "not an integer");
}

TEST(BenchFlagsDeathTest, RejectsMalformedTenantSpecs) {
  // Unknown tenant name.
  EXPECT_EXIT(ParseArgs({"--tenants=batch:50,bulk:50"}),
              ::testing::ExitedWithCode(2), "expected interactive");
  // Missing bulk tier.
  EXPECT_EXIT(ParseArgs({"--tenants=interactive:100"}),
              ::testing::ExitedWithCode(2), "expected interactive");
  // Percentages that don't sum to 100.
  EXPECT_EXIT(ParseArgs({"--tenants=interactive:60,bulk:30"}),
              ::testing::ExitedWithCode(2), "sum to 100");
  // Out-of-range and non-numeric percentages.
  EXPECT_EXIT(ParseArgs({"--tenants=interactive:-1,bulk:101"}),
              ::testing::ExitedWithCode(2), "must be an integer");
  EXPECT_EXIT(ParseArgs({"--tenants=interactive:lots,bulk:0"}),
              ::testing::ExitedWithCode(2), "must be an integer");
  // Trailing junk after a well-formed spec.
  EXPECT_EXIT(ParseArgs({"--tenants=interactive:50,bulk:50,extra:0"}),
              ::testing::ExitedWithCode(2), "must be an integer");
}

TEST(BenchFlagsDeathTest, RejectsMalformedDurationAndZipf) {
  EXPECT_EXIT(ParseArgs({"--duration=0"}), ::testing::ExitedWithCode(2),
              "must be in");
  EXPECT_EXIT(ParseArgs({"--duration=-2"}), ::testing::ExitedWithCode(2),
              "must be in");
  EXPECT_EXIT(ParseArgs({"--zipf=-0.5"}), ::testing::ExitedWithCode(2),
              "must be in");
  EXPECT_EXIT(ParseArgs({"--zipf=9"}), ::testing::ExitedWithCode(2),
              "must be in");
}

TEST(BenchFlagsTest, WalFlagsParse) {
  const BenchFlags flags =
      ParseArgs({"--wal", "--crash-chaos", "--checkpoint-every=8"});
  EXPECT_TRUE(flags.wal);
  EXPECT_TRUE(flags.crash_chaos);
  EXPECT_EQ(flags.checkpoint_every, 8u);
}

TEST(BenchFlagsTest, WalDefaults) {
  const BenchFlags flags = ParseArgs({"--threads=2"});
  EXPECT_FALSE(flags.wal);
  EXPECT_FALSE(flags.crash_chaos);
  EXPECT_EQ(flags.checkpoint_every, 0u);  // 0 = never checkpoint.
}

TEST(BenchFlagsDeathTest, RejectsMalformedCheckpointEvery) {
  EXPECT_EXIT(ParseArgs({"--checkpoint-every="}), ::testing::ExitedWithCode(2),
              "missing value");
  EXPECT_EXIT(ParseArgs({"--checkpoint-every=8x"}),
              ::testing::ExitedWithCode(2), "not an integer");
  EXPECT_EXIT(ParseArgs({"--checkpoint-every=2.5"}),
              ::testing::ExitedWithCode(2), "not an integer");
  EXPECT_EXIT(ParseArgs({"--checkpoint-every=-1"}),
              ::testing::ExitedWithCode(2), "must be >= 0");
}

TEST(BenchFlagsTest, WalSwitchesAreExactMatches) {
  // "--wal=yes" / "--crash-chaos=yes" are not the plain switches (exact
  // match only), so they are unknown flags: a hard error, never a run
  // with or without durability that the user didn't ask for.
  EXPECT_EXIT(ParseArgs({"--wal=yes"}), ::testing::ExitedWithCode(2),
              "bad flag '--wal=yes': unknown flag");
  EXPECT_EXIT(ParseArgs({"--crash-chaos=yes"}), ::testing::ExitedWithCode(2),
              "bad flag '--crash-chaos=yes': unknown flag");
}

TEST(BenchFlagsDeathTest, RejectsUnknownFlags) {
  // A typo'd switch must not silently run the default sweep.
  EXPECT_EXIT(ParseArgs({"--mvcc-chaoss"}), ::testing::ExitedWithCode(2),
              "bad flag '--mvcc-chaoss': unknown flag");
  EXPECT_EXIT(ParseArgs({"--quick", "--seeds=3"}),
              ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(BenchFlagsDeathTest, RejectsRemovedFlags) {
  // Flags of deleted features fail loudly instead of running without them.
  EXPECT_EXIT(ParseArgs({"--hot-threshold=0.25"}),
              ::testing::ExitedWithCode(2), "unknown flag");
  EXPECT_EXIT(ParseArgs({"--shard-chaos"}), ::testing::ExitedWithCode(2),
              "bad flag '--shard-chaos': unknown flag");
  EXPECT_EXIT(ParseArgs({"--shards=4"}), ::testing::ExitedWithCode(2),
              "bad flag '--shards=4': unknown flag");
  EXPECT_EXIT(ParseArgs({"--am-batch=8"}), ::testing::ExitedWithCode(2),
              "bad flag '--am-batch=8': unknown flag");
}

TEST(BenchFlagsDeathTest, ExistingFlagsStayStrict) {
  EXPECT_EXIT(ParseArgs({"--threads=0"}), ::testing::ExitedWithCode(2),
              "must be in");
  EXPECT_EXIT(ParseArgs({"--scale=nope"}), ::testing::ExitedWithCode(2),
              "not a number");
}

}  // namespace
}  // namespace tufast
