// Property-style parameterized sweeps: serializability invariants must
// hold for every combination of thread count, TuFast configuration and
// HTM-capacity geometry — not just the defaults.

#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "htm/emulated_htm.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

// ---------------------------------------------------------------------------
// TuFast invariant sweep: (threads, adaptive_period, enable_breaker). The
// breaker is one of the four paths into L mode's gate.
// ---------------------------------------------------------------------------

using TuFastParam = std::tuple<int, bool, bool>;

class TuFastPropertyTest : public ::testing::TestWithParam<TuFastParam> {};

TEST_P(TuFastPropertyTest, TransfersPreserveTotalUnderAnyConfig) {
  const auto [threads, adaptive, breaker] = GetParam();
  EmulatedHtm htm;
  TuFast::Config config;
  config.adaptive_period = adaptive;
  config.static_period = 300;
  config.enable_breaker = breaker;
  constexpr VertexId kAccounts = 40;
  TuFast tm(htm, kAccounts, config);
  std::vector<TmWord> balance(kAccounts, 1000);

  constexpr int kEach = 400;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(500 + t);
      for (int i = 0; i < kEach; ++i) {
        const VertexId from = static_cast<VertexId>(rng.NextBounded(kAccounts));
        VertexId to = static_cast<VertexId>(rng.NextBounded(kAccounts - 1));
        if (to >= from) ++to;
        // Rotate hints to exercise all three modes.
        const uint64_t hint = (i % 3 == 0)   ? 2
                              : (i % 3 == 1) ? tm.h_hint_threshold() + 1
                                             : tm.config().o_hint_threshold + 1;
        tm.Run(t, hint, [&](auto& txn) {
          const TmWord a = txn.Read(from, &balance[from]);
          if (a == 0) {
            txn.Abort();  // Exercise user aborts in every mode too.
          }
          txn.Write(from, &balance[from], a - 1);
          txn.Write(to, &balance[to], txn.Read(to, &balance[to]) + 1);
        });
      }
    });
  }
  for (auto& w : workers) w.join();

  TmWord total = 0;
  for (const TmWord b : balance) total += b;
  EXPECT_EQ(total, kAccounts * 1000u);
}

std::string TuFastParamName(const ::testing::TestParamInfo<TuFastParam>& info) {
  std::string name = "t" + std::to_string(std::get<0>(info.param));
  name += std::get<1>(info.param) ? "_adaptive" : "_static";
  name += std::get<2>(info.param) ? "_breaker" : "_nobreaker";
  return name;
}
INSTANTIATE_TEST_SUITE_P(
    Configs, TuFastPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(false, true),
                       ::testing::Values(false, true)),
    TuFastParamName);

// ---------------------------------------------------------------------------
// HTM geometry sweep: correctness must not depend on the modeled cache
// shape; only the abort mix may change.
// ---------------------------------------------------------------------------

using GeometryParam = std::tuple<uint32_t, uint32_t>;  // (sets, ways)

class HtmGeometryTest : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(HtmGeometryTest, CounterExactUnderAnyGeometry) {
  const auto [sets, ways] = GetParam();
  HtmConfig config;
  config.num_sets = sets;
  config.num_ways = ways;
  EmulatedHtm htm(config);

  alignas(64) static TmWord counter;
  counter = 0;
  constexpr int kThreads = 3;
  constexpr int kEach = 800;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&htm, t, sets, ways] {
      EmulatedHtm::Tx tx(htm, t);
      Rng rng(t);
      std::vector<TmWord> filler(1024, 0);
      for (int i = 0; i < kEach; ++i) {
        while (true) {
          const AbortStatus status = tx.Execute([&] {
            // Touch a random amount of extra footprint so some attempts
            // abort on capacity; retries must still be exact.
            const size_t extra = rng.NextBounded(ways * 2);
            for (size_t k = 0; k < extra; ++k) {
              (void)tx.Load(&filler[(k * 8 * sets) % filler.size()]);
            }
            tx.Store(&counter, tx.Load(&counter) + 1);
          });
          if (status.ok()) break;
          if (status.cause == AbortCause::kCapacity) {
            // Deterministic: shrink the workload by retrying without
            // filler (the random `extra` re-rolls anyway).
            continue;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&counter),
            static_cast<TmWord>(kThreads * kEach));
}

std::string GeometryParamName(
    const ::testing::TestParamInfo<GeometryParam>& info) {
  return "s" + std::to_string(std::get<0>(info.param)) + "_w" +
         std::to_string(std::get<1>(info.param));
}
INSTANTIATE_TEST_SUITE_P(Geometries, HtmGeometryTest,
                         ::testing::Combine(::testing::Values(4u, 16u, 64u),
                                            ::testing::Values(2u, 8u)),
                         GeometryParamName);

// ---------------------------------------------------------------------------
// Hint-independence: the hint is advisory only — any hint value must
// yield the same results (paper: "non-binding and do not affect the
// correctness").
// ---------------------------------------------------------------------------

class HintPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HintPropertyTest, AnyHintYieldsCorrectResults) {
  const uint64_t hint = GetParam();
  EmulatedHtm htm;
  TuFast tm(htm, 128);
  std::vector<TmWord> data(128, 0);
  for (int i = 0; i < 200; ++i) {
    const RunOutcome outcome = tm.Run(0, hint, [&](auto& txn) {
      const VertexId v = static_cast<VertexId>(i % 128);
      txn.Write(v, &data[v], txn.Read(v, &data[v]) + 1);
    });
    ASSERT_TRUE(outcome.committed);
  }
  TmWord total = 0;
  for (const TmWord d : data) total += d;
  EXPECT_EQ(total, 200u);
}

INSTANTIATE_TEST_SUITE_P(Hints, HintPropertyTest,
                         ::testing::Values(0, 1, 100, 255, 256, 257, 4096,
                                           16384, 16385, uint64_t{1} << 40));

}  // namespace
}  // namespace tufast
