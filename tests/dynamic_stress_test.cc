// Dynamic-graph invariants under fault injection: the three workloads of
// testing/dynamic_invariants.h swept across all seven schedulers with
// probabilistic HTM aborts, lock failures, router demotions and schedule
// perturbation (the PR-2 chaos plan). Part of the `stress` ctest label;
// failures print the exact replay seed, for this command typed as one
// shell line:
//
//   TUFAST_STRESS_SEED=<seed> TUFAST_STRESS_ITERS=1 ./tufast_tests
//       --gtest_filter='DynamicInvariantStress*'

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "testing/dynamic_invariants.h"
#include "testing/failpoints.h"
#include "testing/stress_workloads.h"

namespace tufast {
namespace {

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* s = std::getenv(name);
  return (s != nullptr && *s != '\0') ? std::strtoull(s, nullptr, 10) : def;
}

uint64_t StressIters() { return EnvU64("TUFAST_STRESS_ITERS", 2); }
uint64_t StressBaseSeed() { return EnvU64("TUFAST_STRESS_SEED", 1); }

FailpointPlan::Config ChaosConfig(uint64_t seed) {
  FailpointPlan::Config config;
  config.seed = seed;
  config.Arm(FailSite::kHtmLoad, 0.002, FailAction::kAbortConflict);
  config.Arm(FailSite::kHtmStore, 0.001, FailAction::kAbortCapacity);
  config.Arm(FailSite::kHtmCommit, 0.002, FailAction::kAbortConflict);
  config.Arm(FailSite::kRouterSkipH, 0.05, FailAction::kFail);
  config.Arm(FailSite::kRouterSkipO, 0.05, FailAction::kFail);
  config.Arm(FailSite::kLockAcquireShared, 0.005, FailAction::kFail);
  config.Arm(FailSite::kLockAcquireExclusive, 0.01, FailAction::kFail);
  config.Arm(FailSite::kLockUpgrade, 0.01, FailAction::kFail);
  config.Arm(FailSite::kLockTryExclusive, 0.01, FailAction::kFail);
  config.Arm(FailSite::kLockTryUpgrade, 0.01, FailAction::kFail);
  config.yield_prob = 0.05;
  return config;
}

template <typename Scheduler>
class DynamicInvariantStressTest : public ::testing::Test {};

using StressSchedulers = ::testing::Types<
    TuFastScheduler<FaultyHtm>, TwoPhaseLocking<FaultyHtm>,
    SiloOcc<FaultyHtm>, TimestampOrdering<FaultyHtm>, TinyStm<FaultyHtm>,
    HsyncHybrid<FaultyHtm>, HtmTimestampOrdering<FaultyHtm>>;
TYPED_TEST_SUITE(DynamicInvariantStressTest, StressSchedulers);

// Every DynamicGraph mutation locks exactly one vertex with write intent
// declared up front.
TYPED_TEST(DynamicInvariantStressTest, HoldsUnderChaos) {
  using Scheduler = TypeParam;
  const uint64_t iters = StressIters();
  for (uint64_t it = 0; it < iters; ++it) {
    const uint64_t seed = StressBaseSeed() + it;
    DynamicStressConfig cfg;
    cfg.threads = 3;
    cfg.batches_per_thread = 30;
    cfg.batch_size = 4;
    cfg.vertices = 32;
    cfg.seed = seed;
    FaultyHtm htm;
    Scheduler tm(htm, cfg.Capacity());
    FailpointPlan plan(ChaosConfig(seed));
    FailpointScope scope(plan);
    if (auto err = RunDynamicInvariantSuite(tm, cfg)) {
      ADD_FAILURE() << *err << " [seed=" << seed
                    << "; replay: TUFAST_STRESS_SEED=" << seed
                    << " TUFAST_STRESS_ITERS=1]";
      return;
    }
  }
}

}  // namespace
}  // namespace tufast
