// Fault-injection + invariant-checking stress suite (the `stress` ctest
// label). Every test pins a seed (or sweeps a small seed range, widened
// by TUFAST_STRESS_ITERS); any failure message carries the exact
// (scheduler, seed) pair needed to replay it, with this command typed
// as one shell line:
//
//   TUFAST_STRESS_SEED=<seed> TUFAST_STRESS_ITERS=1 ./tufast_tests
//       --gtest_filter='InvariantStress*'

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/thread_pool.h"
#include "runtime/worklist.h"
#include "sync/lock_manager.h"
#include "sync/lock_table.h"
#include "testing/failpoints.h"
#include "testing/stress_workloads.h"

namespace tufast {
namespace {

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* s = std::getenv(name);
  return (s != nullptr && *s != '\0') ? std::strtoull(s, nullptr, 10) : def;
}

// Tier-1 defaults are small; CI long-runs opt in via the environment.
uint64_t StressIters() { return EnvU64("TUFAST_STRESS_ITERS", 2); }
uint64_t StressBaseSeed() { return EnvU64("TUFAST_STRESS_SEED", 1); }

// ---------------------------------------------------------------------------
// FailpointPlan mechanics.

TEST(FailpointPlanTest, SameSeedSameDecisions) {
  FailpointPlan::Config config;
  config.seed = 42;
  config.Arm(FailSite::kHtmLoad, 0.1);
  config.Arm(FailSite::kLockAcquireExclusive, 0.3, FailAction::kFail);
  config.yield_prob = 0.2;
  FailpointPlan a(config), b(config);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.OnHit(FailSite::kHtmLoad, 0), b.OnHit(FailSite::kHtmLoad, 0));
    EXPECT_EQ(a.OnHit(FailSite::kLockAcquireExclusive, 1),
              b.OnHit(FailSite::kLockAcquireExclusive, 1));
  }
  EXPECT_EQ(a.InjectionCount(), b.InjectionCount());
  EXPECT_GT(a.InjectionCount(), 0u);
  EXPECT_EQ(a.FormatTrace(), b.FormatTrace());
}

TEST(FailpointPlanTest, SlotStreamsAreIndependent) {
  FailpointPlan::Config config;
  config.seed = 7;
  config.Arm(FailSite::kHtmCommit, 0.5);
  FailpointPlan plan(config);
  std::string s0, s1;
  for (int i = 0; i < 256; ++i) {
    s0 += plan.OnHit(FailSite::kHtmCommit, 0) == FailAction::kNone ? '.' : 'x';
    s1 += plan.OnHit(FailSite::kHtmCommit, 1) == FailAction::kNone ? '.' : 'x';
  }
  EXPECT_NE(s0, s1);  // Distinct per-slot streams (2^-256 false-fail odds).
  EXPECT_EQ(plan.HitCount(FailSite::kHtmCommit, 0), 256u);
  EXPECT_EQ(plan.HitCount(FailSite::kHtmCommit, 1), 256u);
}

TEST(FailpointPlanTest, ForceAtFiresAtExactHitIndex) {
  FailpointPlan plan(FailpointPlan::Config{});
  plan.ForceAt(FailSite::kHtmStore, /*slot=*/3, /*hit_index=*/5,
               FailAction::kAbortCapacity);
  for (uint64_t i = 0; i < 10; ++i) {
    const FailAction got = plan.OnHit(FailSite::kHtmStore, 3);
    EXPECT_EQ(got, i == 5 ? FailAction::kAbortCapacity : FailAction::kNone)
        << "hit " << i;
  }
  EXPECT_EQ(plan.InjectionCount(), 1u);
  const auto trace = plan.TraceSnapshot();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].site, FailSite::kHtmStore);
  EXPECT_EQ(trace[0].slot, 3);
  EXPECT_EQ(trace[0].hit_index, 5u);
  EXPECT_EQ(trace[0].action, FailAction::kAbortCapacity);
}

TEST(FailpointPlanTest, SlotlessSitesUseSharedStream) {
  FailpointPlan plan(FailpointPlan::Config{});
  plan.ForceAt(FailSite::kLockTryExclusive, /*slot=*/-1, /*hit_index=*/2,
               FailAction::kFail);
  EXPECT_EQ(plan.OnHit(FailSite::kLockTryExclusive, -1), FailAction::kNone);
  EXPECT_EQ(plan.OnHit(FailSite::kLockTryExclusive, -1), FailAction::kNone);
  EXPECT_EQ(plan.OnHit(FailSite::kLockTryExclusive, -1), FailAction::kFail);
  EXPECT_EQ(plan.HitCount(FailSite::kLockTryExclusive, -1), 3u);
}

// ---------------------------------------------------------------------------
// Forced HTM aborts through the real transaction path.

TEST(FaultyHtmTest, ForcedConflictAbortIsRetriedAndCommits) {
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm> tm(htm, 64);
  std::vector<TmWord> data(64, 0);
  FailpointPlan plan(FailpointPlan::Config{});
  // Abort the first H attempt at its third transactional load (lock-word
  // subscriptions count as loads too); the retry must commit.
  plan.ForceAt(FailSite::kHtmLoad, /*slot=*/0, /*hit_index=*/2,
               FailAction::kAbortConflict);
  FailpointScope scope(plan);
  const RunOutcome outcome = tm.Run(0, 4, [&](auto& txn) {
    const TmWord a = txn.Read(1, &data[1]);
    const TmWord b = txn.Read(2, &data[2]);
    txn.Write(3, &data[3], a + b + 7);
  });
  ASSERT_TRUE(outcome.committed);
  EXPECT_EQ(FaultyHtm::NonTxLoad(&data[3]), 7u);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.conflict_aborts, 1u);
  EXPECT_EQ(plan.InjectionCount(), 1u);
}

TEST(FaultyHtmTest, ForcedCapacityAbortDemotesOutOfHMode) {
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm> tm(htm, 64);
  std::vector<TmWord> data(64, 0);
  FailpointPlan::Config config;
  // Every hardware load aborts with capacity: H can never succeed; the
  // router must still commit the transaction through a software mode.
  config.Arm(FailSite::kHtmLoad, 1.0, FailAction::kAbortCapacity);
  FailpointPlan plan(config);
  FailpointScope scope(plan);
  const RunOutcome outcome = tm.Run(0, 4, [&](auto& txn) {
    txn.Write(5, &data[5], txn.Read(5, &data[5]) + 1);
  });
  ASSERT_TRUE(outcome.committed);
  EXPECT_EQ(FaultyHtm::NonTxLoad(&data[5]), 1u);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kH)], 0u);
  EXPECT_GT(stats.capacity_aborts, 0u);
}

// ---------------------------------------------------------------------------
// Forced router demotions (H -> O -> L).

TEST(RouterDemotionTest, SkipHRoutesThroughOMode) {
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm> tm(htm, 64);
  std::vector<TmWord> data(64, 0);
  FailpointPlan::Config config;
  config.Arm(FailSite::kRouterSkipH, 1.0, FailAction::kFail);
  FailpointPlan plan(config);
  FailpointScope scope(plan);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tm.Run(0, 2, [&](auto& txn) {
      txn.Write(1, &data[1], txn.Read(1, &data[1]) + 1);
    }).committed);
  }
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 20u);
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kH)], 0u);
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kO)] +
                stats.class_count[static_cast<int>(TxnClass::kOPlus)],
            20u);
}

TEST(RouterDemotionTest, SkipHAndORoutesToLockMode) {
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm> tm(htm, 64);
  std::vector<TmWord> data(64, 0);
  FailpointPlan::Config config;
  config.Arm(FailSite::kRouterSkipH, 1.0, FailAction::kFail);
  config.Arm(FailSite::kRouterSkipO, 1.0, FailAction::kFail);
  FailpointPlan plan(config);
  FailpointScope scope(plan);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tm.Run(0, 2, [&](auto& txn) {
      txn.Write(1, &data[1], txn.Read(1, &data[1]) + 1);
    }).committed);
  }
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 20u);
  EXPECT_EQ(FaultyHtm::NonTxLoad(&data[1]), 20u);
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kO2L)], 20u);
}

// ---------------------------------------------------------------------------
// Forced lock-manager victims.

TEST(ForcedVictimTest, TwoPhaseLockingStaysExactUnderForcedVictims) {
  FaultyHtm htm;
  TwoPhaseLocking<FaultyHtm> tm(htm, 64);
  std::vector<TmWord> data(64, 0);
  FailpointPlan::Config config;
  config.seed = 11;
  config.Arm(FailSite::kLockAcquireExclusive, 0.05, FailAction::kFail);
  config.Arm(FailSite::kLockUpgrade, 0.10, FailAction::kFail);
  config.yield_prob = 0.2;
  FailpointPlan plan(config);
  FailpointScope scope(plan);
  constexpr int kThreads = 3;
  constexpr int kEach = 150;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        tm.Run(t, 2, [&](auto& txn) {
          txn.Write(0, &data[0], txn.Read(0, &data[0]) + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  // Victim retries must preserve exactly-once semantics.
  EXPECT_EQ(FaultyHtm::NonTxLoad(&data[0]),
            static_cast<TmWord>(kThreads * kEach));
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(kThreads * kEach));
  EXPECT_GT(stats.deadlock_aborts, 0u);  // The injection actually fired.
}

TEST(ForcedVictimTest, FailedUpgradeKeepsSharedHeld) {
  // The "shared lock still held after failed upgrade" contract, with a
  // forced victim instead of a genuine wait-bound expiry.
  FaultyHtm htm;
  LockTable<FaultyHtm> table(htm, 16);
  LockManager<FaultyHtm> manager(table);
  FailpointPlan plan(FailpointPlan::Config{});
  plan.ForceAt(FailSite::kLockUpgrade, /*slot=*/0, /*hit_index=*/0,
               FailAction::kFail);
  FailpointScope scope(plan);
  ASSERT_TRUE(manager.AcquireShared(0, 4));
  EXPECT_FALSE(manager.Upgrade(0, 4));
  // Shared registration intact: exclusive blocked until we release it.
  EXPECT_FALSE(table.TryLockExclusive(4));
  manager.ReleaseShared(4);
  EXPECT_TRUE(table.TryLockExclusive(4));
  table.UnlockExclusive(4);
  // A second upgrade (hit index 1, not forced) succeeds normally.
  ASSERT_TRUE(manager.AcquireShared(0, 4));
  EXPECT_TRUE(manager.Upgrade(0, 4));
  manager.ReleaseExclusive(4);
}

// ---------------------------------------------------------------------------
// DrainWorklist termination-race regression.

// Pre-fix, a worker was counted active only AFTER TryPop succeeded, so a
// peer could observe active == 0 with an item in flight and return while
// that item (which pushes more work) was still pending — the drain was
// not complete at its exit. The yield burst injected between pop and
// execution stretches exactly that window. Post-fix, a worker may only
// return once the whole drain has quiesced, so the processed count it
// observes at exit must already be the full tree size.
TEST(WorklistStressTest, NoWorkerExitsBeforeDrainCompletes) {
  const uint64_t iters = StressIters();
  for (uint64_t it = 0; it < iters; ++it) {
    FailpointPlan::Config config;
    config.seed = StressBaseSeed() + it;
    config.yield_prob = 1.0;  // Yield in the pop->execute window, always.
    config.max_yield_burst = 4;
    FailpointPlan plan(config);
    FailpointScope scope(plan);
    constexpr int kWorkers = 4;
    ThreadPool pool(kWorkers);
    ConcurrentQueue<int> queue;
    constexpr int kDepth = 12;
    queue.Push(kDepth);  // Each item n > 0 pushes two copies of n-1.
    std::atomic<int> active{0};
    std::atomic<uint64_t> processed{0};
    uint64_t at_exit[kWorkers] = {};
    pool.RunOnAll([&](int worker) {
      DrainWorklist<StressFailpoints>(queue, worker, active, [&](int, int n) {
        ++processed;
        if (n > 0) {
          queue.Push(n - 1);
          queue.Push(n - 1);
        }
      });
      at_exit[worker] = processed.load();
    });
    // Full binary tree: 2^(kDepth+1) - 1 nodes, every one exactly once.
    constexpr uint64_t kTotal = (uint64_t{1} << (kDepth + 1)) - 1;
    EXPECT_EQ(processed.load(), kTotal) << "seed " << config.seed;
    EXPECT_TRUE(queue.Empty());
    for (int w = 0; w < kWorkers; ++w) {
      EXPECT_EQ(at_exit[w], kTotal)
          << "worker " << w << " returned before the drain completed, seed "
          << config.seed
          << " (replay: TUFAST_STRESS_SEED=" << config.seed << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Invariant workloads: 7 schedulers x seeds, all under probabilistic
// fault injection + schedule perturbation. Odd seeds run every body with
// ordered ReadForUpdate acquisition, even seeds with read-then-upgrade.

template <typename Scheduler>
class InvariantStressTest : public ::testing::Test {};

using StressSchedulers = ::testing::Types<
    TuFastScheduler<FaultyHtm>, TwoPhaseLocking<FaultyHtm>,
    SiloOcc<FaultyHtm>, TimestampOrdering<FaultyHtm>, TinyStm<FaultyHtm>,
    HsyncHybrid<FaultyHtm>, HtmTimestampOrdering<FaultyHtm>>;
TYPED_TEST_SUITE(InvariantStressTest, StressSchedulers);

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

TYPED_TEST(InvariantStressTest, HoldsUnderChaos) {
  using Scheduler = TypeParam;
  const uint64_t iters = StressIters();
  for (uint64_t it = 0; it < iters; ++it) {
    const uint64_t seed = StressBaseSeed() + it;
    FaultyHtm htm;
    Scheduler tm(htm, /*vertices=*/48);
    FailpointPlan plan(ChaosConfig(seed));
    FailpointScope scope(plan);
    StressConfig cfg;
    cfg.threads = 3;
    cfg.txns_per_thread = 100;
    cfg.vertices = 48;
    cfg.seed = seed;
    cfg.ordered_for_update = seed % 2 == 1;
    if (auto err = RunInvariantSuite(tm, cfg)) {
      ADD_FAILURE() << *err << " [seed=" << seed
                    << "; replay: TUFAST_STRESS_SEED=" << seed
                    << " TUFAST_STRESS_ITERS=1]";
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial victim starvation: every transaction is forced into the
// lock path and then re-victimized with high probability, concentrated
// on a handful of hot vertices — exactly the adversary the progress
// guard's escalation ladder defends against. Every scheduler must still
// commit every transaction exactly once; the guard-backed schedulers
// (TuFast, 2PL) must additionally keep every transaction's failed
// attempts inside the configured retry bound (DESIGN.md "Progress
// guard": priority aging makes a starved slot immune to further
// injected victimization, the token guarantees the worst case commits).

template <typename Scheduler>
class StarvationStressTest : public ::testing::Test {};
TYPED_TEST_SUITE(StarvationStressTest, StressSchedulers);

template <typename S, typename = void>
struct SchedulerHasProgressGuard : std::false_type {};
template <typename S>
struct SchedulerHasProgressGuard<
    S, std::void_t<decltype(std::declval<S&>().progress_guard())>>
    : std::true_type {};

FailpointPlan::Config StarvationChaosConfig(uint64_t seed) {
  FailpointPlan::Config config;
  config.seed = seed;
  // Force the TuFast router past H and O: the starvation machinery lives
  // in the L retry loop. (Schedulers without these sites ignore them.)
  config.Arm(FailSite::kRouterSkipH, 1.0, FailAction::kFail);
  config.Arm(FailSite::kRouterSkipO, 1.0, FailAction::kFail);
  // Aggressive forced victimization plus re-victimization of the
  // transactions that already aborted.
  config.Arm(FailSite::kLockAcquireExclusive, 0.3, FailAction::kFail);
  config.Arm(FailSite::kVictimReabort, 0.5, FailAction::kFail);
  config.yield_prob = 0.1;
  return config;
}

// With priority aging, a transaction sees at most priority_threshold
// injected re-aborts before it becomes immune; what remains are genuine
// deadlock/timeout victimizations, bounded by the token threshold plus
// the in-flight waiters a token holder can still collide with. 64 gives
// that argument an order of magnitude of slack while still catching an
// unbounded-starvation regression (the injection alone would push an
// unguarded hot transaction far past it).
constexpr uint64_t kGuardedRetryBound = 64;

TYPED_TEST(StarvationStressTest, EveryTxnCommitsWithinTheRetryBound) {
  using Scheduler = TypeParam;
  const uint64_t iters = StressIters();
  for (uint64_t it = 0; it < iters; ++it) {
    const uint64_t seed = StressBaseSeed() + it;
    const std::string replay =
        std::string(" [seed=") + std::to_string(seed) +
        "; replay: TUFAST_STRESS_SEED=" + std::to_string(seed) +
        " TUFAST_STRESS_ITERS=1]";
    FaultyHtm htm;
    constexpr VertexId kVertices = 8;
    constexpr VertexId kHotVertices = 4;
    Scheduler tm(htm, kVertices);
    FailpointPlan plan(StarvationChaosConfig(seed));
    FailpointScope scope(plan);
    std::vector<TmWord> data(kVertices, 0);
    constexpr int kThreads = 3;
    constexpr int kEach = 120;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(seed * 31 + static_cast<uint64_t>(t));
        for (int i = 0; i < kEach; ++i) {
          // Single-vertex increments with write intent declared up
          // front.
          const VertexId v =
              static_cast<VertexId>(rng.NextBounded(kHotVertices));
          tm.Run(t, 2, [&](auto& txn) {
            txn.Write(v, &data[v], txn.ReadForUpdate(v, &data[v]) + 1);
          });
        }
      });
    }
    for (auto& th : threads) th.join();
    TmWord total = 0;
    for (VertexId v = 0; v < kVertices; ++v) {
      total += FaultyHtm::NonTxLoad(&data[v]);
    }
    constexpr uint64_t kTotalTxns = uint64_t{kThreads} * kEach;
    EXPECT_EQ(total, kTotalTxns)
        << "lost or duplicated increments under forced starvation"
        << replay;
    const SchedulerStats stats = tm.AggregatedStats();
    EXPECT_EQ(stats.commits, kTotalTxns)
        << "every transaction must eventually commit" << replay;
    if constexpr (SchedulerHasProgressGuard<Scheduler>::value) {
      EXPECT_GT(stats.deadlock_aborts, 0u)
          << "the injection never fired" << replay;
      EXPECT_GT(stats.starvation_escalations, 0u)
          << "sustained re-victimization must climb the ladder" << replay;
      EXPECT_LE(stats.max_txn_aborts, kGuardedRetryBound)
          << "escalation must bound the worst transaction's retries"
          << replay;
      auto& signals = tm.progress_guard().signals();
      EXPECT_FALSE(signals.AnyStarved())
          << "starved bits must be dropped at transaction end" << replay;
      EXPECT_FALSE(signals.TokenHeld())
          << "the starvation token leaked" << replay;
    }
  }
}

}  // namespace
}  // namespace tufast
