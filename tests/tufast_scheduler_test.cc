// Core TuFast scheduler tests: routing across H/O/L, commit semantics in
// each mode, user aborts, capacity escalation, the L gate (one L
// transaction at a time on every path into L, so no deadlocks),
// multi-threaded invariant preservation, the lock table's held count
// across every L exit, the elided-attempt count, and the
// capacity-derived H/O budgets.

#include <algorithm>
#include <atomic>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/pagerank.h"
#include "graph/generators.h"
#include "htm/emulated_htm.h"
#include "runtime/thread_pool.h"
#include "testing/failpoints.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

class TuFastTest : public ::testing::Test {
 protected:
  static constexpr VertexId kVertices = 1024;
  EmulatedHtm htm_;
  TuFast tm_{htm_, kVertices};
  std::vector<TmWord> data_ = std::vector<TmWord>(kVertices, 0);
};

TEST_F(TuFastTest, SmallTransactionCommitsInHMode) {
  const RunOutcome outcome = tm_.Run(0, /*size_hint=*/2, [&](auto& txn) {
    const TmWord v = txn.Read(3, &data_[3]);
    txn.Write(3, &data_[3], v + 1);
  });
  EXPECT_TRUE(outcome.committed);
  EXPECT_EQ(outcome.cls, TxnClass::kH);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[3]), 1u);
  const SchedulerStats stats = tm_.AggregatedStats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kH)], 1u);
}

TEST_F(TuFastTest, LargeHintRoutesDirectlyToLockMode) {
  const RunOutcome outcome =
      tm_.Run(0, tm_.config().o_hint_threshold + 1, [&](auto& txn) {
        txn.Write(7, &data_[7], 42);
      });
  EXPECT_TRUE(outcome.committed);
  EXPECT_EQ(outcome.cls, TxnClass::kL);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[7]), 42u);
}

TEST_F(TuFastTest, MediumHintRoutesToOMode) {
  const RunOutcome outcome =
      tm_.Run(0, tm_.h_hint_threshold() + 1, [&](auto& txn) {
        const TmWord v = txn.Read(5, &data_[5]);
        txn.Write(5, &data_[5], v + 9);
      });
  EXPECT_TRUE(outcome.committed);
  EXPECT_EQ(outcome.cls, TxnClass::kO);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[5]), 9u);
}

TEST_F(TuFastTest, UserAbortIsFinalAndDiscardsWrites) {
  for (const uint64_t hint :
       {uint64_t{1}, tm_.h_hint_threshold() + 1,
        tm_.config().o_hint_threshold + 1}) {
    int invocations = 0;
    const RunOutcome outcome = tm_.Run(0, hint, [&](auto& txn) {
      ++invocations;
      txn.Write(1, &data_[1], 99);
      txn.Abort();
    });
    EXPECT_FALSE(outcome.committed);
    EXPECT_EQ(invocations, 1) << "user abort must not be retried";
    EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[1]), 0u);
  }
}

TEST_F(TuFastTest, ReadOwnWriteInAllModes) {
  for (const uint64_t hint :
       {uint64_t{1}, tm_.h_hint_threshold() + 1,
        tm_.config().o_hint_threshold + 1}) {
    const RunOutcome outcome = tm_.Run(0, hint, [&](auto& txn) {
      txn.Write(2, &data_[2], 1234);
      EXPECT_EQ(txn.Read(2, &data_[2]), 1234u);
      txn.Write(2, &data_[2], 5678);
      EXPECT_EQ(txn.Read(2, &data_[2]), 5678u);
    });
    EXPECT_TRUE(outcome.committed);
    EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[2]), 5678u);
    data_[2] = 0;
  }
}

TEST_F(TuFastTest, CapacityOverflowEscalatesFromHToO) {
  // Hint says "small" but the body touches far more lines than the L1
  // model admits: H aborts with capacity and must NOT retry H; O mode
  // (software read set, bounded segments) commits it.
  const uint32_t lines = htm_.config().MaxLines();
  ASSERT_LT(lines * 8, data_.size() * 8);  // enough data words
  std::vector<TmWord> big(lines * 8 * 2, 1);
  const RunOutcome outcome = tm_.Run(0, /*size_hint=*/1, [&](auto& txn) {
    TmWord sum = 0;
    for (size_t i = 0; i < big.size(); i += 8) {
      sum += txn.Read(static_cast<VertexId>(i % kVertices), &big[i]);
    }
    txn.Write(0, &data_[0], sum);
  });
  EXPECT_TRUE(outcome.committed);
  EXPECT_TRUE(outcome.cls == TxnClass::kO || outcome.cls == TxnClass::kOPlus);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[0]), big.size() / 8);
  const SchedulerStats stats = tm_.AggregatedStats();
  EXPECT_GE(stats.capacity_aborts, 1u);
}

TEST_F(TuFastTest, DoubleHelpersRoundTrip) {
  std::vector<double> values(kVertices, 0.0);
  const RunOutcome outcome = tm_.Run(0, 2, [&](auto& txn) {
    txn.WriteDouble(4, &values[4], 0.15);
    const double x = txn.ReadDouble(4, &values[4]);
    txn.WriteDouble(4, &values[4], x * 2);
  });
  EXPECT_TRUE(outcome.committed);
  EXPECT_DOUBLE_EQ(values[4], 0.30);
}

TEST_F(TuFastTest, ConcurrentTransfersPreserveTotal) {
  constexpr int kThreads = 4;
  constexpr int kTransfersEach = 800;
  constexpr TmWord kInitial = 1000;
  for (auto& d : data_) d = kInitial;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kTransfersEach; ++i) {
        const VertexId from = static_cast<VertexId>(rng.NextBounded(64));
        VertexId to = static_cast<VertexId>(rng.NextBounded(63));
        if (to >= from) ++to;
        // Mix modes by varying the hint.
        const uint64_t hint = (i % 3 == 0) ? tm_.h_hint_threshold() + 1
                              : (i % 7 == 0)
                                  ? tm_.config().o_hint_threshold + 1
                                  : 2;
        tm_.Run(t, hint, [&](auto& txn) {
          const TmWord a = txn.Read(from, &data_[from]);
          const TmWord b = txn.Read(to, &data_[to]);
          txn.Write(from, &data_[from], a - 1);
          txn.Write(to, &data_[to], b + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();

  TmWord total = 0;
  for (VertexId v = 0; v < 64; ++v) total += EmulatedHtm::NonTxLoad(&data_[v]);
  EXPECT_EQ(total, 64 * kInitial);
  const SchedulerStats stats = tm_.AggregatedStats();
  EXPECT_EQ(stats.commits,
            static_cast<uint64_t>(kThreads) * kTransfersEach);
}

TEST_F(TuFastTest, OppositeOrderLockTransactionsResolveDeadlock) {
  constexpr int kRounds = 300;
  const uint64_t l_hint = tm_.config().o_hint_threshold + 1;
  std::thread t1([&] {
    for (int i = 0; i < kRounds; ++i) {
      tm_.Run(0, l_hint, [&](auto& txn) {
        const TmWord a = txn.Read(10, &data_[10]);
        txn.Write(11, &data_[11], a + 1);
        txn.Write(10, &data_[10], a + 1);
      });
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < kRounds; ++i) {
      tm_.Run(1, l_hint, [&](auto& txn) {
        const TmWord b = txn.Read(11, &data_[11]);
        txn.Write(10, &data_[10], b + 1);
        txn.Write(11, &data_[11], b + 1);
      });
    }
  });
  t1.join();
  t2.join();
  const SchedulerStats stats = tm_.AggregatedStats();
  EXPECT_EQ(stats.commits, 2u * kRounds);  // Every transaction finished.
}

// ---------------------------------------------------------------------
// The L gate: TuFast admits one L transaction at a time, so reverse-order
// lock transactions cannot deadlock, and no path into L bypasses it.

TEST(LGateTest, ReverseOrderLockTxnsNeverDeadlock) {
  EmulatedHtm htm;
  TuFast tm(htm, 64);
  std::vector<TmWord> data(64, 0);
  constexpr int kThreads = 4;
  constexpr int kEach = 150;
  const uint64_t l_hint = tm.config().o_hint_threshold + 1;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Even workers take vertex 0 then 1, odd ones 1 then 0; each reads
      // both (shared) before writing both (upgrades): without the gate,
      // a deadlock-prone pattern.
      const VertexId first = t % 2 == 0 ? 0 : 1;
      const VertexId second = 1 - first;
      for (int i = 0; i < kEach; ++i) {
        tm.Run(t, l_hint, [&](auto& txn) {
          const TmWord a = txn.Read(first, &data[first]);
          std::this_thread::yield();
          const TmWord b = txn.Read(second, &data[second]);
          txn.Write(first, &data[first], a + 1);
          txn.Write(second, &data[second], b + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  constexpr uint64_t kTotal = uint64_t{kThreads} * kEach;
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data[0]), kTotal);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data[1]), kTotal);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kL)], kTotal);
  EXPECT_EQ(stats.deadlock_aborts, 0u);
  EXPECT_FALSE(tm.l_gate().Busy());
}

/// The four paths into L mode.
enum class LEntry { kHugeHint, kBreakerBypass, kODisabled, kOFallThrough };

class LGateEntryTest : public ::testing::TestWithParam<LEntry> {};

TEST_P(LGateEntryTest, AdmitsOneLockTxnAtATime) {
  using Scheduler = TuFastScheduler<FaultyHtm>;
  Scheduler::Config config;
  FailpointPlan::Config plan_config;
  uint64_t hint = 2;
  switch (GetParam()) {
    case LEntry::kHugeHint:
      hint = config.o_hint_threshold + 1;
      break;
    case LEntry::kBreakerBypass:
      // Every routed transaction trips the breaker, so each one bypasses.
      plan_config.Arm(FailSite::kBreakerTrip, 1.0, FailAction::kFail);
      break;
    case LEntry::kODisabled:
      config.enable_h_mode = false;
      config.enable_o_mode = false;
      break;
    case LEntry::kOFallThrough:
      // Every O segment aborts at commit; period 100 halves below
      // min_period after one attempt and the transaction falls to L.
      config.enable_h_mode = false;
      plan_config.Arm(FailSite::kHtmCommit, 1.0, FailAction::kAbortConflict);
      break;
  }
  FaultyHtm htm;
  Scheduler tm(htm, 64, config);
  std::vector<TmWord> data(64, 0);
  FailpointPlan plan(plan_config);
  FailpointScope scope(plan);
  std::atomic<int> in_l{0};
  std::atomic<int> max_in_l{0};
  constexpr int kThreads = 4;
  constexpr int kEach = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each worker owns its vertex: nothing but the gate serializes them.
      const VertexId v = static_cast<VertexId>(t);
      for (int i = 0; i < kEach; ++i) {
        tm.Run(t, hint, [&](auto& txn) {
          if constexpr (std::is_same_v<std::decay_t<decltype(txn)>,
                                       LTxn<FaultyHtm>>) {
            const int now = in_l.fetch_add(1) + 1;
            int seen = max_in_l.load();
            while (now > seen && !max_in_l.compare_exchange_weak(seen, now)) {
            }
            struct Leave {
              std::atomic<int>& count;
              ~Leave() { count.fetch_sub(1); }
            } leave{in_l};
            std::this_thread::yield();
            txn.Write(v, &data[v], txn.Read(v, &data[v]) + 1);
          } else {
            txn.Write(v, &data[v], txn.Read(v, &data[v]) + 1);
          }
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(max_in_l.load(), 1) << "concurrent LTxn bodies";
  for (VertexId v = 0; v < kThreads; ++v) {
    EXPECT_EQ(FaultyHtm::NonTxLoad(&data[v]), TmWord{kEach});
  }
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kL)] +
                stats.class_count[static_cast<int>(TxnClass::kO2L)],
            uint64_t{kThreads} * kEach)
      << "every transaction must have entered L through this path";
  EXPECT_FALSE(tm.l_gate().Busy());
}

INSTANTIATE_TEST_SUITE_P(
    Paths, LGateEntryTest,
    ::testing::Values(LEntry::kHugeHint, LEntry::kBreakerBypass,
                      LEntry::kODisabled, LEntry::kOFallThrough),
    [](const auto& info) {
      switch (info.param) {
        case LEntry::kHugeHint: return "HugeHint";
        case LEntry::kBreakerBypass: return "BreakerBypass";
        case LEntry::kODisabled: return "ODisabled";
        case LEntry::kOFallThrough: return "OFallThrough";
      }
      return "Unknown";
    });

// Every exit of an L transaction returns the lock table's held count to
// 0: a count that never does would turn lock elision off for good.
TEST(LockHeldCountTest, EveryLockModeExitReturnsTheCount) {
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm> tm(htm, 64);
  std::vector<TmWord> data(64, 0);
  const uint64_t big = tm.config().o_hint_threshold + 1;
  const auto body = [&](auto& txn) {
    for (VertexId v = 1; v <= 3; ++v) {
      txn.Write(v, &data[v], txn.ReadForUpdate(v, &data[v]) + 1);
    }
  };
  EXPECT_TRUE(tm.Run(0, big, body).committed);
  EXPECT_EQ(tm.lock_table().HeldCount(), 0u) << "commit";
  {
    // The second exclusive acquisition is a forced victim, with the
    // first lock held; the retry commits.
    FailpointPlan plan(FailpointPlan::Config{});
    plan.ForceAt(FailSite::kLockAcquireExclusive, /*slot=*/0,
                 /*hit_index=*/1, FailAction::kFail);
    FailpointScope scope(plan);
    EXPECT_TRUE(tm.Run(0, big, body).committed);
  }
  EXPECT_EQ(tm.AggregatedStats().deadlock_aborts, 1u);
  EXPECT_EQ(tm.lock_table().HeldCount(), 0u) << "victim retry";
  EXPECT_FALSE(tm.Run(0, big, [&](auto& txn) {
                   (void)txn.ReadForUpdate(4, &data[4]);
                   (void)txn.Read(5, &data[5]);
                   txn.Abort();
                 }).committed);
  EXPECT_EQ(tm.lock_table().HeldCount(), 0u) << "user abort";
  EXPECT_THROW(tm.Run(0, big,
                      [&](auto& txn) {
                        (void)txn.ReadForUpdate(4, &data[4]);
                        (void)txn.Read(5, &data[5]);
                        throw std::runtime_error("body failure");
                      }),
               std::runtime_error);
  EXPECT_EQ(tm.lock_table().HeldCount(), 0u) << "foreign exception";
  EXPECT_EQ(FaultyHtm::NonTxLoad(&data[1]), 2u);
}

// elided_attempts shows where the property lock elision rests on holds:
// one worker never sees a foreign lock episode, so every hardware
// transaction of an in-place PageRank elides (its own O commits and L
// transactions do not count); a lock held throughout disables elision.
TEST(ElidedAttemptsTest, OneWorkerPageRankElidesEveryAttempt) {
  const Graph graph = GenerateRmat(10, 8, 17);
  const Graph reversed = graph.Reversed();
  ThreadPool pool(1);
  EmulatedHtm htm;
  TuFast tm(htm, graph.NumVertices());
  PageRankTm(tm, pool, graph, reversed, {.max_iterations = 3});
  const SchedulerStats stats = tm.AggregatedStats();
  const uint64_t o_commits =
      stats.class_count[static_cast<int>(TxnClass::kO)] +
      stats.class_count[static_cast<int>(TxnClass::kOPlus)];
  EXPECT_GT(o_commits, 0u) << "the graph's hubs must reach O mode";
  EXPECT_GT(stats.elided_attempts, 0u);
  EXPECT_EQ(stats.elided_attempts, tm.AggregatedHtmStats().begins);
  EXPECT_EQ(tm.lock_table().HeldCount(), 0u);
}

TEST(ElidedAttemptsTest, HeldUnrelatedLockElidesNone) {
  const Graph graph = GenerateRmat(10, 8, 17);
  const Graph reversed = graph.Reversed();
  ThreadPool pool(1);
  EmulatedHtm htm;
  // One vertex past the graph, so no transaction touches its lock.
  const VertexId unrelated = graph.NumVertices();
  TuFast tm(htm, unrelated + 1);
  ASSERT_TRUE(tm.lock_table().TryLockShared(unrelated));
  PageRankTm(tm, pool, graph, reversed, {.max_iterations = 3});
  EXPECT_GT(tm.AggregatedHtmStats().begins, 0u);
  EXPECT_EQ(tm.AggregatedStats().elided_attempts, 0u);
  tm.lock_table().UnlockShared(unrelated);
  EXPECT_EQ(tm.lock_table().HeldCount(), 0u);
}

TEST_F(TuFastTest, StatsClassBreakdownIsConsistent) {
  for (int i = 0; i < 50; ++i) {
    const uint64_t hint = (i % 2 == 0) ? 1 : tm_.h_hint_threshold() + 1;
    tm_.Run(0, hint, [&](auto& txn) {
      const TmWord v = txn.Read(9, &data_[9]);
      txn.Write(9, &data_[9], v + 1);
    });
  }
  const SchedulerStats stats = tm_.AggregatedStats();
  uint64_t class_total = 0, class_ops = 0;
  for (int c = 0; c < static_cast<int>(TxnClass::kNumClasses); ++c) {
    class_total += stats.class_count[c];
    class_ops += stats.class_ops[c];
  }
  EXPECT_EQ(class_total, stats.commits);
  EXPECT_EQ(class_ops, stats.ops_committed);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[9]), 50u);
}

TEST(ContentionMonitorTest, OptimalPeriodMatchesAnalyticFormula) {
  // P* = -1/ln(1-p): spot-check against directly maximizing (1-p)^P * P.
  for (const double p : {0.001, 0.005, 0.01, 0.05}) {
    const uint32_t p_star = OptimalPeriod(p, 1, 1u << 20);
    auto expected_work = [p](uint32_t period) {
      return std::pow(1.0 - p, period) * period;
    };
    EXPECT_GE(expected_work(p_star), expected_work(p_star * 2) * 0.999);
    EXPECT_GE(expected_work(p_star), expected_work(p_star / 2) * 0.999);
  }
  EXPECT_EQ(OptimalPeriod(0.0, 100, 2048), 2048u);
  EXPECT_EQ(OptimalPeriod(1.0, 100, 2048), 100u);
}

TEST(ContentionMonitorTest, AdaptsPeriodToObservedAborts) {
  ContentionMonitor monitor;
  EXPECT_EQ(monitor.CurrentPeriod(), monitor.config().max_period);
  // Sustained aborts shrink the period.
  for (int i = 0; i < 200; ++i) monitor.RecordAttempt(50, /*aborted=*/true);
  const uint32_t contended = monitor.CurrentPeriod();
  EXPECT_LT(contended, monitor.config().max_period);
  // A calm phase grows it back.
  for (int i = 0; i < 5000; ++i) monitor.RecordAttempt(50, /*aborted=*/false);
  EXPECT_GT(monitor.CurrentPeriod(), contended);
}

// ---------------------------------------------------------------------
// Capacity budgets: the H threshold (which also bounds a fused window's
// summed hints) and the O max period derive from the modeled cache.

/// Runs one tiny transaction on worker 0 so its slot (and monitor)
/// exists, then returns that monitor's config.
template <typename Scheduler>
ContentionMonitor::Config WorkerMonitorConfig(Scheduler& tm) {
  TmWord word = 0;
  tm.Run(0, 1, [&](auto& txn) { txn.Write(0, &word, 1); });
  const ContentionMonitor* monitor = tm.MonitorForWorker(0);
  EXPECT_NE(monitor, nullptr);
  return monitor != nullptr ? monitor->config() : ContentionMonitor::Config{};
}

TEST(TuFastCapacityBudgetTest, DefaultsDeriveFromCapacityOptimalOps) {
  EmulatedHtm htm;
  TuFast tm(htm, 64);
  const uint32_t c = CapacityOptimalOps(htm.config());
  EXPECT_EQ(tm.h_hint_threshold(), c);
  const ContentionMonitor::Config mc = WorkerMonitorConfig(tm);
  EXPECT_EQ(mc.max_period, std::max(tm.config().min_period, c));
  EXPECT_EQ(mc.min_period, tm.config().min_period);
}

TEST(TuFastCapacityBudgetTest, DerivationFollowsTheGeometry) {
  // A 32 x 8 cache has a smaller optimum; with min_period below it the
  // O max period is the optimum itself.
  HtmConfig small;
  small.num_sets = 32;
  EmulatedHtm htm(small);
  TuFast::Config config;
  config.min_period = 10;
  TuFast tm(htm, 64, config);
  const uint32_t c = CapacityOptimalOps(small);
  EXPECT_LT(c, CapacityOptimalOps(HtmConfig{}));
  EXPECT_EQ(tm.h_hint_threshold(), c);
  EXPECT_EQ(WorkerMonitorConfig(tm).max_period, c);
}

TEST(TuFastCapacityBudgetTest, ExplicitConfigValuesWin) {
  EmulatedHtm htm;
  TuFast::Config config;
  config.h_hint_threshold = 300;
  config.max_period = 1000;
  TuFast tm(htm, 64, config);
  EXPECT_EQ(tm.h_hint_threshold(), 300u);
  EXPECT_EQ(WorkerMonitorConfig(tm).max_period, 1000u);
}

TEST(TuFastCapacityBudgetTest, MinPeriodAboveTheOptimumIsAccepted) {
  // max_period defaults to max(min_period, C), so a min_period above C
  // must not trip the max_period >= min_period check.
  EmulatedHtm htm;
  TuFast::Config config;
  config.min_period = CapacityOptimalOps(htm.config()) + 50;
  TuFast tm(htm, 64, config);
  const ContentionMonitor::Config mc = WorkerMonitorConfig(tm);
  EXPECT_EQ(mc.max_period, config.min_period);
  EXPECT_EQ(mc.min_period, config.min_period);
}

}  // namespace
}  // namespace tufast
