// Unit tests for the batch execution engine (tm/batch_executor.h +
// TuFastScheduler::RunBatch): group-commit fusion of consecutive small
// H transactions, capacity-aware bisection on abort, degradation to the
// per-item router at width 1, the adaptive fusion-width controller, the
// fused-commit accounting in SchedulerStats and telemetry, and the
// capacity-derived window budget.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "htm/emulated_htm.h"
#include "testing/failpoints.h"
#include "tm/batch_executor.h"
#include "tm/scheduler_2pl.h"
#include "tm/telemetry.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

constexpr VertexId kVertices = 256;

/// Drives `RunBatch` over [0, n) where item i increments values[i] once.
template <typename Scheduler>
void IncrementBatch(Scheduler& tm, std::vector<TmWord>& values, uint64_t n,
                    uint64_t hint = 2) {
  RunBatch(
      tm, /*worker_id=*/0, 0, n, [hint](uint64_t) { return hint; },
      [&](auto& txn, uint64_t i) {
        const VertexId v = static_cast<VertexId>(i);
        txn.Write(v, &values[v], txn.Read(v, &values[v]) + 1);
      });
}

TEST(BatchExecutorTest, FusedBatchCommitsEveryItemExactlyOnce) {
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 64);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(values[v], 1u) << "vertex " << v;
  }
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 64u);  // One logical commit per item.
  EXPECT_GT(stats.fused_regions, 0u);
  EXPECT_GT(stats.fused_items, 0u);
  EXPECT_EQ(stats.fusion_aborts, 0u);
}

TEST(BatchExecutorTest, NonFusionSchedulerFallsBackToPerItemRun) {
  // The free-function RunBatch must accept any scheduler; ones without a
  // RunBatch member (all six baselines) get per-item Run semantics.
  EmulatedHtm htm;
  TwoPhaseLocking<EmulatedHtm> tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 64);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(values[v], 1u) << "vertex " << v;
  }
}

TEST(BatchExecutorTest, FusionDisabledRoutesPerItem) {
  EmulatedHtm htm;
  TuFast::Config config;
  config.fixed_fusion_width = 1;  // Every item routed alone.
  TuFast tm(htm, kVertices, config);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 64);
  for (VertexId v = 0; v < 64; ++v) EXPECT_EQ(values[v], 1u);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 64u);
  EXPECT_EQ(stats.fused_regions, 0u);
  EXPECT_EQ(stats.fused_items, 0u);
}

TEST(BatchExecutorTest, FixedWidthPacksExactRegions) {
  EmulatedHtm htm;
  TuFast::Config config;
  config.fixed_fusion_width = 8;
  TuFast tm(htm, kVertices, config);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 64);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 64u);
  EXPECT_EQ(stats.fused_regions, 8u);  // 64 items / width 8.
  EXPECT_EQ(stats.fused_items, 64u);
}

TEST(BatchExecutorTest, OversizedHintsAreNotFused) {
  // Items above the H hint threshold route straight to the per-item
  // router (O/L); fusing them would guarantee capacity aborts.
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 16, /*hint=*/tm.h_hint_threshold() + 1);
  for (VertexId v = 0; v < 16; ++v) EXPECT_EQ(values[v], 1u);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 16u);
  EXPECT_EQ(stats.fused_regions, 0u);
}

TEST(BatchExecutorTest, BudgetCapsFusionWidth) {
  // Cumulative size hints within one fused region must stay inside the
  // H capacity budget: items of hint = threshold/2 can pack at most 2.
  EmulatedHtm htm;
  TuFast::Config config;
  config.fixed_fusion_width = 16;
  TuFast tm(htm, kVertices, config);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 8, /*hint=*/tm.h_hint_threshold() / 2);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 8u);
  EXPECT_EQ(stats.fused_regions, 4u);  // Pairs, despite fixed width 16.
  EXPECT_EQ(stats.fused_items, 8u);
}

TEST(BatchExecutorTest, StatsAndTelemetryAgreeOnFusedCommits) {
  // Every committed fused region adds one width and one bisection-depth
  // sample beside its SchedulerStats count; every item routed alone adds
  // one commit-latency sample.
  EmulatedHtm htm;
  TuFastInstrumented tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 64);
  const SchedulerStats stats = tm.AggregatedStats();
  const TelemetrySnapshot& snap = tm.AggregatedTelemetry().Snapshot();
  EXPECT_GT(stats.fused_regions, 0u);
  EXPECT_EQ(snap.fusion_width_hist.count(), stats.fused_regions);
  EXPECT_EQ(snap.fusion_width_hist.sum(), stats.fused_items);
  EXPECT_EQ(snap.bisection_depth_hist.count(), stats.fused_regions);
  EXPECT_EQ(stats.fusion_aborts, 0u);
  EXPECT_EQ(snap.commit_latency_ns[static_cast<int>(TxnClass::kH)].count(),
            stats.class_count[static_cast<int>(TxnClass::kH)] -
                stats.fused_items);
}

TEST(BatchExecutorTest, ForcedCapacityAbortBisectsAndCommitsAll) {
  // Force a capacity abort on the 8th transactional store of worker 0 —
  // mid-way through the first 16-wide fused region. The executor must
  // bisect (16 -> 8+8), re-execute, and commit every item exactly once.
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm, EventTelemetry>::Config config;
  config.fixed_fusion_width = 16;
  TuFastScheduler<FaultyHtm, EventTelemetry> tm(htm, kVertices, config);
  std::vector<TmWord> values(kVertices, 0);
  FailpointPlan plan(FailpointPlan::Config{});
  plan.ForceAt(FailSite::kHtmStore, /*slot=*/0, /*hit_index=*/7,
               FailAction::kAbortCapacity);
  {
    FailpointScope scope(plan);
    IncrementBatch(tm, values, 16);
  }
  for (VertexId v = 0; v < 16; ++v) {
    EXPECT_EQ(values[v], 1u) << "vertex " << v;
  }
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 16u);
  EXPECT_EQ(stats.fusion_aborts, 1u);
  EXPECT_GE(stats.fusion_bisections, 1u);
  EXPECT_EQ(stats.fused_regions, 2u);  // Two 8-wide halves committed.
  EXPECT_EQ(stats.fused_items, 16u);
  const TelemetrySnapshot& snap = tm.AggregatedTelemetry().Snapshot();
  EXPECT_GE(snap.bisection_depth_hist.max(), 1u);  // Committed at depth 1.
}

TEST(BatchExecutorTest, PersistentCapacityAbortsDegradeToPerItemRouter) {
  // A hostile plan that capacity-aborts ~30% of transactional stores:
  // fused attempts keep failing, bisection must bottom out at width 1
  // where the per-item router's own H -> O -> L fallback guarantees
  // progress. The run must terminate (no livelock) with every item
  // committed exactly once.
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm> tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  FailpointPlan::Config plan_config;
  plan_config.seed = 11;
  plan_config.Arm(FailSite::kHtmStore, 0.3, FailAction::kAbortCapacity);
  FailpointPlan plan(plan_config);
  {
    FailpointScope scope(plan);
    IncrementBatch(tm, values, 128);
  }
  for (VertexId v = 0; v < 128; ++v) {
    EXPECT_EQ(values[v], 1u) << "vertex " << v;
  }
  EXPECT_EQ(tm.AggregatedStats().commits, 128u);
  EXPECT_GT(plan.InjectionCount(), 0u);
}

/// One worker runs RunBatch over `items` items; item i reads `reads`
/// random words, each under a random vertex's lock, and then increments
/// its own counter, with hint reads + 1: two independent random lines
/// (lock word + data) per hinted op, the premise of CapacityOptimalOps.
/// The data word is drawn apart from the vertex because two page-aligned
/// vertex-indexed arrays of 8-byte words put a vertex's lock word and
/// data word in the same set of the 64-set model (the set index is the
/// line's page offset), which halves the effective associativity. Checks
/// every item committed exactly once and returns the run's stats.
SchedulerStats RunRandomReadBatch(uint64_t h_hint_threshold, uint64_t items,
                                  uint32_t reads) {
  constexpr VertexId kSpread = 1 << 16;
  EmulatedHtm htm;
  TuFast::Config config;
  config.h_hint_threshold = h_hint_threshold;
  TuFast tm(htm, kSpread, config);
  std::vector<TmWord> data(kSpread, 0);
  std::vector<TmWord> counts(items, 0);
  std::vector<VertexId> vertices(items * reads);
  std::vector<uint32_t> words(items * reads);
  Rng rng(2019);
  for (uint64_t r = 0; r < items * reads; ++r) {
    vertices[r] = static_cast<VertexId>(rng.NextBounded(kSpread));
    words[r] = static_cast<uint32_t>(rng.NextBounded(kSpread));
  }
  tm.RunBatch(
      0, 0, items, [reads](uint64_t) { return uint64_t{reads} + 1; },
      [&](auto& txn, uint64_t i) {
        for (uint64_t r = i * reads; r < (i + 1) * reads; ++r) {
          txn.Read(vertices[r], &data[words[r]]);
        }
        const VertexId v = static_cast<VertexId>(i);
        txn.Write(v, &counts[i], txn.Read(v, &counts[i]) + 1);
      });
  for (uint64_t i = 0; i < items; ++i) {
    EXPECT_EQ(counts[i], 1u) << "item " << i;
  }
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, items);
  return stats;
}

TEST(BatchExecutorTest, CapacityBudgetKeepsFusedWindowsInTheCache) {
  // Windows packed to the default budget (CapacityOptimalOps) mostly fit
  // the modeled cache; windows packed to the old half-capacity budget
  // (MaxLines()/2 hinted ops = ~MaxLines() random lines) almost never do
  // and pay capacity aborts plus bisection.
  constexpr uint64_t kItems = 1000;
  constexpr uint32_t kReads = 15;
  const SchedulerStats fitted = RunRandomReadBatch(0, kItems, kReads);
  const SchedulerStats half =
      RunRandomReadBatch(HtmConfig{}.MaxLines() / 2, kItems, kReads);
  ASSERT_GT(fitted.fused_regions, 0u);
  EXPECT_LE(fitted.capacity_aborts * 4, fitted.fused_regions)
      << "capacity aborts " << fitted.capacity_aborts << " vs fused regions "
      << fitted.fused_regions;
  EXPECT_GE(half.capacity_aborts,
            5 * std::max<uint64_t>(fitted.capacity_aborts, 1))
      << "half-capacity budget: " << half.capacity_aborts
      << " capacity aborts; derived budget: " << fitted.capacity_aborts;
}

TEST(BatchExecutorTest, AdaptiveWidthShrinksUnderFusedAborts) {
  ContentionMonitor monitor;
  EXPECT_EQ(monitor.CurrentFusionWidth(16), 16u);  // No signal: go wide.
  // Every 2-wide attempt aborts: per-item abort probability 1/2, whose
  // P* = -1/ln(0.5) ~ 1.44 rounds down to width 1 — fuse nothing.
  for (int i = 0; i < 2000; ++i) {
    monitor.RecordFusedAttempt(/*items=*/2, /*aborted=*/true);
  }
  EXPECT_EQ(monitor.CurrentFusionWidth(16), 1u);
  EXPECT_GT(monitor.EstimatedItemP(), 0.05);
  // Wider failing attempts imply a lower per-item p, so the width floor
  // rises with the attempt width (P* of p = 1/8 is ~7): the controller
  // distinguishes "every region dies" from "every item dies".
  ContentionMonitor wide;
  for (int i = 0; i < 2000; ++i) {
    wide.RecordFusedAttempt(/*items=*/8, /*aborted=*/true);
  }
  EXPECT_GT(wide.CurrentFusionWidth(16), 1u);
  EXPECT_LT(wide.CurrentFusionWidth(16), 16u);
}

TEST(BatchExecutorTest, AdaptiveWidthRecoversWhenAbortsStop) {
  ContentionMonitor monitor;
  for (int i = 0; i < 200; ++i) {
    monitor.RecordFusedAttempt(/*items=*/8, /*aborted=*/true);
  }
  const uint32_t hot = monitor.CurrentFusionWidth(16);
  for (int i = 0; i < 5000; ++i) {
    monitor.RecordFusedAttempt(/*items=*/8, /*aborted=*/false);
  }
  EXPECT_GT(monitor.CurrentFusionWidth(16), hot);
  EXPECT_EQ(monitor.CurrentFusionWidth(1), 1u);  // Clamp floor.
}

TEST(BatchExecutorTest, ZeroItemAttemptCountsAsOne) {
  ContentionMonitor monitor;
  monitor.RecordFusedAttempt(0, true);  // Must not divide by zero.
  EXPECT_GE(monitor.EstimatedItemP(), 0.0);
  EXPECT_LE(monitor.EstimatedItemP(), 1.0);
  EXPECT_GE(monitor.CurrentFusionWidth(16), 1u);
}

TEST(BatchExecutorTest, EmptyAndSingleItemBatches) {
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 0);  // Empty range: no-op.
  EXPECT_EQ(tm.AggregatedStats().commits, 0u);
  IncrementBatch(tm, values, 1);  // Width 1: per-item semantics.
  EXPECT_EQ(values[0], 1u);
  EXPECT_EQ(tm.AggregatedStats().commits, 1u);
  EXPECT_EQ(tm.AggregatedStats().fused_regions, 0u);
}

}  // namespace
}  // namespace tufast
