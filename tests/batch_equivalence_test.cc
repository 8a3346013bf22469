// Batched-vs-unbatched equivalence under fault injection (the `stress`
// ctest label): every batch-converted algorithm must produce
// bit-identical results on all seven schedulers, and on TuFast with
// fusion on and off (width 1), while failpoints force capacity aborts
// through the fused regions. The runs use a single-threaded pool, which
// makes each execution fully deterministic: fusing consecutive per-vertex
// transactions into one H region (or bisecting it back apart) must then
// be a pure performance transformation with no observable effect.
//
// Golden results come from the plain EmulatedHtm TuFast scheduler with
// no failpoints installed — the configuration the correctness of which
// the rest of the suite already establishes.

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/coloring.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "graph/generators.h"
#include "htm/emulated_htm.h"
#include "runtime/thread_pool.h"
#include "testing/failpoints.h"
#include "testing/stress_workloads.h"

namespace tufast {
namespace {

struct AlgoResults {
  std::vector<double> pagerank;
  std::vector<TmWord> wcc;
  std::vector<TmWord> sssp;
  std::vector<TmWord> kcore;
  std::vector<TmWord> colors;
};

struct TestGraphs {
  Graph directed;
  Graph reversed;
  Graph undirected;
};

const TestGraphs& SharedGraphs() {
  static const TestGraphs* graphs = [] {
    auto* g = new TestGraphs;
    g->directed = GenerateRmat(/*scale=*/7, /*avg_degree=*/8, /*seed=*/99,
                               {.weighted = true});
    g->reversed = g->directed.Reversed();
    g->undirected = g->directed.Undirected();
    return g;
  }();
  return *graphs;
}

template <typename Scheduler>
AlgoResults RunConvertedAlgorithms(Scheduler& tm, ThreadPool& pool) {
  const TestGraphs& g = SharedGraphs();
  AlgoResults r;
  PageRankOptions pr;
  pr.max_iterations = 12;
  pr.tolerance = 1e-12;
  r.pagerank = PageRankTm(tm, pool, g.directed, g.reversed, pr).ranks;
  r.wcc = WccTm(tm, pool, g.undirected);
  r.sssp = SsspTm(tm, pool, g.directed, /*source=*/0);
  r.kcore = KCoreTm(tm, pool, g.undirected);
  r.colors = GreedyColoringTm(tm, pool, g.undirected);
  return r;
}

const AlgoResults& GoldenResults() {
  static const AlgoResults* golden = [] {
    EmulatedHtm htm;
    TuFast tm(htm, SharedGraphs().directed.NumVertices());
    ThreadPool pool(1);
    return new AlgoResults(RunConvertedAlgorithms(tm, pool));
  }();
  return *golden;
}

void ExpectBitIdentical(const AlgoResults& got, const std::string& label) {
  const AlgoResults& want = GoldenResults();
  EXPECT_EQ(got.pagerank, want.pagerank) << label << ": PageRank diverged";
  EXPECT_EQ(got.wcc, want.wcc) << label << ": WCC diverged";
  EXPECT_EQ(got.sssp, want.sssp) << label << ": SSSP diverged";
  EXPECT_EQ(got.kcore, want.kcore) << label << ": k-core diverged";
  EXPECT_EQ(got.colors, want.colors) << label << ": coloring diverged";
}

/// Capacity-abort-heavy plan: fused H regions keep dying mid-flight, so
/// the bisection fallback and the per-item H -> O -> L router both stay
/// on the critical path for the whole run.
FailpointPlan::Config CapacityChaos(uint64_t seed) {
  FailpointPlan::Config config;
  config.seed = seed;
  config.Arm(FailSite::kHtmStore, 0.02, FailAction::kAbortCapacity);
  config.Arm(FailSite::kHtmLoad, 0.005, FailAction::kAbortConflict);
  config.Arm(FailSite::kHtmCommit, 0.005, FailAction::kAbortConflict);
  config.Arm(FailSite::kRouterSkipH, 0.02, FailAction::kFail);
  // Lock-layer faults so the pure-software baselines (2PL, OCC, STM,
  // TO) also retry through injected failures, not just the HTM users.
  config.Arm(FailSite::kLockAcquireShared, 0.002, FailAction::kFail);
  config.Arm(FailSite::kLockAcquireExclusive, 0.005, FailAction::kFail);
  config.Arm(FailSite::kLockTryExclusive, 0.005, FailAction::kFail);
  return config;
}

template <typename Scheduler>
class BatchEquivalenceTest : public ::testing::Test {};

using EquivalenceSchedulers = ::testing::Types<
    TuFastScheduler<FaultyHtm>, TwoPhaseLocking<FaultyHtm>,
    SiloOcc<FaultyHtm>, TimestampOrdering<FaultyHtm>, TinyStm<FaultyHtm>,
    HsyncHybrid<FaultyHtm>, HtmTimestampOrdering<FaultyHtm>>;
TYPED_TEST_SUITE(BatchEquivalenceTest, EquivalenceSchedulers);

TYPED_TEST(BatchEquivalenceTest, BitIdenticalUnderForcedCapacityAborts) {
  using Scheduler = TypeParam;
  const VertexId n = SharedGraphs().directed.NumVertices();
  ThreadPool pool(1);

  FaultyHtm htm;
  auto tm = MakeSchedulerFor<Scheduler>(htm, n, DeadlockPolicy::kDetection);
  FailpointPlan plan(CapacityChaos(/*seed=*/5));
  FailpointScope scope(plan);
  ExpectBitIdentical(RunConvertedAlgorithms(*tm, pool), "default config");
  // Not every baseline is guaranteed to cross an armed site (pure
  // timestamp ordering may touch neither HTM nor locks), so only the
  // fusion-capable scheduler — whose fused H regions definitely hit the
  // HTM sites — must show fired injections.
  if constexpr (std::is_same_v<Scheduler, TuFastScheduler<FaultyHtm>>) {
    EXPECT_GT(plan.InjectionCount(), 0u);
  }
}

// Fusion is a pure performance transformation: width 1 (every item
// routed alone, no fused region), the adaptive width and pinned widths
// must all reproduce the golden results.
TEST(FusionEquivalenceTest, FusionOnAndOffAgreeUnderAborts) {
  const VertexId n = SharedGraphs().directed.NumVertices();
  ThreadPool pool(1);
  struct Variant {
    const char* label;
    uint32_t fixed_width;
  };
  for (const Variant& variant :
       {Variant{"fusion off (width 1)", 1}, Variant{"fusion on", 0},
        Variant{"fixed width 4", 4}, Variant{"fixed width 16", 16}}) {
    FaultyHtm htm;
    TuFastScheduler<FaultyHtm>::Config config;
    config.fixed_fusion_width = variant.fixed_width;
    TuFastScheduler<FaultyHtm> tm(htm, n, config);
    FailpointPlan plan(CapacityChaos(/*seed=*/6));
    FailpointScope scope(plan);
    ExpectBitIdentical(RunConvertedAlgorithms(tm, pool), variant.label);
    if (variant.fixed_width == 1) {
      EXPECT_EQ(tm.AggregatedStats().fused_regions, 0u) << variant.label;
    } else {
      EXPECT_GT(tm.AggregatedStats().fused_regions, 0u) << variant.label;
    }
  }
}

}  // namespace
}  // namespace tufast
