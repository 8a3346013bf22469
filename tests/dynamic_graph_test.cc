// DynamicGraph functional coverage: transactional mutation semantics,
// tombstone/arena behavior, CSR round-trips, degree-driven size-hint
// routing, and the incremental WCC / PageRank drivers cross-checked
// against from-scratch runs on frozen snapshots.

#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "algorithms/wcc.h"
#include "common/rng.h"
#include "graph/builder.h"
#include "graph/dynamic/dynamic_graph.h"
#include "graph/dynamic/incremental.h"
#include "graph/generators.h"
#include "htm/emulated_htm.h"
#include "runtime/thread_pool.h"
#include "testing/dynamic_invariants.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

using EdgeMap = std::map<std::pair<VertexId, VertexId>, uint32_t>;

EdgeMap FrozenEdges(const Graph& g) {
  EdgeMap edges;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    const auto neighbors = g.OutNeighbors(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      edges[{u, neighbors[i]}] = g.HasWeights() ? g.OutWeights(u)[i] : 0;
    }
  }
  return edges;
}

TEST(DynamicGraphTest, InsertFreezeRoundTripMatchesModel) {
  constexpr VertexId kVertices = 64;
  auto dyn = MakeEmptyDynamicGraph(kVertices, /*extra=*/0, /*weighted=*/true);
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);

  EdgeMap model;
  Rng rng(123);
  for (int i = 0; i < 800; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(kVertices));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(kVertices));
    const uint32_t w = static_cast<uint32_t>(rng.NextBounded(1000));
    const bool fresh = dyn->InsertEdge(tm, 0, u, v, w);
    EXPECT_EQ(fresh, model.find({u, v}) == model.end());
    model[{u, v}] = w;  // Upsert rewrites the weight.
  }
  EXPECT_EQ(dyn->TotalLiveEdges(), model.size());
  EXPECT_EQ(dyn->CheckInvariantsQuiesced(), std::nullopt);
  EXPECT_EQ(FrozenEdges(dyn->Freeze()), model);
}

TEST(DynamicGraphTest, FromCsrFreezeReproducesTheGraph) {
  const Graph g = GenerateErdosRenyi(300, 2400, 5, /*weighted=*/true);
  auto dyn = DynamicGraph::FromCsr(g);
  ASSERT_TRUE(dyn->HasWeights());
  EXPECT_EQ(dyn->NumVertices(), g.NumVertices());

  // Expected contents: per-vertex duplicates collapse keeping the first
  // weight (the store's documented upsert-compatible load semantics).
  EdgeMap expected;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    const auto neighbors = g.OutNeighbors(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      expected.emplace(std::pair{u, neighbors[i]}, g.OutWeights(u)[i]);
    }
  }
  EXPECT_EQ(dyn->TotalLiveEdges(), expected.size());
  EXPECT_EQ(FrozenEdges(dyn->Freeze()), expected);
  EXPECT_EQ(dyn->CheckInvariantsQuiesced(), std::nullopt);
}

TEST(DynamicGraphTest, DeleteTombstonesAreReusedWithoutNewBlocks) {
  constexpr VertexId kVertices = 8;
  auto dyn = MakeEmptyDynamicGraph(kVertices);
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);

  // Fill exactly one block of vertex 0 (targets 1..7).
  for (VertexId v = 1; v <= DynamicGraph::kSlotsPerBlock; ++v) {
    ASSERT_TRUE(dyn->InsertEdge(tm, 0, 0, v));
  }
  const uint64_t live_blocks =
      dyn->AllocatedBlocks() - dyn->FreeListBlocks();
  ASSERT_TRUE(dyn->DeleteEdge(tm, 0, 0, 1));
  ASSERT_TRUE(dyn->DeleteEdge(tm, 0, 0, 2));
  EXPECT_FALSE(dyn->DeleteEdge(tm, 0, 0, 1));  // Already gone.
  EXPECT_EQ(dyn->ApproxDegree(0), DynamicGraph::kSlotsPerBlock - 2u);

  // Re-inserts land in the tombstoned slots: net block consumption stays
  // flat (spares grabbed for the inserts come back to the free list).
  ASSERT_TRUE(dyn->InsertEdge(tm, 0, 0, 1));
  ASSERT_TRUE(dyn->InsertEdge(tm, 0, 0, 2));
  EXPECT_EQ(dyn->AllocatedBlocks() - dyn->FreeListBlocks(), live_blocks);
  EXPECT_EQ(dyn->ApproxDegree(0), uint32_t{DynamicGraph::kSlotsPerBlock});
  EXPECT_EQ(dyn->CheckInvariantsQuiesced(), std::nullopt);
}

TEST(DynamicGraphTest, UpdateWeightNeverInserts) {
  constexpr VertexId kVertices = 8;
  auto dyn = MakeEmptyDynamicGraph(kVertices, /*extra=*/0, /*weighted=*/true);
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);

  ASSERT_TRUE(dyn->InsertEdge(tm, 0, 2, 3, 10));
  EXPECT_TRUE(dyn->UpdateWeight(tm, 0, 2, 3, 99));
  EXPECT_FALSE(dyn->UpdateWeight(tm, 0, 2, 4, 55));  // Absent: no insert.
  EXPECT_EQ(dyn->TotalLiveEdges(), 1u);
  const EdgeMap edges = FrozenEdges(dyn->Freeze());
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges.at({2, 3}), 99u);
}

TEST(DynamicGraphTest, AddVertexGrowsTheVertexSet) {
  const Graph g = GenerateErdosRenyi(40, 200, 3, /*weighted=*/false);
  auto dyn = DynamicGraph::FromCsr(g, /*extra_capacity=*/4);
  EmulatedHtm htm;
  TuFast tm(htm, dyn->capacity());

  const VertexId fresh = dyn->AddVertex(tm, 0);
  EXPECT_EQ(fresh, g.NumVertices());
  EXPECT_EQ(dyn->NumVertices(), g.NumVertices() + 1);
  EXPECT_EQ(dyn->ApproxDegree(fresh), 0u);
  ASSERT_TRUE(dyn->InsertEdge(tm, 0, fresh, 0));
  ASSERT_TRUE(dyn->InsertEdge(tm, 0, 0, fresh));

  // The load dedups duplicate generator edges, so compare against the
  // unique-edge count rather than the raw one.
  const EdgeMap unique = FrozenEdges(g);
  const Graph frozen = dyn->Freeze();
  EXPECT_EQ(frozen.NumVertices(), g.NumVertices() + 1);
  EXPECT_EQ(frozen.NumEdges(), unique.size() + 2);
  EXPECT_EQ(frozen.OutDegree(fresh), 1u);
}

TEST(DynamicGraphTest, CompactReclaimsBlocksAndPreservesTheSnapshot) {
  constexpr VertexId kVertices = 32;
  auto dyn = MakeEmptyDynamicGraph(kVertices);
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);

  Rng rng(9);
  for (int i = 0; i < 600; ++i) {
    dyn->InsertEdge(tm, 0,
                    static_cast<VertexId>(rng.NextBounded(kVertices)),
                    static_cast<VertexId>(rng.NextBounded(kVertices)));
  }
  // Delete-heavy churn leaves long tombstoned chains behind.
  const Graph before_churn = dyn->Freeze();
  for (VertexId u = 0; u < kVertices; ++u) {
    for (const VertexId v : before_churn.OutNeighbors(u)) {
      if ((u + v) % 3 != 0) {
        ASSERT_TRUE(dyn->DeleteEdge(tm, 0, u, v));
      }
    }
  }
  const Graph before = dyn->Freeze();
  const uint64_t live_blocks_before =
      dyn->AllocatedBlocks() - dyn->FreeListBlocks();

  dyn->CompactQuiesced();

  EXPECT_LT(dyn->AllocatedBlocks(), live_blocks_before);
  EXPECT_EQ(dyn->CheckInvariantsQuiesced(), std::nullopt);
  const Graph after = dyn->Freeze();
  EXPECT_EQ(before.offsets(), after.offsets());
  EXPECT_EQ(before.targets(), after.targets());
  EXPECT_EQ(before.weights(), after.weights());
}

TEST(DynamicGraphTest, DegreeSizeHintRoutesHubMutationsOutOfHMode) {
  constexpr VertexId kVertices = 128;
  // Tight thresholds make the routing observable with small degrees:
  // hint <= 16 -> H eligible, hint in (16, 64] -> O, hint > 64 -> L.
  TuFastInstrumented::Config config;
  config.h_hint_threshold = 16;
  config.o_hint_threshold = 64;
  EmulatedHtm htm;
  TuFastInstrumented tm(htm, kVertices, config);

  // Pre-build degrees quiesced: vertex 1 is a hub, vertex 2 a super-hub.
  GraphBuilder builder(kVertices);
  for (VertexId v = 0; v < 24; ++v) builder.AddEdge(1, v + 8);
  for (VertexId v = 0; v < 90; ++v) builder.AddEdge(2, v + 8);
  auto dyn = std::make_unique<DynamicGraph>(kVertices);
  dyn->LoadCsrQuiesced(builder.Build({.remove_self_loops = false,
                                      .remove_duplicate_edges = false,
                                      .sort_neighbors = true}));

  ASSERT_LE(dyn->SizeHintFor(0), config.h_hint_threshold);
  ASSERT_GT(dyn->SizeHintFor(1), config.h_hint_threshold);
  ASSERT_LE(dyn->SizeHintFor(1), config.o_hint_threshold);
  ASSERT_GT(dyn->SizeHintFor(2), config.o_hint_threshold);

  ASSERT_TRUE(dyn->InsertEdge(tm, 0, 0, 5));  // Cold vertex: H mode.
  SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kH)], 1u);

  ASSERT_TRUE(dyn->InsertEdge(tm, 0, 1, 5));  // Hub: demoted to O.
  stats = tm.AggregatedStats();
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kH)], 1u);
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kO)] +
                stats.class_count[static_cast<int>(TxnClass::kOPlus)] +
                stats.class_count[static_cast<int>(TxnClass::kO2L)],
            1u);

  ASSERT_TRUE(dyn->InsertEdge(tm, 0, 2, 5));  // Super-hub: straight to L.
  stats = tm.AggregatedStats();
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kL)], 1u);
}

TEST(DynamicGraphTest, ApplyBatchTalliesEveryOutcomeClass) {
  constexpr VertexId kVertices = 16;
  auto dyn = MakeEmptyDynamicGraph(kVertices, /*extra=*/0, /*weighted=*/true);
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);
  ASSERT_TRUE(dyn->InsertEdge(tm, 0, 3, 4, 7));
  ASSERT_TRUE(dyn->InsertEdge(tm, 0, 3, 5, 7));

  const EdgeUpdate batch[] = {
      EdgeUpdate::Insert(3, 6, 1),    // New edge.
      EdgeUpdate::Insert(3, 4, 2),    // Upsert of an existing edge.
      EdgeUpdate::Delete(3, 5),       // Present: removed.
      EdgeUpdate::Delete(3, 9),       // Absent: missing.
      EdgeUpdate::Reweight(3, 4, 3),  // Present: updated.
      EdgeUpdate::Reweight(7, 9, 3),  // Absent: missing.
  };
  const ApplyResult r = dyn->ApplyBatch(tm, 0, batch);
  EXPECT_EQ(r.inserted, 1u);
  EXPECT_EQ(r.updated, 2u);
  EXPECT_EQ(r.removed, 1u);
  EXPECT_EQ(r.missing, 2u);

  const EdgeMap edges = FrozenEdges(dyn->Freeze());
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges.at({3, 4}), 3u);  // Reweight wins over the upsert.
  EXPECT_EQ(edges.at({3, 6}), 1u);
  EXPECT_EQ(dyn->CheckInvariantsQuiesced(), std::nullopt);
}

TEST(DynamicGraphTest, ConcurrentDisjointInsertsAllLand) {
  constexpr VertexId kVertices = 48;
  constexpr int kThreads = 4;
  auto dyn = MakeEmptyDynamicGraph(kVertices);
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (VertexId u = 0; u < kVertices; ++u) {
        for (VertexId v = static_cast<VertexId>(t); v < kVertices;
             v += kThreads) {
          ASSERT_TRUE(dyn->InsertEdge(tm, t, u, v));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(dyn->TotalLiveEdges(),
            uint64_t{kVertices} * kVertices);
  EXPECT_EQ(dyn->CheckInvariantsQuiesced(), std::nullopt);
  EXPECT_EQ(dyn->Freeze().NumEdges(), uint64_t{kVertices} * kVertices);
}

TEST(DynamicGraphTest, InvariantSuitePassesWithoutFaults) {
  const DynamicStressConfig cfg;
  EmulatedHtm htm;
  TuFast tm(htm, cfg.Capacity());
  EXPECT_EQ(RunDynamicInvariantSuite(tm, cfg), std::nullopt);
}

// ---------------------------------------------------------------------------
// Incremental analytics drivers.

TEST(IncrementalWccTest, TracksInsertStreamExactly) {
  constexpr VertexId kVertices = 200;
  auto dyn = MakeEmptyDynamicGraph(kVertices);
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);
  IncrementalWcc wcc(kVertices);

  Rng rng(77);
  for (int round = 0; round < 5; ++round) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 60; ++i) {
      batch.push_back(EdgeUpdate::Insert(
          static_cast<VertexId>(rng.NextBounded(kVertices)),
          static_cast<VertexId>(rng.NextBounded(kVertices))));
    }
    dyn->ApplyBatch(tm, 0, batch);
    wcc.OnBatch(batch);
    ASSERT_FALSE(wcc.NeedsRebuild());  // Insert-only: never rebuilds.
    EXPECT_EQ(wcc.Labels(), ReferenceWcc(dyn->Freeze().Undirected()))
        << "after round " << round;
  }
}

TEST(IncrementalWccTest, DeletionFlagsRebuildAndRebuildMatches) {
  constexpr VertexId kVertices = 120;
  const Graph g = GenerateErdosRenyi(kVertices, 500, 21, /*weighted=*/false);
  auto dyn = DynamicGraph::FromCsr(g);
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);
  ThreadPool pool(4);

  IncrementalWcc wcc(kVertices);
  wcc.RebuildFromSnapshot(dyn->Freeze());
  EXPECT_EQ(wcc.Labels(), ReferenceWcc(dyn->Freeze().Undirected()));

  // Find any present edge: its endpoints are connected through it, so
  // the delete must flag a rebuild.
  const Graph frozen = dyn->Freeze();
  VertexId du = 0;
  ASSERT_GT(frozen.NumEdges(), 0u);
  while (frozen.OutDegree(du) == 0) ++du;
  const VertexId dv = frozen.OutNeighbors(du)[0];
  ASSERT_TRUE(dyn->DeleteEdge(tm, 0, du, dv));
  wcc.OnDelete(du, dv);
  EXPECT_TRUE(wcc.NeedsRebuild());

  const Graph after = dyn->Freeze();
  wcc.RebuildFromSnapshot(after);
  EXPECT_FALSE(wcc.NeedsRebuild());
  const auto expected = ReferenceWcc(after.Undirected());
  EXPECT_EQ(wcc.Labels(), expected);
  // And the parallel TM algorithm agrees on the same snapshot.
  EXPECT_EQ(WccTm(tm, pool, after.Undirected()), expected);
}

TEST(IncrementalPageRankTest, WarmStartMatchesFromScratch) {
  const Graph g = GenerateRmat(9, 8, 31, {.weighted = false});
  auto dyn = DynamicGraph::FromCsr(g);
  EmulatedHtm htm;
  TuFast tm(htm, g.NumVertices());
  ThreadPool pool(4);

  PageRankOptions options;
  options.tolerance = 1e-11;
  options.max_iterations = 200;
  IncrementalPageRank ipr(options);

  const Graph g0 = dyn->Freeze();
  ipr.Update(tm, pool, g0, g0.Reversed());

  // A small update batch barely moves the stationary distribution.
  Rng rng(5);
  std::vector<EdgeUpdate> batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back(EdgeUpdate::Insert(
        static_cast<VertexId>(rng.NextBounded(g.NumVertices())),
        static_cast<VertexId>(rng.NextBounded(g.NumVertices()))));
  }
  dyn->ApplyBatch(tm, 0, batch);

  const Graph g1 = dyn->Freeze();
  const Graph g1r = g1.Reversed();
  const PageRankResult warm = ipr.Update(tm, pool, g1, g1r);
  const PageRankResult scratch = PageRankTm(tm, pool, g1, g1r, options);

  ASSERT_EQ(warm.ranks.size(), scratch.ranks.size());
  for (size_t v = 0; v < warm.ranks.size(); ++v) {
    EXPECT_NEAR(warm.ranks[v], scratch.ranks[v], 1e-6) << "vertex " << v;
  }
  // The warm start must not need more sweeps than starting from uniform.
  EXPECT_LE(warm.iterations, scratch.iterations);
}

}  // namespace
}  // namespace tufast
