// MVCC snapshot-read coverage: version-store unit semantics (pre-image
// chains, timestamp resolution, epoch reclamation flush balance), the
// RunReadOnly snapshot path of TuFast, the one scheduler with a version
// store (abort-free, pair-sum consistent, bit-identical committed state
// with MVCC off),
// the dynamic-graph regressions from this PR — a traversal-bound
// overflow must widen and retry instead of committing a truncated edge
// list, and RebuildFromSnapshot must reset all derived union-find state
// before replaying — and tombstone-heavy compaction under chaos with
// concurrent snapshot readers.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "common/rng.h"
#include "graph/builder.h"
#include "graph/dynamic/dynamic_graph.h"
#include "graph/dynamic/incremental.h"
#include "graph/generators.h"
#include "htm/emulated_htm.h"
#include "mvcc/version_store.h"
#include "runtime/thread_pool.h"
#include "testing/dynamic_invariants.h"
#include "testing/failpoints.h"
#include "testing/stress_workloads.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

// ------------------------------------------------------------ store units

constexpr auto kIdentity = [](const MvccWrite& w) { return w; };

TEST(MvccStoreTest, ResolvesValuesAsOfSnapshotTimestamp) {
  MvccStore store(1);
  TmWord cell = 10;
  auto install = [&](TmWord next) {
    store.BeginInstall(0, std::array{MvccWrite{0, &cell}}, kIdentity);
    cell = next;  // Publish the new live value (step 2 of the protocol).
    store.EndInstall(0);
  };

  const auto s0 = store.BeginSnapshot(1);
  install(20);
  const auto s1 = store.BeginSnapshot(2);
  install(30);

  // s0 predates both commits: both pre-images apply, oldest wins.
  EXPECT_EQ(store.ResolveRead(s0, 0, &cell), 10u);
  // s1 sits between them: only the second commit's pre-image applies.
  EXPECT_EQ(store.ResolveRead(s1, 0, &cell), 20u);
  store.EndSnapshot(1);
  store.EndSnapshot(2);

  const auto s2 = store.BeginSnapshot(1);
  EXPECT_EQ(store.ResolveRead(s2, 0, &cell), 30u);  // Live value.
  store.EndSnapshot(1);

  const MvccCounters c = store.Counters();
  EXPECT_EQ(c.commits_installed, 2u);
  EXPECT_EQ(c.snapshots, 3u);
  EXPECT_GE(c.max_chain_walk, 2u);
}

// Regression: version chains are NOT timestamp-ordered. Two commits to
// disjoint words of one vertex can draw timestamps in one order and
// publish their chain nodes in the other (the draw and the push are not
// atomic, and per-word conflict detection lets them run concurrently).
// A reader must not treat a low-ts node at the head as "everything
// behind me is older" — that returns the newer commit's post-image and
// tears the snapshot.
TEST(MvccStoreTest, ResolvesOutOfOrderInstallsByTimestampNotPosition) {
  MvccStore store(1);
  TmWord c1 = 1, c2 = 2;
  const uint64_t ts_a = store.ReserveInstallTs(0);
  const uint64_t ts_b = store.ReserveInstallTs(1);
  ASSERT_LT(ts_a, ts_b);
  // B (the later timestamp) installs and publishes first...
  store.InstallPreimages(ts_b, std::array{MvccWrite{0, &c2}}, kIdentity);
  c2 = 22;
  store.EndInstall(1);
  // ...then A lands its node at the head: chain = A(ts_a) -> B(ts_b).
  store.InstallPreimages(ts_a, std::array{MvccWrite{0, &c1}}, kIdentity);
  c1 = 11;
  store.EndInstall(0);

  MvccStore::Snapshot mid;  // Between the commits: A visible, B not.
  mid.ts = ts_a;
  EXPECT_EQ(store.ResolveRead(mid, 0, &c1), 11u);
  EXPECT_EQ(store.ResolveRead(mid, 0, &c2), 2u);  // B's pre-image.

  MvccStore::Snapshot before;  // Predates both commits.
  before.ts = 0;
  EXPECT_EQ(store.ResolveRead(before, 0, &c1), 1u);
  EXPECT_EQ(store.ResolveRead(before, 0, &c2), 2u);

  MvccStore::Snapshot after;  // Sees both commits: live values.
  after.ts = ts_b;
  EXPECT_EQ(store.ResolveRead(after, 0, &c1), 11u);
  EXPECT_EQ(store.ResolveRead(after, 0, &c2), 22u);
}

// Companion regression for reclamation on out-of-order chains: with a
// reader pinned between the two inverted commits, a reclaim pass must
// not cut the higher-ts node just because a dead node sits in front of
// it — only a suffix whose MAXIMUM ts clears every pin may go.
TEST(MvccStoreTest, ReclaimNeverCutsLiveVersionsBehindADeadHeadNode) {
  MvccStore store(1);
  TmWord c1 = 1, c2 = 2;
  const uint64_t ts_a = store.ReserveInstallTs(0);  // In flight.
  uint64_t seen_ts = 0;
  TmWord seen_c2 = 0;
  std::thread reader([&] {
    // Pins its read timestamp, then parks on A's in-flight mark until
    // the main thread calls EndInstall(0).
    const auto snap = store.BeginSnapshot(2);
    seen_ts = snap.ts;
    seen_c2 = store.ResolveRead(snap, 0, &c2);
    store.EndSnapshot(2);
  });
  // Give the reader time to pin at the pre-B clock; if it loses the
  // race anyway, the assertions below degrade to the (still checked)
  // reader-sees-both-commits case instead of the interesting one.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const uint64_t ts_b = store.ReserveInstallTs(1);
  store.InstallPreimages(ts_b, std::array{MvccWrite{0, &c2}}, kIdentity);
  c2 = 22;
  store.EndInstall(1);
  store.InstallPreimages(ts_a, std::array{MvccWrite{0, &c1}}, kIdentity);
  c1 = 11;
  // Chain = A(ts_a, dead to the pinned reader) -> B(ts_b, needed by it).
  store.ReclaimPass();
  store.EndInstall(0);  // Unblocks the reader.
  reader.join();
  if (seen_ts == ts_a) {
    EXPECT_EQ(seen_c2, 2u);  // B invisible: its pre-image must survive.
  } else {
    EXPECT_EQ(seen_c2, 22u);  // Reader pinned after B's draw: live value.
  }
}

TEST(MvccStoreTest, QuiescedReclaimAllCollapsesTheNodeBudget) {
  MvccStore store(4);
  std::vector<TmWord> cells(4, 0);
  for (int i = 0; i < 300; ++i) {
    const VertexId v = static_cast<VertexId>(i % 4);
    store.BeginInstall(0, std::array{MvccWrite{v, &cells[v]}}, kIdentity);
    cells[v] = static_cast<TmWord>(i);
    store.EndInstall(0);
  }
  MvccCounters c = store.Counters();
  EXPECT_EQ(c.commits_installed, 300u);
  EXPECT_EQ(c.installed_nodes, 300u);
  // Flush balance: every installed node is freed, in limbo, or linked.
  EXPECT_EQ(c.installed_nodes,
            c.freed_nodes + c.LimboNodes() + store.LinkedNodesQuiesced());
  // Amortized passes already ran (every kReclaimEvery installs) and, with
  // no pinned readers, must have recycled most of the chain.
  EXPECT_GT(c.reclaim_passes, 0u);

  store.ReclaimAll();
  c = store.Counters();
  EXPECT_EQ(c.retired_nodes, c.installed_nodes);
  EXPECT_EQ(c.freed_nodes, c.installed_nodes);
  EXPECT_EQ(store.LinkedNodesQuiesced(), 0u);
  EXPECT_EQ(store.MaxChainLengthQuiesced(), 0u);
}

TEST(MvccStoreTest, PinnedSnapshotKeepsItsVersionsThroughReclamation) {
  MvccStore store(1);
  TmWord cell = 7;
  const auto snap = store.BeginSnapshot(1);
  // 200 installs force multiple amortized reclamation passes while the
  // reader stays pinned; its pre-images must survive all of them.
  for (int i = 1; i <= 200; ++i) {
    store.BeginInstall(0, std::array{MvccWrite{0, &cell}}, kIdentity);
    cell = static_cast<TmWord>(100 + i);
    store.EndInstall(0);
  }
  EXPECT_EQ(store.ResolveRead(snap, 0, &cell), 7u);
  store.EndSnapshot(1);
  store.ReclaimAll();
  const MvccCounters c = store.Counters();
  EXPECT_EQ(c.freed_nodes, c.installed_nodes);
}

TEST(MvccRecorderTest, CollapsesConsecutiveRewritesOnly) {
  MvccRecorder rec;
  TmWord a = 0;
  TmWord b = 0;
  rec.Record(1, &a);
  rec.Record(1, &a);  // Consecutive re-write: collapsed.
  rec.Record(2, &b);
  rec.Record(1, &a);  // Non-consecutive duplicate: kept (idempotent).
  ASSERT_EQ(rec.writes().size(), 3u);
  EXPECT_EQ(rec.writes()[0].addr, &a);
  EXPECT_EQ(rec.writes()[1].addr, &b);
  EXPECT_EQ(rec.writes()[2].addr, &a);
  rec.Clear();
  EXPECT_TRUE(rec.empty());
}

// ------------------------------------------------- scheduler snapshot path

template <typename Scheduler>
class MvccSchedulerTest : public ::testing::Test {};

// A typed suite over one type keeps the cases' ids (MvccSchedulerTest/0).
using MvccSchedulers = ::testing::Types<TuFastScheduler<EmulatedHtm>>;
TYPED_TEST_SUITE(MvccSchedulerTest, MvccSchedulers);

TYPED_TEST(MvccSchedulerTest, SnapshotReadsAreAbortFreeAndConsistent) {
  using Scheduler = TypeParam;
  StressConfig cfg;
  cfg.threads = 3;
  cfg.txns_per_thread = 120;
  cfg.vertices = 32;
  cfg.seed = 11;
  EmulatedHtm htm;
  auto tm = MakeMvccSchedulerFor<Scheduler>(htm, cfg.vertices);
  if (auto err = RunMvccSnapshotSuite(*tm, cfg)) ADD_FAILURE() << *err;
}

// Enabling MVCC must be a pure observer: the committed state of a
// deterministic single-threaded workload is bit-identical with it on
// and off (the non-MVCC path itself is untouched by construction).
TYPED_TEST(MvccSchedulerTest, MvccOnLeavesCommittedStateBitIdentical) {
  using Scheduler = TypeParam;
  constexpr VertexId kVertices = 24;
  auto run = [](bool mvcc) {
    EmulatedHtm htm;
    auto tm = mvcc ? MakeMvccSchedulerFor<Scheduler>(htm, kVertices)
                   : std::make_unique<Scheduler>(htm, VertexId{kVertices});
    std::vector<TmWord> data(kVertices, 0);
    Rng rng(42);
    for (int i = 0; i < 400; ++i) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(kVertices));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(kVertices));
      tm->Run(0, 4, [&](auto& txn) {
        const TmWord a = txn.Read(u, &data[u]);
        const TmWord b = txn.Read(v, &data[v]);
        txn.Write(u, &data[u], a + b + 1);
      });
    }
    return data;
  };
  EXPECT_EQ(run(false), run(true));
}

// ------------------------------------------------ dynamic-graph snapshots

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

// Regression for the truncated-snapshot bug: with the traversal bound
// forced below the real chain length, ReadVertexSnapshot used to COMMIT
// a silently truncated edge list. It must now widen the bound and retry
// until the walk completes — never surface partial data as success.
TEST(DynamicGraphMvccTest, BoundOverflowRetriesInsteadOfTruncating) {
  constexpr VertexId kVertices = 256;
  constexpr uint64_t kEdges = DynamicGraph::kSlotsPerBlock * 6;
  auto dyn = MakeEmptyDynamicGraph(kVertices);
  EmulatedHtm htm;
  TuFast::Config cfg;
  cfg.enable_mvcc = true;
  TuFast tm(htm, dyn->capacity(), cfg);

  for (uint64_t v = 1; v <= kEdges; ++v) {
    ASSERT_TRUE(dyn->InsertEdge(tm, 0, 0, static_cast<VertexId>(v)));
  }
  dyn->SetTraversalBoundForTest(1);  // Chain is ~6 blocks long.

  VertexSnapshot snap;
  RunOutcome rc = dyn->ReadVertexSnapshot(tm, 0, 0, &snap);
  EXPECT_TRUE(rc.committed);
  EXPECT_EQ(snap.degree, kEdges);
  EXPECT_EQ(snap.edges.size(), kEdges);

  snap = {};
  rc = dyn->ReadVertexSnapshotRO(tm, 0, 0, &snap);
  EXPECT_TRUE(rc.committed);
  EXPECT_EQ(rc.aborts, 0u);  // The RO path retries without aborting.
  EXPECT_EQ(snap.degree, kEdges);
  ASSERT_EQ(snap.edges.size(), kEdges);
  std::vector<bool> seen(kVertices, false);
  for (const auto& [target, weight] : snap.edges) {
    EXPECT_EQ(weight, 0u);
    seen[target] = true;
  }
  for (uint64_t v = 1; v <= kEdges; ++v) EXPECT_TRUE(seen[v]) << v;

  dyn->SetTraversalBoundForTest(0);
  EXPECT_EQ(dyn->CheckInvariantsQuiesced(), std::nullopt);
}

TEST(DynamicGraphMvccTest, FreezeSnapshotRoMatchesQuiescedFreeze) {
  const Graph g = GenerateErdosRenyi(200, 1600, 9, /*weighted=*/true);
  auto dyn = DynamicGraph::FromCsr(g);
  EmulatedHtm htm;
  TuFast::Config cfg;
  cfg.enable_mvcc = true;
  TuFast tm(htm, dyn->capacity(), cfg);
  EXPECT_EQ(FrozenEdges(dyn->FreezeSnapshotRO(tm, 0)),
            FrozenEdges(dyn->Freeze()));
}

// ---------------------------------------------------- incremental drivers

// Regression: RebuildFromSnapshot must reset ALL derived state before
// replaying — rebuilding from a snapshot that lost edges (or from an
// empty one) has to dissolve every stale union, not keep old roots.
TEST(IncrementalWccMvccTest, RebuildFromSnapshotResetsDerivedState) {
  IncrementalWcc wcc(8);
  wcc.OnInsert(0, 1);
  wcc.OnInsert(2, 3);
  wcc.OnInsert(1, 2);  // {0,1,2,3} now one component.
  wcc.OnDelete(1, 2);  // Bridge cut: rebuild required.
  ASSERT_TRUE(wcc.NeedsRebuild());

  wcc.RebuildFromSnapshot(GraphBuilder(8).Build());  // Empty snapshot.
  EXPECT_FALSE(wcc.NeedsRebuild());
  std::vector<TmWord> singletons(8);
  std::iota(singletons.begin(), singletons.end(), TmWord{0});
  EXPECT_EQ(wcc.Labels(), singletons);
}

TEST(IncrementalWccMvccTest, RebuildFromLiveMatchesReference) {
  const Graph g = GenerateRmat(/*scale=*/6, /*avg_degree=*/6, /*seed=*/17);
  auto dyn = DynamicGraph::FromCsr(g);
  EmulatedHtm htm;
  TuFast::Config cfg;
  cfg.enable_mvcc = true;
  TuFast tm(htm, dyn->capacity(), cfg);

  IncrementalWcc wcc(dyn->NumVertices());
  wcc.OnInsert(0, dyn->NumVertices() - 1);  // Stale state to be dissolved.
  const RunOutcome rc = wcc.RebuildFromLive(tm, 0, *dyn);
  EXPECT_TRUE(rc.committed);
  EXPECT_EQ(rc.aborts, 0u);
  EXPECT_FALSE(wcc.NeedsRebuild());
  EXPECT_EQ(wcc.Labels(), ReferenceWcc(dyn->Freeze().Undirected()));
}

TEST(IncrementalPageRankMvccTest, UpdateFromLiveMatchesFromScratchOnTheCut) {
  const Graph g = GenerateRmat(/*scale=*/6, /*avg_degree=*/8, /*seed=*/23);
  auto dyn = DynamicGraph::FromCsr(g);
  EmulatedHtm htm;
  TuFast::Config cfg;
  cfg.enable_mvcc = true;
  TuFast tm(htm, dyn->capacity(), cfg);
  ThreadPool pool(2);

  PageRankOptions options;
  options.max_iterations = 40;
  options.tolerance = 1e-10;
  IncrementalPageRank ipr(options);
  Graph cut;
  const PageRankResult live = ipr.UpdateFromLive(tm, pool, 0, *dyn, &cut);
  EXPECT_EQ(FrozenEdges(cut), FrozenEdges(dyn->Freeze()));

  const PageRankResult scratch =
      PageRankTm(tm, pool, cut, cut.Reversed(), options);
  ASSERT_EQ(live.ranks.size(), scratch.ranks.size());
  for (size_t v = 0; v < live.ranks.size(); ++v) {
    EXPECT_NEAR(live.ranks[v], scratch.ranks[v], 1e-9) << v;
  }
}

// --------------------------------------- compaction under tombstone churn

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* s = std::getenv(name);
  return (s != nullptr && *s != '\0') ? std::strtoull(s, nullptr, 10) : def;
}

FailpointPlan::Config MvccChaosConfig(uint64_t seed) {
  FailpointPlan::Config config;
  config.seed = seed;
  config.Arm(FailSite::kHtmLoad, 0.002, FailAction::kAbortConflict);
  config.Arm(FailSite::kHtmCommit, 0.002, FailAction::kAbortConflict);
  config.Arm(FailSite::kVersionReclaim, 0.05, FailAction::kFail);
  config.Arm(FailSite::kStaleEpoch, 0.05, FailAction::kFail);
  config.yield_prob = 0.02;
  return config;
}

template <typename Scheduler>
class MvccCompactionStressTest : public ::testing::Test {};

using FaultyMvccSchedulers = ::testing::Types<TuFastScheduler<FaultyHtm>>;
TYPED_TEST_SUITE(MvccCompactionStressTest, FaultyMvccSchedulers);

// Tombstone-heavy delete streams interleaved with MVCC snapshot reads,
// chaos-seeded: compaction afterwards must preserve the frozen view
// exactly and keep every quiesced invariant, snapshot readers must
// never abort and never see a degree/edge-list mismatch, and the
// version store's flush balance must hold through forced reclamation.
TYPED_TEST(MvccCompactionStressTest, CompactionPreservesViewAfterChurn) {
  using Scheduler = TypeParam;
  constexpr VertexId kVertices = 48;
  const uint64_t base_seed = EnvU64("TUFAST_STRESS_SEED", 1);
  for (uint64_t it = 0; it < 2; ++it) {
    const uint64_t seed = base_seed + it;
    auto dyn = MakeEmptyDynamicGraph(kVertices);
    FaultyHtm htm;
    auto tm = MakeMvccSchedulerFor<Scheduler>(htm, dyn->capacity());
    FailpointPlan plan(MvccChaosConfig(seed));
    FailpointScope scope(plan);

    std::atomic<int> writers_remaining{2};
    std::atomic<uint64_t> reader_aborts{0};
    std::atomic<uint64_t> reader_mismatches{0};
    std::atomic<uint64_t> reader_failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(seed * 31 + static_cast<uint64_t>(t));
        auto pick = [&] {
          return static_cast<VertexId>(rng.NextBounded(kVertices));
        };
        // Insert-heavy warmup, then a delete-heavy tombstone storm.
        for (int i = 0; i < 250; ++i) dyn->InsertEdge(*tm, t, pick(), pick());
        for (int i = 0; i < 500; ++i) {
          if (rng.NextBounded(100) < 75) {
            dyn->DeleteEdge(*tm, t, pick(), pick());
          } else {
            dyn->InsertEdge(*tm, t, pick(), pick());
          }
        }
        writers_remaining.fetch_sub(1, std::memory_order_release);
      });
    }
    threads.emplace_back([&] {
      Rng rng(seed * 31 + 2);
      VertexSnapshot snap;
      while (writers_remaining.load(std::memory_order_acquire) > 0) {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(kVertices));
        const RunOutcome rc = dyn->ReadVertexSnapshotRO(*tm, 2, u, &snap);
        reader_aborts.fetch_add(rc.aborts, std::memory_order_relaxed);
        if (!rc.committed) reader_failures.fetch_add(1);
        if (snap.degree != snap.edges.size()) reader_mismatches.fetch_add(1);
      }
    });
    for (auto& th : threads) th.join();

    EXPECT_EQ(reader_aborts.load(), 0u) << "seed=" << seed;
    EXPECT_EQ(reader_failures.load(), 0u) << "seed=" << seed;
    EXPECT_EQ(reader_mismatches.load(), 0u) << "seed=" << seed;

    const EdgeMap before = FrozenEdges(dyn->Freeze());
    EXPECT_EQ(dyn->CheckInvariantsQuiesced(), std::nullopt) << "seed=" << seed;
    dyn->CompactQuiesced();
    EXPECT_EQ(dyn->CheckInvariantsQuiesced(), std::nullopt) << "seed=" << seed;
    EXPECT_EQ(FrozenEdges(dyn->Freeze()), before) << "seed=" << seed;

    auto* store = tm->mvcc_store();
    ASSERT_NE(store, nullptr);
    MvccCounters c = store->Counters();
    EXPECT_EQ(c.installed_nodes,
              c.freed_nodes + c.LimboNodes() + store->LinkedNodesQuiesced())
        << "seed=" << seed;
    store->ReclaimAll();
    c = store->Counters();
    EXPECT_EQ(c.freed_nodes, c.installed_nodes) << "seed=" << seed;
    EXPECT_EQ(c.retired_nodes, c.installed_nodes) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace tufast
