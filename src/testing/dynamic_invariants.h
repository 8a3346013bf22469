#ifndef TUFAST_TESTING_DYNAMIC_INVARIANTS_H_
#define TUFAST_TESTING_DYNAMIC_INVARIANTS_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "graph/builder.h"
#include "graph/dynamic/dynamic_graph.h"
#include "testing/stress_workloads.h"

namespace tufast {

/// Invariant-checking stress workloads for the dynamic-graph subsystem,
/// mirroring stress_workloads.h: run against any scheduler under any
/// failpoint plan, return std::nullopt when the invariant held and a
/// human-readable violation otherwise. The caller owns printing the
/// failing (scheduler, seed) pair for replay.
///
/// All DynamicGraph mutations lock exactly one vertex and declare write
/// intent up front, so no workload here can deadlock on any scheduler.
struct DynamicStressConfig {
  int threads = 3;
  int batches_per_thread = 50;
  int batch_size = 4;
  /// Source/target id range of the initial vertex set.
  VertexId vertices = 32;
  uint64_t seed = 1;

  /// Vertex-space bound the scheduler must be built for: the no-lost-
  /// insert workload grows the graph by one AddVertex per thread.
  VertexId Capacity() const {
    return vertices + static_cast<VertexId>(threads);
  }
};

/// Fresh dynamic store with `n` empty vertices and room for `extra` more.
inline std::unique_ptr<DynamicGraph> MakeEmptyDynamicGraph(
    VertexId n, VertexId extra = 0, bool weighted = false) {
  auto dyn = std::make_unique<DynamicGraph>(
      n + extra, DynamicGraph::Options{.weighted = weighted});
  GraphBuilder builder(n);
  dyn->LoadCsrQuiesced(builder.Build());
  return dyn;
}

/// Edge-count conservation: random insert/delete/reweight batches from
/// every thread; afterwards the live-edge total must equal the committed
/// inserts minus the committed removals, the structural audit must pass,
/// and the frozen snapshot must carry exactly the live edges. Catches
/// lost or double-applied updates, leaked tombstones, and degree-counter
/// drift.
template <typename Scheduler>
std::optional<std::string> RunEdgeCountConservation(
    Scheduler& tm, const DynamicStressConfig& cfg) {
  auto dyn = MakeEmptyDynamicGraph(cfg.vertices);
  std::vector<ApplyResult> tallies(cfg.threads);
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(PerThreadSeed(cfg.seed, t) ^ 0xd1eaULL);
      std::vector<EdgeUpdate> batch;
      for (int i = 0; i < cfg.batches_per_thread; ++i) {
        batch.clear();
        for (int k = 0; k < cfg.batch_size; ++k) {
          const VertexId u =
              static_cast<VertexId>(rng.NextBounded(cfg.vertices));
          const VertexId v =
              static_cast<VertexId>(rng.NextBounded(cfg.vertices));
          const uint64_t r = rng.NextBounded(10);
          if (r < 6) {
            batch.push_back(
                EdgeUpdate::Insert(u, v, static_cast<uint32_t>(r)));
          } else if (r < 9) {
            batch.push_back(EdgeUpdate::Delete(u, v));
          } else {
            batch.push_back(
                EdgeUpdate::Reweight(u, v, static_cast<uint32_t>(r)));
          }
        }
        tallies[t].Merge(dyn->ApplyBatch(tm, t, batch));
      }
    });
  }
  for (auto& th : threads) th.join();

  ApplyResult total;
  for (const ApplyResult& r : tallies) total.Merge(r);
  const uint64_t live = dyn->TotalLiveEdges();
  if (live != total.inserted - total.removed) {
    return "edge-count conservation violated: " + std::to_string(live) +
           " live edges != " + std::to_string(total.inserted) +
           " inserted - " + std::to_string(total.removed) + " removed";
  }
  if (auto err = dyn->CheckInvariantsQuiesced()) {
    return "post-churn structural audit: " + *err;
  }
  if (dyn->Freeze().NumEdges() != live) {
    return "frozen snapshot edge count != live-edge total " +
           std::to_string(live);
  }
  return std::nullopt;
}

/// No-lost-insert: threads hammer the same source vertices but insert
/// disjoint (per-thread) target sets, each thread also growing the graph
/// by one AddVertex with private out-edges. Every acknowledged insert
/// must surface in the frozen snapshot. Catches inserts dropped by a
/// mis-retried transaction and chain links lost to a racing append.
template <typename Scheduler>
std::optional<std::string> RunNoLostInsert(Scheduler& tm,
                                           const DynamicStressConfig& cfg) {
  auto dyn =
      MakeEmptyDynamicGraph(cfg.vertices, static_cast<VertexId>(cfg.threads));
  std::vector<std::vector<EdgeUpdate>> acknowledged(cfg.threads);
  std::vector<std::string> failures(cfg.threads);
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(PerThreadSeed(cfg.seed, t) ^ 0x10edULL);
      // Thread t owns targets {t, t + threads, t + 2*threads, ...}: all
      // threads contend on every source vertex, yet no two ever insert
      // the same edge.
      std::vector<EdgeUpdate> mine;
      for (VertexId u = 0; u < cfg.vertices; ++u) {
        for (VertexId v = static_cast<VertexId>(t); v < cfg.vertices;
             v += static_cast<VertexId>(cfg.threads)) {
          mine.push_back(EdgeUpdate::Insert(u, v));
        }
      }
      // The fresh vertex's private out-edges ride along.
      const VertexId own = dyn->AddVertex(tm, t);
      for (VertexId v = 0; v < static_cast<VertexId>(cfg.batch_size); ++v) {
        mine.push_back(EdgeUpdate::Insert(own, v));
      }
      for (size_t i = mine.size(); i > 1; --i) {  // Fisher-Yates.
        std::swap(mine[i - 1], mine[rng.NextBounded(i)]);
      }
      // Half through single-edge transactions, half through batches.
      const size_t half = mine.size() / 2;
      for (size_t i = 0; i < half; ++i) {
        if (!dyn->InsertEdge(tm, t, mine[i].src, mine[i].dst) &&
            failures[t].empty()) {
          failures[t] = "unique insert (" + std::to_string(mine[i].src) +
                        ", " + std::to_string(mine[i].dst) +
                        ") reported as pre-existing";
        }
      }
      for (size_t i = half; i < mine.size();
           i += static_cast<size_t>(cfg.batch_size)) {
        const size_t end =
            std::min(mine.size(), i + static_cast<size_t>(cfg.batch_size));
        const ApplyResult r = dyn->ApplyBatch(
            tm, t, std::span<const EdgeUpdate>(mine).subspan(i, end - i));
        if (r.inserted != end - i && failures[t].empty()) {
          failures[t] = "batch of " + std::to_string(end - i) +
                        " unique inserts acknowledged only " +
                        std::to_string(r.inserted);
        }
      }
      acknowledged[t] = std::move(mine);
    });
  }
  for (auto& th : threads) th.join();
  for (const std::string& f : failures) {
    if (!f.empty()) return f;
  }

  const Graph frozen = dyn->Freeze();
  uint64_t expected = 0;
  for (int t = 0; t < cfg.threads; ++t) {
    expected += acknowledged[t].size();
    for (const EdgeUpdate& up : acknowledged[t]) {
      const auto neighbors = frozen.OutNeighbors(up.src);
      if (!std::binary_search(neighbors.begin(), neighbors.end(), up.dst)) {
        return "lost insert: edge (" + std::to_string(up.src) + ", " +
               std::to_string(up.dst) + ") missing from the frozen snapshot";
      }
    }
  }
  if (frozen.NumEdges() != expected) {
    return "frozen snapshot has " + std::to_string(frozen.NumEdges()) +
           " edges, expected exactly " + std::to_string(expected);
  }
  if (auto err = dyn->CheckInvariantsQuiesced()) {
    return "post-insert structural audit: " + *err;
  }
  return std::nullopt;
}

/// Snapshot consistency: every source vertex holds exactly one of the
/// targets {0, 1}; writers flip it with a delete+insert pair in ONE
/// transaction (one ApplyBatch group), readers take transactional
/// per-vertex snapshots. Every committed snapshot must show the
/// invariant — degree word matching the live slots and exactly one of
/// the two targets. Catches torn visibility of the tombstone/insert
/// pair and degree/adjacency skew.
template <typename Scheduler>
std::optional<std::string> RunDynamicSnapshotConsistency(
    Scheduler& tm, const DynamicStressConfig& cfg) {
  auto dyn = MakeEmptyDynamicGraph(cfg.vertices);
  {
    std::vector<EdgeUpdate> init;
    for (VertexId u = 0; u < cfg.vertices; ++u) {
      init.push_back(EdgeUpdate::Insert(u, 0));
    }
    dyn->ApplyBatch(tm, 0, init);
  }

  std::vector<std::string> failures(cfg.threads);
  std::vector<std::thread> threads;
  const int ops = cfg.batches_per_thread * cfg.batch_size;
  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(PerThreadSeed(cfg.seed, t) ^ 0x5d0cULL);
      VertexSnapshot snap;
      for (int i = 0; i < ops; ++i) {
        const VertexId u =
            static_cast<VertexId>(rng.NextBounded(cfg.vertices));
        if (i % 2 == t % 2) {  // Writer: flip to target 0 or 1 atomically.
          const VertexId to = static_cast<VertexId>(rng.NextBounded(2));
          const EdgeUpdate flip[2] = {EdgeUpdate::Delete(u, 1 - to),
                                      EdgeUpdate::Insert(u, to)};
          dyn->ApplyBatch(tm, t, flip);
        } else {  // Reader: per-vertex transactional snapshot.
          const RunOutcome outcome = dyn->ReadVertexSnapshot(tm, t, u, &snap);
          if (!outcome.committed || !failures[t].empty()) continue;
          if (snap.degree != snap.edges.size()) {
            failures[t] = "snapshot of vertex " + std::to_string(u) +
                          ": degree word " + std::to_string(snap.degree) +
                          " != " + std::to_string(snap.edges.size()) +
                          " live slots";
          } else if (snap.edges.size() != 1 || snap.edges[0].first > 1) {
            failures[t] = "snapshot of vertex " + std::to_string(u) +
                          " shows " + std::to_string(snap.edges.size()) +
                          " edges; expected exactly one of targets {0, 1}";
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const std::string& f : failures) {
    if (!f.empty()) return f;
  }
  if (auto err = dyn->CheckInvariantsQuiesced()) {
    return "post-flip structural audit: " + *err;
  }
  const Graph frozen = dyn->Freeze();
  for (VertexId u = 0; u < cfg.vertices; ++u) {
    if (frozen.OutDegree(u) != 1) {
      return "vertex " + std::to_string(u) + " froze with degree " +
             std::to_string(frozen.OutDegree(u)) + ", expected 1";
    }
  }
  return std::nullopt;
}

/// Runs all three dynamic-graph invariant workloads, then checks that no
/// lock is left held; first violation wins. The scheduler must be sized
/// for cfg.Capacity() vertices.
template <typename Scheduler>
std::optional<std::string> RunDynamicInvariantSuite(
    Scheduler& tm, const DynamicStressConfig& cfg) {
  if (auto err = RunEdgeCountConservation(tm, cfg)) return err;
  if (auto err = RunNoLostInsert(tm, cfg)) return err;
  if (auto err = RunDynamicSnapshotConsistency(tm, cfg)) return err;
  return CheckNoLockHeld(tm);
}

}  // namespace tufast

#endif  // TUFAST_TESTING_DYNAMIC_INVARIANTS_H_
