#ifndef TUFAST_GRAPH_DYNAMIC_INCREMENTAL_H_
#define TUFAST_GRAPH_DYNAMIC_INCREMENTAL_H_

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "algorithms/pagerank.h"
#include "common/compiler.h"
#include "common/types.h"
#include "graph/dynamic/dynamic_graph.h"
#include "graph/graph.h"

namespace tufast {

/// Incremental analytics drivers for streaming update batches
/// (DESIGN.md "Dynamic-graph subsystem"). Both avoid from-scratch
/// recomputation where the mathematics allows it and degrade to an
/// explicit, observable rebuild where it does not; the test suite
/// cross-checks every path against from-scratch runs on the equivalent
/// frozen CSR.

/// Incremental weakly-connected components over an insert/delete stream,
/// treating every edge as undirected (WCC semantics — the from-scratch
/// comparison runs on the symmetric closure of the snapshot).
///
/// Insertions maintain components exactly with a union-find whose set
/// representative is always the minimum vertex id — the same label
/// WccTm/ReferenceWcc converge to, so labels compare for strict
/// equality. Deletions can split a component, which union-find cannot
/// express; a delete between currently-connected endpoints marks the
/// structure stale (NeedsRebuild) and the next RebuildFromSnapshot()
/// re-derives it from the frozen graph. Insert-only streams never
/// rebuild.
class IncrementalWcc {
 public:
  explicit IncrementalWcc(VertexId num_vertices) { EnsureVertices(num_vertices); }

  VertexId NumVertices() const {
    return static_cast<VertexId>(parent_.size());
  }

  /// Grows the vertex set (new vertices are singleton components).
  void EnsureVertices(VertexId n) {
    const VertexId old = NumVertices();
    if (n <= old) return;
    parent_.resize(n);
    std::iota(parent_.begin() + old, parent_.end(), old);
  }

  void OnInsert(VertexId u, VertexId v) {
    const VertexId ru = Find(u);
    const VertexId rv = Find(v);
    if (ru == rv) return;
    // Min-id union: the representative of a set is its smallest vertex.
    if (ru < rv) {
      parent_[rv] = ru;
    } else {
      parent_[ru] = rv;
    }
  }

  void OnDelete(VertexId u, VertexId v) {
    // Removing an edge inside a component may split it; union-find can't
    // un-merge, so flag for rebuild. (A delete across components was a
    // no-op edge and changes nothing.)
    if (Find(u) == Find(v)) needs_rebuild_ = true;
  }

  /// Routes a whole batch through OnInsert/OnDelete (weight updates are
  /// structure-neutral).
  void OnBatch(std::span<const EdgeUpdate> updates) {
    for (const EdgeUpdate& up : updates) {
      switch (up.op) {
        case EdgeUpdate::Op::kInsert: OnInsert(up.src, up.dst); break;
        case EdgeUpdate::Op::kDelete: OnDelete(up.src, up.dst); break;
        case EdgeUpdate::Op::kUpdateWeight: break;
      }
    }
  }

  bool NeedsRebuild() const { return needs_rebuild_; }

  /// Re-derives components from a (directed) snapshot — edge direction is
  /// ignored, matching WCC on the symmetric closure. Clears the rebuild
  /// flag.
  ///
  /// ALL derived state resets before the replay: the structure may track
  /// more vertices than the snapshot (EnsureVertices can outrun the
  /// frozen cut), and those extra vertices must come back as singletons
  /// rather than keep stale parent links into pre-rebuild components —
  /// shrinking parent_ to the snapshot size would even leave Find()
  /// indexing out of range for them.
  void RebuildFromSnapshot(const Graph& snapshot) {
    const VertexId n = std::max(NumVertices(), snapshot.NumVertices());
    parent_.assign(n, 0);
    std::iota(parent_.begin(), parent_.end(), VertexId{0});
    needs_rebuild_ = false;
    for (VertexId u = 0; u < snapshot.NumVertices(); ++u) {
      for (const VertexId v : snapshot.OutNeighbors(u)) OnInsert(u, v);
    }
  }

  /// Rebuild against a LIVE DynamicGraph through one read-only
  /// transaction: with MVCC enabled on the scheduler this sees a single
  /// commit-timestamp cut without quiescing writers and can never abort.
  /// The body is retry-safe (derived state resets on every execution)
  /// for the non-MVCC fallback, where RunReadOnly is an ordinary
  /// transaction that may re-execute.
  template <typename Scheduler>
  RunOutcome RebuildFromLive(Scheduler& tm, int worker,
                             const DynamicGraph& graph) {
    const VertexId n = std::max(NumVertices(), graph.NumVertices());
    const uint64_t hint = graph.TotalLiveEdges() + 2 * uint64_t{n} + 2;
    uint64_t slack = 0;
    for (int attempt = 0;; ++attempt) {
      bool complete = true;
      RunOutcome rc = tm.RunReadOnly(worker, hint, [&](auto& txn) {
        parent_.assign(n, 0);
        std::iota(parent_.begin(), parent_.end(), VertexId{0});
        complete = true;
        const uint64_t bound = graph.TraversalBound() + slack;
        const VertexId live = graph.NumVertices();
        for (VertexId u = 0; u < live && complete; ++u) {
          complete = graph.VisitAdjacencyInTxn(
              txn, u, bound,
              [&](VertexId v, uint32_t /*weight*/) { OnInsert(u, v); });
        }
      });
      if (rc.committed && complete) {
        needs_rebuild_ = false;
        return rc;
      }
      if (!rc.committed) return rc;
      TUFAST_CHECK(attempt < 64);
      slack = slack == 0 ? graph.TraversalBound() : slack * 2;
    }
  }

  /// Component labels (min vertex id per component) — directly comparable
  /// to WccTm / ReferenceWcc output on the symmetric closure.
  std::vector<TmWord> Labels() const {
    std::vector<TmWord> labels(parent_.size());
    for (VertexId v = 0; v < NumVertices(); ++v) labels[v] = Find(v);
    return labels;
  }

  VertexId Find(VertexId v) const {
    VertexId root = v;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[v] != root) {  // Path compression.
      const VertexId next = parent_[v];
      parent_[v] = root;
      v = next;
    }
    return root;
  }

 private:
  mutable std::vector<VertexId> parent_;
  bool needs_rebuild_ = false;
};

/// Incremental PageRank over snapshots: each Update() re-converges on the
/// latest frozen graph starting from the previous ranks instead of from
/// uniform 1/n. The ranks are used as they are: PageRankTm drops dangling
/// mass, so its fixed point sums to less than 1, and rescaling the seed
/// to sum 1 would move it about as far from the fixed point as a uniform
/// start. Vertices added since the last call start at (1 - damping) / n,
/// the rank of a vertex nothing links to. Small update batches barely
/// move the stationary distribution, so the warm start cuts
/// iterations-to-tolerance while converging to the same fixed point as a
/// from-scratch run (cross-checked in tests).
class IncrementalPageRank {
 public:
  explicit IncrementalPageRank(PageRankOptions options = {})
      : options_(options) {
    TUFAST_CHECK(options.initial_ranks == nullptr);  // Owned here.
  }

  /// `graph`/`reversed` are the frozen snapshot and its reverse (same
  /// contract as PageRankTm).
  template <typename Scheduler>
  PageRankResult Update(Scheduler& tm, ThreadPool& pool, const Graph& graph,
                        const Graph& reversed) {
    const VertexId n = graph.NumVertices();
    PageRankOptions options = options_;
    std::vector<double> seed;
    if (!ranks_.empty() && n > 0) {
      seed = ranks_;
      seed.resize(n, (1.0 - options.damping) / n);
      options.initial_ranks = &seed;
    }
    PageRankResult result = PageRankTm(tm, pool, graph, reversed, options);
    ranks_ = result.ranks;
    return result;
  }

  /// Snapshot-and-update against a LIVE DynamicGraph: freezes a CSR cut
  /// through one read-only transaction (a single commit-timestamp
  /// snapshot when the scheduler has MVCC enabled — writers keep
  /// committing throughout) and warm-starts on it. The frozen cut is
  /// returned through `snapshot_out` when the caller wants to cross-check
  /// against a from-scratch run.
  template <typename Scheduler>
  PageRankResult UpdateFromLive(Scheduler& tm, ThreadPool& pool, int worker,
                                const DynamicGraph& graph,
                                Graph* snapshot_out = nullptr) {
    Graph snapshot = graph.FreezeSnapshotRO(tm, worker);
    Graph reversed = snapshot.Reversed();
    PageRankResult result = Update(tm, pool, snapshot, reversed);
    if (snapshot_out != nullptr) *snapshot_out = std::move(snapshot);
    return result;
  }

  const std::vector<double>& ranks() const { return ranks_; }
  void Reset() { ranks_.clear(); }

 private:
  const PageRankOptions options_;
  std::vector<double> ranks_;
};

}  // namespace tufast

#endif  // TUFAST_GRAPH_DYNAMIC_INCREMENTAL_H_
