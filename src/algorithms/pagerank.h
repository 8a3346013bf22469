#ifndef TUFAST_ALGORITHMS_PAGERANK_H_
#define TUFAST_ALGORITHMS_PAGERANK_H_

#include <array>
#include <atomic>
#include <cmath>
#include <vector>

#include "graph/graph.h"
#include "htm/htm_config.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "tm/batch_executor.h"

namespace tufast {

struct PageRankOptions {
  double damping = 0.85;
  int max_iterations = 100;
  /// Converged when the L1 delta per vertex drops below this.
  double tolerance = 1e-9;
  /// Warm start: begin iterating from these ranks instead of uniform
  /// 1/n. Must have exactly NumVertices() entries (callers pad when the
  /// graph grew). The incremental driver (graph/dynamic) uses
  /// this to re-converge after an update batch in a fraction of the
  /// from-scratch iterations.
  const std::vector<double>* initial_ranks = nullptr;
};

struct PageRankResult {
  std::vector<double> ranks;
  int iterations = 0;
  double final_delta = 0;
};

/// PageRank on the TuFast API with *in-place* (Gauss-Seidel style)
/// updates: each vertex transaction reads its in-neighbors' current ranks
/// and writes its own — workers immediately see each other's freshest
/// values, which is exactly the paper's explanation for why TuFast beats
/// BSP systems on PageRank (information propagates within an iteration,
/// not across super-steps).
///
/// `graph` supplies out-degrees; `reversed` supplies in-neighbors.
template <typename Scheduler>
PageRankResult PageRankTm(Scheduler& tm, ThreadPool& pool, const Graph& graph,
                          const Graph& reversed, PageRankOptions options = {}) {
  const VertexId n = graph.NumVertices();
  TUFAST_CHECK(reversed.NumVertices() == n);
  PageRankResult result;
  if (options.initial_ranks != nullptr) {
    TUFAST_CHECK(options.initial_ranks->size() == n);
    result.ranks = *options.initial_ranks;
  } else {
    result.ranks.assign(n, 1.0 / n);
  }
  std::vector<double>& rank = result.ranks;

  // Precomputed private data: out-degrees never change.
  std::vector<double> inv_out_degree(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t d = graph.OutDegree(v);
    if (d > 0) inv_out_degree[v] = 1.0 / d;
  }
  const double base = (1.0 - options.damping) / n;

  constexpr uint64_t kGrain = 256;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::atomic<double> total_delta{0.0};
    ParallelForChunked(
        pool, 0, n, kGrain,
        [&](int worker, uint64_t lo, uint64_t hi) {
          // Per-item outputs, set by each item's committed execution and
          // read only after RunBatch returns (batch_executor.h contract).
          std::array<double, kGrain> next, prev;
          RunBatch(
              tm, worker, lo, hi,
              [&](uint64_t i) {
                return reversed.OutDegree(static_cast<VertexId>(i)) + 1;
              },
              [&](auto& txn, uint64_t i) {
                const VertexId v = static_cast<VertexId>(i);
                double sum = 0;
                for (const VertexId u : reversed.OutNeighbors(v)) {
                  sum += txn.ReadDouble(u, &rank[u]) * inv_out_degree[u];
                }
                const double nv = base + options.damping * sum;
                prev[i - lo] = txn.ReadDouble(v, &rank[v]);
                txn.WriteDouble(v, &rank[v], nv);
                next[i - lo] = nv;
              });
          double local_delta = 0;
          for (uint64_t i = lo; i < hi; ++i) {
            local_delta += std::fabs(next[i - lo] - prev[i - lo]);
          }
          // total_delta is only read after the parallel loop joins.
          double expected = total_delta.load(std::memory_order_relaxed);
          while (!total_delta.compare_exchange_weak(
              expected, expected + local_delta, std::memory_order_relaxed)) {
          }
        });
    result.iterations = iter + 1;
    result.final_delta = total_delta.load(std::memory_order_relaxed) / n;
    if (result.final_delta < options.tolerance) break;
  }
  return result;
}

}  // namespace tufast

#endif  // TUFAST_ALGORITHMS_PAGERANK_H_
