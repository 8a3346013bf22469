#ifndef TUFAST_ALGORITHMS_WCC_H_
#define TUFAST_ALGORITHMS_WCC_H_

#include <array>
#include <atomic>
#include <vector>

#include "graph/graph.h"
#include "htm/htm_config.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "tm/batch_executor.h"

namespace tufast {

/// Weakly connected components ("Components" in the paper) by parallel
/// min-label propagation on the TuFast API. In-place updates let fresh
/// labels travel many hops within one sweep (the paper's explanation for
/// TuFast's advantage here: "vertices need the newest component ID from
/// their neighbors"). `graph` must be the symmetric closure.
template <typename Scheduler>
std::vector<TmWord> WccTm(Scheduler& tm, ThreadPool& pool,
                          const Graph& graph) {
  const VertexId n = graph.NumVertices();
  std::vector<TmWord> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = v;

  constexpr uint64_t kGrain = 256;
  std::atomic<bool> changed{true};
  while (changed.load(std::memory_order_relaxed)) {
    changed.store(false, std::memory_order_relaxed);
    ParallelForChunked(
        pool, 0, n, kGrain,
        [&](int worker, uint64_t lo, uint64_t hi) {
          // Isolated vertices never run a transaction (same skip rule as
          // the per-item loop); the batch covers the survivors.
          std::array<VertexId, kGrain> vs;
          std::array<bool, kGrain> txn_changed;
          uint64_t cnt = 0;
          for (uint64_t i = lo; i < hi; ++i) {
            const VertexId v = static_cast<VertexId>(i);
            if (graph.OutDegree(v) == 0) continue;
            vs[cnt++] = v;
          }
          RunBatch(
              tm, worker, 0, cnt,
              [&](uint64_t k) { return graph.OutDegree(vs[k]) + 1; },
              [&](auto& txn, uint64_t k) {
                const VertexId v = vs[k];
                txn_changed[k] = false;
                TmWord best = txn.Read(v, &label[v]);
                for (const VertexId u : graph.OutNeighbors(v)) {
                  const TmWord lu = txn.Read(u, &label[u]);
                  if (lu < best) best = lu;
                }
                if (best < txn.Read(v, &label[v])) {
                  txn.Write(v, &label[v], best);
                  txn_changed[k] = true;
                }
              });
          bool local_changed = false;
          for (uint64_t k = 0; k < cnt; ++k) local_changed |= txn_changed[k];
          if (local_changed) changed.store(true, std::memory_order_relaxed);
        });
  }
  return label;
}

}  // namespace tufast

#endif  // TUFAST_ALGORITHMS_WCC_H_
