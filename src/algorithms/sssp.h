#ifndef TUFAST_ALGORITHMS_SSSP_H_
#define TUFAST_ALGORITHMS_SSSP_H_

#include <atomic>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "htm/htm_config.h"
#include "runtime/thread_pool.h"
#include "runtime/worklist.h"
#include "tm/batch_executor.h"

namespace tufast {

inline constexpr TmWord kSsspInfinity = ~TmWord{0};

/// Scheduling discipline for the relaxation worklist — the paper's Fig. 3
/// point: Bellman-Ford and SPFA are the *same* TM program, differing only
/// in the queue type, a flexibility BSP systems cannot offer.
enum class SsspDiscipline {
  kBellmanFord,  ///< FIFO worklist.
  kSpfa,         ///< Priority worklist (closest-distance-first).
};

/// Single-source shortest paths by worklist-driven relaxation on the
/// TuFast API. One transaction per popped vertex relaxes all of its
/// out-edges (size hint = degree). `graph` must be weighted.
template <typename Scheduler>
std::vector<TmWord> SsspTm(Scheduler& tm, ThreadPool& pool, const Graph& graph,
                           VertexId source,
                           SsspDiscipline discipline = SsspDiscipline::kSpfa) {
  TUFAST_CHECK(graph.HasWeights());
  const VertexId n = graph.NumVertices();
  std::vector<TmWord> dist(n, kSsspInfinity);
  std::vector<TmWord> in_queue(n, 0);
  dist[source] = 0;
  in_queue[source] = 1;

  ConcurrentQueue<VertexId> fifo;
  ConcurrentPriorityQueue<VertexId, TmWord> prio;
  const bool use_fifo = discipline == SsspDiscipline::kBellmanFord;
  if (use_fifo) {
    fifo.Push(source);
  } else {
    prio.Push(source, 0);
  }

  // Popped vertices are relaxed in batches so the batch executor can
  // fuse their transactions; relaxation is confluent, so the final
  // distances are independent of the pop grouping.
  constexpr size_t kDrainBatch = 16;
  std::atomic<int> active{0};
  pool.RunOnAll([&](int worker) {
    // Per-item push lists, collected by each item's committed execution
    // and drained only after RunBatch returns.
    std::vector<std::vector<std::pair<VertexId, TmWord>>> to_push(kDrainBatch);
    auto process = [&](int w, const std::vector<VertexId>& batch) {
      RunBatch(
          tm, w, 0, batch.size(),
          [&](uint64_t k) { return graph.OutDegree(batch[k]) + 1; },
          [&](auto& txn, uint64_t k) {
            const VertexId v = batch[k];
            auto& pushes = to_push[k];
            pushes.clear();
            txn.Write(v, &in_queue[v], 0);
            const TmWord dv = txn.Read(v, &dist[v]);
            if (dv == kSsspInfinity) return;
            for (EdgeId e = graph.EdgeBegin(v); e < graph.EdgeEnd(v); ++e) {
              const VertexId u = graph.EdgeTarget(e);
              const TmWord candidate = dv + graph.EdgeWeight(e);
              if (candidate < txn.Read(u, &dist[u])) {
                txn.Write(u, &dist[u], candidate);
                if (txn.Read(u, &in_queue[u]) == 0) {
                  txn.Write(u, &in_queue[u], 1);
                  pushes.emplace_back(u, candidate);
                }
              }
            }
          });
      for (size_t k = 0; k < batch.size(); ++k) {
        for (const auto& [u, d] : to_push[k]) {
          if (use_fifo) {
            fifo.Push(u);
          } else {
            prio.Push(u, d);
          }
        }
      }
    };
    if (use_fifo) {
      DrainWorklistBatched(fifo, worker, active, kDrainBatch, process);
    } else {
      DrainWorklistBatched(prio, worker, active, kDrainBatch, process);
    }
  });
  return dist;
}

}  // namespace tufast

#endif  // TUFAST_ALGORITHMS_SSSP_H_
