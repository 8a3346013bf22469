// Reproduces paper Fig. 11: TuFast vs single-server systems on the six
// graph applications over the four (scaled) datasets.
//
// System stand-ins (see DESIGN.md):
//   TuFast  - this library (three-mode HyTM);
//   STM     - the same TM algorithms on the TinySTM-like scheduler
//             (hardware instructions replaced by software);
//   Ligra   - BSP engine, direct CAS delivery (frontier edgeMap, Jacobi);
//   Galois  - the same TM algorithms on plain 2PL (lock-based in-place);
//   Polymer - BSP engine with materialized per-worker message staging
//             (NUMA-style buffering).
//
// Expected shape: TuFast >= all on the propagation-bound jobs (PageRank,
// Components, MIS) thanks to in-place updates; close on BFS/Triangle
// where overheads dominate and nothing propagates iteratively.

#include <cstdio>
#include <functional>

#include "algorithms/bfs.h"
#include "algorithms/matching.h"
#include "algorithms/mis.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/triangle.h"
#include "algorithms/wcc.h"
#include "bench/bench_common.h"
#include "bench_support/datasets.h"
#include "bench_support/reporting.h"
#include "common/timer.h"
#include "engines/bsp_algorithms.h"
#include "engines/bsp_engine.h"
#include "htm/emulated_htm.h"
#include "htm/native_htm.h"
#include "tm/scheduler_2pl.h"
#include "tm/scheduler_tinystm.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

struct Inputs {
  Graph graph;
  Graph undirected;
  Graph reversed;
  Graph triangle_graph;  // Smaller: triangle work is quadratic in degree.
};

constexpr double kPrTolerance = 1e-8;
constexpr int kPrMaxIters = 30;

template <typename Htm, typename Scheduler>
void RunTmSystem(const Inputs& in, ThreadPool& pool,
                 std::vector<std::string>* rows) {
  Htm htm;
  Scheduler tm(htm, in.graph.NumVertices());
  Htm tri_htm;
  Scheduler tri_tm(tri_htm, in.triangle_graph.NumVertices());
  WallTimer timer;
  auto lap = [&timer, rows] {
    rows->push_back(ReportTable::Num(timer.ElapsedMillis()));
    timer.Restart();
  };
  PageRankTm(tm, pool, in.graph, in.reversed,
             {.max_iterations = kPrMaxIters, .tolerance = kPrTolerance});
  lap();
  BfsTm(tm, pool, in.graph, 0);
  lap();
  WccTm(tm, pool, in.undirected);
  lap();
  TriangleCountTm(tri_tm, pool, in.triangle_graph);
  lap();
  SsspTm(tm, pool, in.graph, 0, SsspDiscipline::kBellmanFord);
  lap();
  MisTm(tm, pool, in.undirected);
  lap();
}

void RunBspSystem(const Inputs& in, ThreadPool& pool, BspDelivery delivery,
                  std::vector<std::string>* rows) {
  BspEngine engine(pool, delivery);
  WallTimer timer;
  auto lap = [&timer, rows] {
    rows->push_back(ReportTable::Num(timer.ElapsedMillis()));
    timer.Restart();
  };
  BspPageRank(engine, in.graph, 0.85, kPrMaxIters, kPrTolerance);
  lap();
  BspBfs(engine, in.graph, 0);
  lap();
  BspWcc(engine, in.undirected);
  lap();
  BspTriangleCount(engine, in.triangle_graph);
  lap();
  BspSssp(engine, in.graph, 0);
  lap();
  BspMis(engine, in.undirected, 42);
  lap();
}

template <typename Htm>
void RunDatasets(const BenchFlags& flags, ThreadPool& pool,
                 const char* backend_name) {
  const char* algorithms[] = {"PageRank", "BFS",         "Components",
                              "Triangle", "BellmanFord", "MIS"};
  for (const auto& spec : BenchDatasets(flags.scale)) {
    const Graph graph = GenerateDataset(spec, /*weighted=*/true);
    DatasetSpec tri_spec = spec;
    tri_spec.num_vertices = spec.num_vertices / 4;
    Inputs in{graph.Clone(), graph.Undirected(), graph.Reversed(),
              GenerateDataset(tri_spec).Undirected()};

    // Collect a column of six times per system. The TM systems (TuFast,
    // STM, Galois-like 2PL) run on `Htm`; the BSP engines are
    // backend-independent.
    std::vector<std::string> tufast_col, stm_col, ligra_col, galois_col,
        polymer_col;
    RunTmSystem<Htm, TuFastScheduler<Htm>>(in, pool, &tufast_col);
    RunTmSystem<Htm, TinyStm<Htm>>(in, pool, &stm_col);
    RunBspSystem(in, pool, BspDelivery::kDirect, &ligra_col);
    RunTmSystem<Htm, TwoPhaseLocking<Htm>>(in, pool, &galois_col);
    RunBspSystem(in, pool, BspDelivery::kMaterialized, &polymer_col);

    ReportTable table({"algorithm", "TuFast (ms)", "STM (ms)",
                       "Ligra-like (ms)", "Galois-like (ms)",
                       "Polymer-like (ms)"});
    for (int a = 0; a < 6; ++a) {
      table.AddRow({algorithms[a], tufast_col[a], stm_col[a], ligra_col[a],
                    galois_col[a], polymer_col[a]});
    }
    table.Print("Fig. 11 — single-server systems, dataset " + spec.name +
                " (|V|=" + ReportTable::Int(graph.NumVertices()) +
                " |E|=" + ReportTable::Int(graph.NumEdges()) + ") [" +
                backend_name + "]");
  }
}

int Main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv, /*default=*/0.2);
  ThreadPool pool(flags.threads);
  if (NativeHtm::Supported()) {
    RunDatasets<NativeHtm>(flags, pool, "native RTM");
  } else {
    std::printf("(native RTM unavailable; emulated backend only)\n");
    RunDatasets<EmulatedHtm>(flags, pool, "emulated");
  }
  std::printf(
      "expected shape: TuFast leads or ties the TM systems; the BSP "
      "engines pay extra Jacobi iterations on PageRank/Components (no "
      "in-place propagation); STM slower than native TuFast (software "
      "bookkeeping on every op).\n");
  return 0;
}

}  // namespace
}  // namespace tufast

int main(int argc, char** argv) { return tufast::Main(argc, argv); }
