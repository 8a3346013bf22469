// Reproduces paper Fig. 12: TuFast on one multi-core server vs
// distributed systems on a simulated 16-node cluster (PowerGraph /
// PowerLyra stand-ins) and an out-of-core single server (GraphChi
// stand-in).
//
// Simulation parameters are RATIO-PRESERVING: datasets here are ~1000x
// smaller than the paper's, so the simulated NIC and disk bandwidths are
// scaled by the same factor, keeping each architecture's
// communication:computation ratio at full-size values (EXPERIMENTS.md).
//
// Expected shape: TuFast one to multiple orders of magnitude faster;
// PowerLyra < PowerGraph (lower replication factor); GraphChi slowest or
// close to it on iterative jobs (full edge-stream per super-step).

#include <cstdio>

#include "algorithms/bfs.h"
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
#include "engines/dist_engine.h"
#include "engines/ooc_algorithms.h"
#include "engines/ooc_engine.h"
#include "htm/emulated_htm.h"
#include "htm/native_htm.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

constexpr double kPrTolerance = 1e-8;
constexpr int kPrMaxIters = 20;

// Paper-scale graphs are ~1000x larger than the scaled stand-ins; scale
// the simulated wire/disk bandwidth identically (see file header).
constexpr double kScaleFactor = 1.0 / 1000.0;

template <typename Htm>
void RunTuFast(const Graph& graph, const Graph& undirected,
               const Graph& reversed, const Graph& tri, ThreadPool& pool,
               std::vector<std::string>* col) {
  Htm htm;
  TuFastScheduler<Htm> tm(htm, graph.NumVertices());
  Htm tri_htm;
  TuFastScheduler<Htm> tri_tm(tri_htm, tri.NumVertices());
  WallTimer timer;
  auto lap = [&] {
    col->push_back(ReportTable::Num(timer.ElapsedMillis()));
    timer.Restart();
  };
  PageRankTm(tm, pool, graph, reversed,
             {.max_iterations = kPrMaxIters, .tolerance = kPrTolerance});
  lap();
  BfsTm(tm, pool, graph, 0);
  lap();
  WccTm(tm, pool, undirected);
  lap();
  TriangleCountTm(tri_tm, pool, tri);
  lap();
  SsspTm(tm, pool, graph, 0, SsspDiscipline::kBellmanFord);
  lap();
  MisTm(tm, pool, undirected);
  lap();
}

void RunDist(const Graph& graph, const Graph& undirected, const Graph& tri,
             ThreadPool& pool, DistCut cut, std::vector<std::string>* col) {
  DistConfig config;
  config.cut = cut;
  config.bandwidth_bytes_per_sec = 125.0e6 * kScaleFactor;
  config.round_latency_sec = 1.0e-3;
  DistEngine engine(pool, graph, config);
  DistEngine u_engine(pool, undirected, config);
  DistEngine tri_engine(pool, tri, config);
  // Reported time = measured wall time + accounted (not slept) simulated
  // network time.
  WallTimer timer;
  double sim_base = 0;
  auto sim_now = [&] {
    return engine.SimulatedNetworkSeconds() +
           u_engine.SimulatedNetworkSeconds() +
           tri_engine.SimulatedNetworkSeconds();
  };
  auto lap = [&] {
    const double sim_ms = (sim_now() - sim_base) * 1e3;
    sim_base = sim_now();
    col->push_back(ReportTable::Num(timer.ElapsedMillis() + sim_ms));
    timer.Restart();
  };
  BspPageRank(engine, graph, 0.85, kPrMaxIters, kPrTolerance);
  lap();
  BspBfs(engine, graph, 0);
  lap();
  BspWcc(u_engine, undirected);
  lap();
  BspTriangleCount(tri_engine, tri);
  lap();
  BspSssp(engine, graph, 0);
  lap();
  BspMis(u_engine, undirected, 42);
  lap();
}

void RunOoc(const Graph& graph, const Graph& undirected, const Graph& tri,
            ThreadPool& pool, std::vector<std::string>* col) {
  OocConfig config;
  // r3.8xlarge-era SSD (~450 MB/s), scaled like the datasets.
  config.disk_bandwidth_bytes_per_sec = 450.0e6 * kScaleFactor;
  OocEngine engine(pool, graph, config);
  OocEngine u_engine(pool, undirected, config);
  OocEngine tri_engine(pool, tri, config);
  // Reported time = measured wall time + accounted simulated disk time.
  WallTimer timer;
  double sim_base = 0;
  auto sim_now = [&] {
    return engine.SimulatedDiskSeconds() + u_engine.SimulatedDiskSeconds() +
           tri_engine.SimulatedDiskSeconds();
  };
  auto lap = [&] {
    const double sim_ms = (sim_now() - sim_base) * 1e3;
    sim_base = sim_now();
    col->push_back(ReportTable::Num(timer.ElapsedMillis() + sim_ms));
    timer.Restart();
  };
  OocPageRank(engine, graph, 0.85, kPrMaxIters, kPrTolerance);
  lap();
  OocBfs(engine, graph, 0);
  lap();
  OocWcc(u_engine, undirected);
  lap();
  OocTriangleCount(tri_engine, tri);
  lap();
  OocSssp(engine, graph, 0);
  lap();
  OocMis(u_engine, undirected, 42);
  lap();
}

int Main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv, /*default=*/0.15);
  ThreadPool pool(flags.threads);
  const char* algorithms[] = {"PageRank", "BFS",         "Components",
                              "Triangle", "BellmanFord", "MIS"};

  // Two datasets keep the full sweep fast; pass --scale to widen.
  auto specs = BenchDatasets(flags.scale);
  specs.resize(2);
  for (const auto& spec : specs) {
    const Graph graph = GenerateDataset(spec, /*weighted=*/true);
    const Graph undirected = graph.Undirected();
    const Graph reversed = graph.Reversed();
    DatasetSpec tri_spec = spec;
    tri_spec.num_vertices = spec.num_vertices / 4;
    const Graph tri = GenerateDataset(tri_spec).Undirected();

    std::vector<std::string> tufast_col, pg_col, pl_col, gc_col;
    if (NativeHtm::Supported()) {
      RunTuFast<NativeHtm>(graph, undirected, reversed, tri, pool,
                           &tufast_col);
    } else {
      RunTuFast<EmulatedHtm>(graph, undirected, reversed, tri, pool,
                             &tufast_col);
    }
    RunDist(graph, undirected, tri, pool, DistCut::kRandomVertexCut, &pg_col);
    RunDist(graph, undirected, tri, pool, DistCut::kHybridCut, &pl_col);
    RunOoc(graph, undirected, tri, pool, &gc_col);

    ReportTable table({"algorithm", "TuFast (ms)", "PowerGraph-sim (ms)",
                       "PowerLyra-sim (ms)", "GraphChi-sim (ms)"});
    for (int a = 0; a < 6; ++a) {
      table.AddRow(
          {algorithms[a], tufast_col[a], pg_col[a], pl_col[a], gc_col[a]});
    }
    table.Print("Fig. 12 — distributed/out-of-core systems, dataset " +
                spec.name);
  }
  std::printf(
      "expected shape: TuFast 1-4 orders faster; PowerLyra-sim beats "
      "PowerGraph-sim (hybrid cut -> lower replication); GraphChi-sim pays "
      "a full edge stream per super-step.\n");
  return 0;
}

}  // namespace
}  // namespace tufast

int main(int argc, char** argv) { return tufast::Main(argc, argv); }
