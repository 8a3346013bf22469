// Reproduces paper Fig. 17: static vs adaptive `period` on PageRank over
// the largest dataset. As PageRank converges, the still-active vertices
// are the densely connected (high-degree, high-contention) ones, so a
// static period stops being optimal; the contention monitor adapts it.
//
// Reported per iteration: throughput with the static parameter (1000),
// throughput with adaptive selection, and the adaptive period itself.
// The paper's two claims — adaptive >= static overall, and an adaptive
// period that moves as the active set concentrates — are printed with
// `holds` or `differs` and the measured values; they are recorded, not
// gated. On the default 64 x 8 cache the second cannot hold: max_period
// defaults to max(min_period, CapacityOptimalOps) = max(100, 89) = 100 =
// min_period, so the adaptive period is pinned at 100.

#include <algorithm>
#include <cstdio>

#include "algorithms/pagerank.h"
#include "bench/bench_common.h"
#include "bench_support/datasets.h"
#include "bench_support/reporting.h"
#include "common/timer.h"
#include "htm/emulated_htm.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

// One PageRank iteration with per-iteration instrumentation: like
// PageRankTm's loop body, but over only the still-active vertex set,
// which concentrates on the dense core as ranks converge.
struct IterationStats {
  double millis = 0;
  uint64_t txns = 0;
  uint64_t active_after = 0;
};

template <typename Scheduler>
IterationStats RunIteration(Scheduler& tm, ThreadPool& pool,
                            const Graph& graph,
                            const Graph& reversed, std::vector<double>& rank,
                            std::vector<double>& inv_out_degree,
                            std::vector<uint8_t>& active, double threshold) {
  const VertexId n = graph.NumVertices();
  const double base = 0.15 / n;
  std::atomic<uint64_t> txns{0};
  std::atomic<uint64_t> active_after{0};
  WallTimer timer;
  ParallelForChunked(
      pool, 0, n, 256, [&](int worker, uint64_t lo, uint64_t hi) {
        uint64_t local_txns = 0, local_active = 0;
        for (uint64_t i = lo; i < hi; ++i) {
          const VertexId v = static_cast<VertexId>(i);
          if (!active[v]) continue;
          double next = 0, prev = 0;
          tm.Run(worker, reversed.OutDegree(v) + 1, [&](auto& txn) {
            double sum = 0;
            for (const VertexId u : reversed.OutNeighbors(v)) {
              sum += txn.ReadDouble(u, &rank[u]) * inv_out_degree[u];
            }
            next = base + 0.85 * sum;
            prev = txn.ReadDouble(v, &rank[v]);
            txn.WriteDouble(v, &rank[v], next);
          });
          ++local_txns;
          if (std::fabs(next - prev) < threshold) {
            active[v] = 0;  // Converged: vote to halt.
          } else {
            ++local_active;
          }
        }
        txns.fetch_add(local_txns, std::memory_order_relaxed);
        active_after.fetch_add(local_active, std::memory_order_relaxed);
      });
  return {timer.ElapsedMillis(), txns.load(), active_after.load()};
}

int Main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv, /*default=*/0.25);
  ThreadPool pool(flags.threads);
  const auto spec = BenchDatasets(flags.scale)[3];  // uk-2007-s (largest).
  const Graph graph = GenerateDataset(spec);
  const Graph reversed = graph.Reversed();
  const VertexId n = graph.NumVertices();
  const int iterations = flags.quick ? 6 : 12;
  const double threshold = 1e-9;

  std::vector<double> inv_out_degree(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    if (graph.OutDegree(v) > 0) inv_out_degree[v] = 1.0 / graph.OutDegree(v);
  }

  EmulatedHtm static_htm, adaptive_htm;
  TuFast::Config static_config;
  static_config.adaptive_period = false;
  static_config.static_period = 1000;
  TuFast static_tm(static_htm, n, static_config);
  // The adaptive run is instrumented: the reported period is the last
  // O-mode `period` the scheduler actually attempted (telemetry event),
  // not the monitor's internal estimate.
  TuFastInstrumented adaptive_tm(adaptive_htm, n);  // Adaptive by default.

  std::vector<double> static_rank(n, 1.0 / n), adaptive_rank(n, 1.0 / n);
  std::vector<uint8_t> static_active(n, 1), adaptive_active(n, 1);

  ReportTable table({"iteration", "static txn/s", "adaptive txn/s",
                     "adaptive period", "active vertices"});
  IterationStats static_total, adaptive_total;
  int iterations_run = 0, adaptive_wins = 0;
  // Range of the periods O mode attempted (0 = none yet).
  uint64_t min_seen = 0, max_seen = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    const IterationStats s =
        RunIteration(static_tm, pool, graph, reversed, static_rank,
                     inv_out_degree, static_active, threshold);
    const IterationStats a =
        RunIteration(adaptive_tm, pool, graph, reversed, adaptive_rank,
                     inv_out_degree, adaptive_active, threshold);
    const EventTelemetry* telemetry = adaptive_tm.TelemetryForWorker(0);
    const double static_rate = s.millis > 0 ? s.txns / (s.millis / 1e3) : 0;
    const double adaptive_rate = a.millis > 0 ? a.txns / (a.millis / 1e3) : 0;
    const uint64_t period = telemetry ? telemetry->Snapshot().last_period : 0;
    table.AddRow({ReportTable::Int(iter + 1), ReportTable::Num(static_rate),
                  ReportTable::Num(adaptive_rate), ReportTable::Int(period),
                  ReportTable::Int(a.active_after)});
    static_total.millis += s.millis;
    static_total.txns += s.txns;
    adaptive_total.millis += a.millis;
    adaptive_total.txns += a.txns;
    ++iterations_run;
    if (adaptive_rate >= static_rate) ++adaptive_wins;
    if (period != 0) {
      min_seen = min_seen == 0 ? period : std::min(min_seen, period);
      max_seen = std::max(max_seen, period);
    }
    if (a.active_after == 0 && s.active_after == 0) break;
  }
  JsonReport::AddTelemetry("fig17 adaptive run",
                           adaptive_tm.AggregatedStats(),
                           adaptive_tm.AggregatedTelemetry().Snapshot());
  table.Print(
      "Fig. 17 — static (period=1000) vs adaptive period, PageRank on " +
      spec.name);
  // Recorded, not gated: a paper claim this host does not reproduce
  // prints `differs`, and the run still succeeds.
  const double static_rate =
      static_total.millis > 0 ? static_total.txns / static_total.millis : 0;
  const double adaptive_rate =
      adaptive_total.millis > 0 ? adaptive_total.txns / adaptive_total.millis
                                : 0;
  const double ratio = static_rate > 0 ? adaptive_rate / static_rate : 0;
  std::printf(
      "claim: adaptive throughput >= static overall: %s (adaptive / static "
      "= %.3f over %d iterations; adaptive won %d of them)\n",
      ratio >= 1.0 ? "holds" : "differs", ratio, iterations_run,
      adaptive_wins);
  const ContentionMonitor* monitor = adaptive_tm.MonitorForWorker(0);
  std::printf(
      "claim: the adaptive period departs from its initial value: %s "
      "(adaptive period in [%llu, %llu] over %d iterations; min_period %u, "
      "max_period %u)\n",
      min_seen != max_seen ? "holds" : "differs",
      static_cast<unsigned long long>(min_seen),
      static_cast<unsigned long long>(max_seen), iterations_run,
      adaptive_tm.config().min_period,
      monitor != nullptr ? monitor->config().max_period : 0);
  return 0;
}

}  // namespace
}  // namespace tufast

int main(int argc, char** argv) { return tufast::Main(argc, argv); }
