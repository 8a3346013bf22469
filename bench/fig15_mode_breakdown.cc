// Reproduces paper Fig. 15: TuFast execution-trace breakdown by mode
// class for the RM and RW workloads — committed-transaction counts
// (15a/15c) and total committed operations (15b/15d) in each class:
//   H   : one hardware transaction;
//   O   : optimistic mode, first attempt;
//   O+  : optimistic mode after period adjustment;
//   O2L : optimistic gave up, finished under locks;
//   L   : routed to locks directly (huge size hint).
//
// Expected shape: H dominates transaction counts (power-law: most
// vertices are small); O/O+ carry a large share of the OPERATIONS
// (medium-degree vertices are few but big); L counts are tiny yet its
// per-transaction sizes are the largest in the graph.

#include <cstdio>

#include "bench/bench_common.h"
#include "bench_support/datasets.h"
#include "bench_support/micro_workload.h"
#include "bench_support/reporting.h"
#include "htm/emulated_htm.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

void RunBreakdown(const Graph& graph, ThreadPool& pool,
                  MicroWorkloadKind kind, const std::string& title,
                  uint64_t txns_per_thread, uint64_t seed, bool batched) {
  EmulatedHtm htm;
  TuFastInstrumented tm(htm, graph.NumVertices());
  std::vector<TmWord> values(graph.NumVertices(), 0);
  MicroWorkloadOptions options;
  options.kind = kind;
  options.transactions_per_thread = txns_per_thread;
  options.seed = seed;
  if (batched) {
    RunMicroWorkloadBatched(tm, pool, graph, values, options);
  } else {
    RunMicroWorkload(tm, pool, graph, values, options);
  }

  // Counts come from SchedulerStats; the telemetry snapshot adds the
  // per-class commit latency.
  const SchedulerStats stats = tm.AggregatedStats();
  const TelemetrySnapshot& snap = tm.AggregatedTelemetry().Snapshot();
  JsonReport::AddTelemetry(title, stats, snap);
  const uint64_t total_txns = stats.commits;
  const uint64_t total_ops = stats.ops_committed;

  ReportTable table({"class", "committed txns", "% txns", "committed ops",
                     "% ops", "avg ops/txn", "p50 latency ns"});
  for (int c = 0; c < kNumTxnClasses; ++c) {
    const uint64_t count = stats.class_count[c];
    const uint64_t ops = stats.class_ops[c];
    table.AddRow(
        {TxnClassName(static_cast<TxnClass>(c)), ReportTable::Int(count),
         ReportTable::Num(total_txns ? 100.0 * count / total_txns : 0),
         ReportTable::Int(ops),
         ReportTable::Num(total_ops ? 100.0 * ops / total_ops : 0),
         ReportTable::Num(count ? static_cast<double>(ops) / count : 0),
         ReportTable::Int(snap.commit_latency_ns[c].ApproxQuantile(0.5))});
  }
  table.Print(title);
  // Lock elision (DESIGN.md "Lock elision"): the share of hardware
  // transactions that subscribed the held word instead of per-vertex
  // lock words, i.e. how often the property its gain rests on held.
  const uint64_t begins = tm.AggregatedHtmStats().begins;
  std::printf("elided lock checks: %llu of %llu hardware transactions "
              "(%.1f%%)\n",
              static_cast<unsigned long long>(stats.elided_attempts),
              static_cast<unsigned long long>(begins),
              begins ? 100.0 * stats.elided_attempts / begins : 0.0);
  PrintFusionSummary(stats, snap, "fusion summary — " + title);
  PrintProgressSummary(stats, snap, "progress guard — " + title);
}

int Main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv, /*default=*/1.0);
  ThreadPool pool(flags.threads);
  const uint64_t txns = flags.quick ? 2000 : 10000;
  const auto spec = BenchDatasets(flags.scale)[1];  // twitter-s.
  const Graph graph = GenerateDataset(spec);

  RunBreakdown(graph, pool, MicroWorkloadKind::kReadMostly,
               "Fig. 15a/15b — mode breakdown, RM workload (" + spec.name +
                   ")",
               txns, flags.seed, /*batched=*/false);
  RunBreakdown(graph, pool, MicroWorkloadKind::kReadWrite,
               "Fig. 15c/15d — mode breakdown, RW workload (" + spec.name +
                   ")",
               txns, flags.seed, /*batched=*/false);
  // Batched twin of the RM breakdown: the same transaction stream driven
  // through the batch executor, so small H transactions fuse into
  // group-committed regions. The class split must match the per-item run
  // (each fused item still counts as one H commit); the fusion summary
  // table shows the achieved widths and bisection behavior.
  RunBreakdown(graph, pool, MicroWorkloadKind::kReadMostly,
               "mode breakdown, RM workload, fused batches (" + spec.name +
                   ")",
               txns, flags.seed, /*batched=*/true);
  std::printf(
      "expected shape: H carries most transactions; O/O+ a major share of "
      "operations; L/O2L few transactions but the largest sizes; the fused "
      "pass reproduces the same class split while packing multiple H items "
      "per hardware region.\n");
  return 0;
}

}  // namespace
}  // namespace tufast

int main(int argc, char** argv) { return tufast::Main(argc, argv); }
