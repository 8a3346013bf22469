#ifndef TUFAST_BENCH_THROUGHPUT_FIGURE_H_
#define TUFAST_BENCH_THROUGHPUT_FIGURE_H_

// Shared harness for paper Fig. 13 (RM) and Fig. 14 (RW): scheduler
// throughput across the datasets for all seven schedulers.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "bench_support/datasets.h"
#include "bench_support/micro_workload.h"
#include "bench_support/reporting.h"
#include "htm/emulated_htm.h"
#include "htm/native_htm.h"
#include "tm/scheduler_2pl.h"
#include "tm/scheduler_hsync.h"
#include "tm/scheduler_hto.h"
#include "tm/scheduler_silo.h"
#include "tm/scheduler_tinystm.h"
#include "tm/tufast.h"

namespace tufast {
namespace bench_detail {

template <typename Htm, typename Scheduler>
double Throughput(const Graph& graph, ThreadPool& pool,
                  MicroWorkloadKind kind, uint64_t txns,
                  uint32_t mid_txn_delay_us, uint64_t seed) {
  Htm htm;
  Scheduler tm(htm, graph.NumVertices());
  std::vector<TmWord> values(graph.NumVertices(), 0);
  MicroWorkloadOptions options;
  options.kind = kind;
  options.transactions_per_thread = txns;
  options.mid_txn_delay_us = mid_txn_delay_us;
  options.seed = seed;
  const auto result = RunMicroWorkload(tm, pool, graph, values, options);
  return result.TxnPerSec();
}

/// Instrumented TuFast pass over the same workload: telemetry snapshot
/// per dataset (mode shares, time-in-mode, transition counts). Measured
/// throughput above always uses NullTelemetry so the numbers stay fair;
/// this pass pays for clocks and is reported separately.
template <typename Htm>
void TelemetrySharePass(const Graph& graph, ThreadPool& pool,
                        MicroWorkloadKind kind, uint64_t txns,
                        uint32_t mid_txn_delay_us, uint64_t seed,
                        const std::string& label, ReportTable& table) {
  Htm htm;
  TuFastScheduler<Htm, EventTelemetry> tm(htm, graph.NumVertices());
  std::vector<TmWord> values(graph.NumVertices(), 0);
  MicroWorkloadOptions options;
  options.kind = kind;
  options.transactions_per_thread = txns;
  options.mid_txn_delay_us = mid_txn_delay_us;
  options.seed = seed;
  RunMicroWorkload(tm, pool, graph, values, options);

  const SchedulerStats stats = tm.AggregatedStats();
  const TelemetrySnapshot& snap = tm.AggregatedTelemetry().Snapshot();
  JsonReport::AddTelemetry(label, stats, snap);
  const double commits =
      static_cast<double>(stats.commits ? stats.commits : 1);
  uint64_t mode_commits[kNumSchedModes] = {};
  for (int c = 0; c < kNumTxnClasses; ++c) {
    mode_commits[static_cast<int>(ModeOfClass(static_cast<TxnClass>(c)))] +=
        stats.class_count[c];
  }
  uint64_t total_mode_ns = 0;
  for (uint64_t ns : snap.time_in_mode_ns) total_mode_ns += ns;
  const double ns_total =
      static_cast<double>(total_mode_ns ? total_mode_ns : 1);
  uint64_t fallback_transitions = 0;
  for (int m = 0; m < kNumSchedModes; ++m) {
    for (int n = 0; n < kNumSchedModes; ++n) {
      if (m != n) fallback_transitions += snap.transitions[m][n];
    }
  }
  table.AddRow(
      {label, ReportTable::Num(100.0 * mode_commits[0] / commits),
       ReportTable::Num(100.0 * mode_commits[1] / commits),
       ReportTable::Num(100.0 * mode_commits[2] / commits),
       ReportTable::Num(100.0 * snap.time_in_mode_ns[0] / ns_total),
       ReportTable::Num(100.0 * snap.time_in_mode_ns[1] / ns_total),
       ReportTable::Num(100.0 * snap.time_in_mode_ns[2] / ns_total),
       ReportTable::Int(fallback_transitions)});
}

/// Runs all seven schedulers on one HTM backend. The native backend is
/// preferred when real RTM commits on this machine: the emulated backend
/// charges a software cost per hardware-transaction operation, which
/// inverts the paper's premise that HTM operations are nearly free
/// (EXPERIMENTS.md discusses the bias in detail).
template <typename Htm>
void RunAllSchedulers(int argc, char** argv, MicroWorkloadKind kind,
                      const char* figure_name, const char* expected,
                      const char* backend_name, uint32_t delay_us) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv, /*default=*/0.25);
  ThreadPool pool(flags.threads);
  uint64_t txns = flags.quick ? 1500 : 6000;
  if (delay_us > 0) txns = flags.quick ? 400 : 1200;

  ReportTable table({"dataset", "TuFast", "2PL", "OCC", "STM", "HSync",
                     "H-TO", "TuFast / best-other"});
  ReportTable shares({"dataset", "%txns H", "%txns O", "%txns L", "%time H",
                      "%time O", "%time L", "mode fallbacks"});
  for (const auto& spec : BenchDatasets(flags.scale)) {
    const Graph graph = GenerateDataset(spec);
    const double tufast = Throughput<Htm, TuFastScheduler<Htm>>(
        graph, pool, kind, txns, delay_us, flags.seed);
    const double t2pl = Throughput<Htm, TwoPhaseLocking<Htm>>(
        graph, pool, kind, txns, delay_us, flags.seed);
    const double occ = Throughput<Htm, SiloOcc<Htm>>(graph, pool, kind, txns,
                                                     delay_us, flags.seed);
    const double stm = Throughput<Htm, TinyStm<Htm>>(graph, pool, kind, txns,
                                                     delay_us, flags.seed);
    const double hsync = Throughput<Htm, HsyncHybrid<Htm>>(
        graph, pool, kind, txns, delay_us, flags.seed);
    const double hto = Throughput<Htm, HtmTimestampOrdering<Htm>>(
        graph, pool, kind, txns, delay_us, flags.seed);
    const double best_other = std::max({t2pl, occ, stm, hsync, hto});
    table.AddRow({spec.name, ReportTable::Num(tufast), ReportTable::Num(t2pl),
                  ReportTable::Num(occ), ReportTable::Num(stm),
                  ReportTable::Num(hsync), ReportTable::Num(hto),
                  ReportTable::Num(best_other > 0 ? tufast / best_other : 0)});
    TelemetrySharePass<Htm>(graph, pool, kind, txns, delay_us, flags.seed,
                            spec.name + std::string(" [") + backend_name + "]",
                            shares);
  }
  table.Print(std::string(figure_name) + " [" + backend_name + "]");
  shares.Print(std::string(figure_name) + " — TuFast mode shares [" +
               backend_name + "] (instrumented pass)");
  std::printf("%s\n", expected);
}

/// Three measurement regimes (see EXPERIMENTS.md):
///  1. native RTM, uncontended: honest hardware costs, but a single-core
///     host gives the degree-oblivious hybrids' global fallbacks a free
///     ride (no concurrency to punish them);
///  2. emulated, uncontended: portable baseline; charges a software cost
///     per hardware op, which biases *against* the HTM-heavy schedulers;
///  3. emulated with forced temporal overlap (mid-transaction delay):
///     restores the multi-core contention the paper's comparison is
///     about — this is where scheduler POLICY differences dominate
///     per-operation costs.
int RunThroughputFigure(int argc, char** argv, MicroWorkloadKind kind,
                        const char* figure_name, const char* expected) {
  if (NativeHtm::Supported()) {
    RunAllSchedulers<NativeHtm>(argc, argv, kind, figure_name, expected,
                                "native RTM, uncontended", 0);
  } else {
    std::printf("(native RTM unavailable; emulated backend only)\n");
  }
  RunAllSchedulers<EmulatedHtm>(argc, argv, kind, figure_name, expected,
                                "emulated, uncontended", 0);
  RunAllSchedulers<EmulatedHtm>(argc, argv, kind, figure_name, expected,
                                "emulated, forced overlap (contended)", 30);
  return 0;
}

}  // namespace bench_detail

using bench_detail::RunThroughputFigure;

}  // namespace tufast

#endif  // TUFAST_BENCH_THROUGHPUT_FIGURE_H_
