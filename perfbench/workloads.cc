// The four workloads (NOTES.md says why each exists). Each one sets up
// its inputs from --seed, runs a closed loop for --seconds, checks its
// outputs and reports the end-to-end metrics; with --trace 1 it instead
// runs an untraced phase, then a traced phase through the tracing shims,
// and reports the per-layer metrics.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "bench_support/datasets.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "graph/dynamic/dynamic_graph.h"
#include "graph/generators.h"
#include "htm/emulated_htm.h"
#include "runtime/thread_pool.h"
#include "tm/tufast.h"
#include "trace.h"

namespace perfbench {
namespace {

using tufast::ApplyResult;
using tufast::DynamicGraph;
using tufast::EdgeUpdate;
using tufast::EmulatedHtm;
using tufast::Graph;
using tufast::Rng;
using tufast::RunOutcome;
using tufast::SchedulerStats;
using tufast::ThreadPool;
using tufast::TmWord;
using tufast::TuFast;
using tufast::TuFastInstrumented;
using tufast::VertexId;
using tufast::VertexSnapshot;

/// Set-up repeats per process; setup_s is their median (and run.py takes
/// the median over its processes). The first set-ups of a process run
/// slower, so a median over few of them drifts with that warm-up.
constexpr int kSetupRepeats = 7;
constexpr int kMaxThreads = 4;
/// Ledger tolerance: self times along the blocking path must sum to the
/// traced end-to-end time within this share.
constexpr double kLedgerTolerance = 0.10;

uint64_t SeedFor(uint64_t seed, uint64_t salt) {
  uint64_t s = seed * 0x9e3779b97f4a7c15ULL + salt;
  return tufast::SplitMix64(s);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// A traced run splits --seconds between its untraced and traced phases,
/// so it takes about as long as an untraced run.
double PhaseSeconds(const Options& o) {
  return o.trace ? o.seconds / 2 : o.seconds;
}

/// Prints one "label value unit note" metric line in a fixed layout.
void Line(const char* label, double value, const char* unit,
          const std::string& note = "") {
  std::printf("  %-28s %16.6g %-6s %s\n", label, value, unit, note.c_str());
}

/// Host calibration, printed beside every run's metrics and never used to
/// adjust one: the cost of a contended 4-thread fetch_add and the time of
/// a fixed single-thread dependent-arithmetic loop.
void PrintCalibration() {
  constexpr uint64_t kAddsPerThread = uint64_t{1} << 20;
  std::atomic<uint64_t> counter{0};
  std::atomic<int> ready{0};
  const uint64_t t0 = NowNs();
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kMaxThreads; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < kMaxThreads) {
        }
        for (uint64_t i = 0; i < kAddsPerThread; ++i) {
          counter.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }
  const double add_ns = static_cast<double>(NowNs() - t0) /
                        static_cast<double>(kMaxThreads * kAddsPerThread);
  uint64_t h = counter.load();
  const uint64_t t1 = NowNs();
  for (uint64_t i = 0; i < (uint64_t{1} << 25); ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    h ^= h >> 29;
  }
  const double loop_ms = static_cast<double>(NowNs() - t1) / 1e6;
  std::printf("calibration: fetch_add_4t_ns=%.2f loop_ms=%.2f (host drift "
              "indicator, not used to adjust any metric; checksum %llu)\n",
              add_ns, loop_ms, static_cast<unsigned long long>(h & 0xff));
}

/// A timed phase is cut into this many equal slices by completion time,
/// and each end-to-end metric is the median of its per-slice values: a
/// few seconds of host interference inside one slice do not move it.
constexpr int kSlices = 4;

/// Per-slice operation latencies and work done, for one thread or merged.
struct Slices {
  LatencyHist lat[kSlices];
  double work[kSlices] = {};

  void Add(int k, uint64_t lat_ns, double done) {
    lat[k].Add(lat_ns);
    work[k] += done;
  }
  void Merge(const Slices& other) {
    for (int k = 0; k < kSlices; ++k) {
      lat[k].Merge(other.lat[k]);
      work[k] += other.work[k];
    }
  }
};

/// Slice of an operation that completed at `end` in a phase that started
/// at `t0` and was set to run `seconds`; overshoot lands in the last one.
int SliceOf(uint64_t t0, uint64_t end, double seconds) {
  const double f = static_cast<double>(end - t0) / (seconds * 1e9);
  return std::min(kSlices - 1, static_cast<int>(f * kSlices));
}

/// End-to-end result of one timed phase.
struct Phase {
  double nominal = 0;    // the phase's set length
  double seconds = 0;    // timed wall time, including the last op's overshoot
  uint64_t ops = 0;      // operations completed in the timed phase
  uint64_t failed = 0;   // operations whose checks failed
  double work = 0;       // edges / transactions / updates done
  Slices slices;         // per operation: sweep, transaction, batch
  LatencyHist read_lat;  // ingest snapshot reads
  uint64_t reads = 0;
  /// Wall time of the threads on the blocking path, summed (ledger base).
  double blocking_seconds = 0;
  double Throughput() const { return seconds > 0 ? work / seconds : 0; }
};

/// End-to-end metrics of a phase: rate and p50 are medians over its
/// slices; the tail is taken over the whole phase, because a slice of
/// analytics-1w holds too few sweeps for ten to lie beyond its p90.
struct EndToEnd {
  double throughput = 0;  // work per second
  double p50_ns = 0;
  double tail_ns = 0;     // the `tail_q` percentile
};

EndToEnd SliceMedians(Phase& p, double tail_q) {
  std::vector<double> rate, p50;
  LatencyHist all;
  for (int k = 0; k < kSlices; ++k) {
    const double len = k < kSlices - 1
                           ? p.nominal / kSlices
                           : p.seconds - p.nominal * (kSlices - 1) / kSlices;
    rate.push_back(Share(p.slices.work[k], len));
    p50.push_back(p.slices.lat[k].Percentile(0.5));
    all.Merge(p.slices.lat[k]);
  }
  return {Median(rate), Median(p50), all.Percentile(tail_q)};
}

/// Per-layer counters gathered from the public getters after a traced
/// phase, plus the benchmark-side span aggregates.
struct LayerInputs {
  SchedulerStats stats;
  tufast::TelemetrySnapshot tel;
  tufast::HtmStats htm;
  double worker_seconds = 0;  // threads x traced wall time
  double ops = 0;             // normalizer for per-operation counts
  // analytics only: sweep time, and the part outside any RunBatch span
  double sweep_ns = 0;
  double sweep_self_ns = 0;
  // ingest only
  tufast::MvccCounters mvcc_before, mvcc_after;
  uint64_t wal_records = 0, wal_bytes = 0, wal_slow_commits = 0;
};

/// The per-layer metrics BENCHMARK.json names, in its order. Each is a
/// count, share or ratio, or a time that both gated workloads measure, so
/// no time reads a fixed 0 on a workload that does not use its layer.
std::vector<Metric> LayerMetrics(Tracer& tracer, LayerInputs& in,
                                 double overhead_share, double ledger_gap) {
  using tufast::TxnClass;
  const SchedulerStats& st = in.stats;
  auto cls = [&](TxnClass c) {
    return static_cast<double>(st.class_count[static_cast<int>(c)]);
  };
  auto per_op = [&](double count) { return Share(count, in.ops); };
  const double commits = static_cast<double>(st.commits);
  const double l_ns = static_cast<double>(
      in.tel.time_in_mode_ns[static_cast<int>(tufast::SchedMode::kLock)]);
  // The workload's scheduler calls: RunBatch on analytics-1w, Run on txn.
  KindStats calls = tracer.Merged(SpanKind::kRun);
  calls.duration.Merge(tracer.Merged(SpanKind::kRunBatch).duration);
  return {
      {"sync.l_time_share", Share(l_ns / 1e9, in.worker_seconds), "share"},
      {"sync.timeout_victims",
       per_op(static_cast<double>(in.tel.deadlock_timeout_victims)), "1/op"},
      {"sync.cycle_victims",
       per_op(static_cast<double>(in.tel.deadlock_cycle_victims)), "1/op"},
      {"sync.lock_busy_aborts",
       per_op(static_cast<double>(st.lock_busy_aborts)), "1/op"},
      {"tm.commits_l", per_op(cls(TxnClass::kL) + cls(TxnClass::kO2L)),
       "1/op"},
      {"tm.starvation_tokens",
       per_op(static_cast<double>(st.starvation_tokens)), "1/op"},
      {"tm.max_txn_aborts", static_cast<double>(st.max_txn_aborts), "count"},
      {"htm.begins", per_op(static_cast<double>(in.htm.begins)), "1/op"},
      {"htm.commit_ratio",
       Share(static_cast<double>(in.htm.commits),
             static_cast<double>(in.htm.begins)),
       "ratio"},
      {"htm.capacity_aborts",
       per_op(static_cast<double>(in.htm.capacity_aborts)), "1/op"},
      {"htm.conflict_aborts",
       per_op(static_cast<double>(in.htm.conflict_aborts)), "1/op"},
      {"tm.fused_item_share",
       Share(static_cast<double>(st.fused_items), commits), "share"},
      {"tm.fusion_aborts", per_op(static_cast<double>(st.fusion_aborts)),
       "1/op"},
      {"tm.fusion_bisections",
       per_op(static_cast<double>(st.fusion_bisections)), "1/op"},
      {"tm.call_us_p50", calls.duration.Percentile(0.5) / 1e3, "us"},
      {"tm.call_us_p99", calls.duration.Percentile(0.99) / 1e3, "us"},
      {"tm.attempts_per_commit",
       Share(commits + static_cast<double>(st.TotalFailedAttempts()),
             commits),
       "ratio"},
      {"tm.commits_h", per_op(cls(TxnClass::kH)), "1/op"},
      {"tm.commits_o", per_op(cls(TxnClass::kO) + cls(TxnClass::kOPlus)),
       "1/op"},
      {"tm.backoff_events", per_op(static_cast<double>(st.backoff_events)),
       "1/op"},
      {"algorithms.self_share", Share(in.sweep_self_ns, in.sweep_ns),
       "share"},
      {"trace.overhead_share", overhead_share, "share"},
      {"trace.ledger_gap", ledger_gap, "share"},
  };
}

/// The graph, mvcc and durability layer metrics of a traced ingest run.
/// ingest is not in BENCHMARK.json (NOTES.md, "Known defect"), so these
/// are printed, not put in the JSON.
std::vector<Metric> IngestLayerMetrics(Tracer& tracer, LayerInputs& in) {
  auto per_op = [&](double count) { return Share(count, in.ops); };
  KindStats apply = tracer.Merged(SpanKind::kApply);
  KindStats read = tracer.Merged(SpanKind::kRead);
  KindStats publish = tracer.Merged(SpanKind::kWalPublish);
  KindStats commit = tracer.Merged(SpanKind::kWalCommit);
  const tufast::MvccCounters& mb = in.mvcc_before;
  const tufast::MvccCounters& ma = in.mvcc_after;
  const double snapshots = static_cast<double>(ma.snapshots - mb.snapshots);
  return {
      {"graph.apply_self_us_p50", apply.self.Percentile(0.5) / 1e3, "us"},
      {"graph.read_self_us_p50", read.self.Percentile(0.5) / 1e3, "us"},
      {"mvcc.installed_nodes",
       per_op(static_cast<double>(ma.installed_nodes - mb.installed_nodes)),
       "1/op"},
      {"mvcc.max_chain_walk", static_cast<double>(ma.max_chain_walk),
       "count"},
      {"mvcc.limbo_nodes", static_cast<double>(ma.LimboNodes()), "count"},
      {"mvcc.staleness_mean",
       Share(static_cast<double>(ma.staleness_sum - mb.staleness_sum),
             snapshots),
       "commits"},
      {"durability.publish_us_p99", publish.duration.Percentile(0.99) / 1e3,
       "us"},
      {"durability.commit_us_p50", commit.duration.Percentile(0.5) / 1e3,
       "us"},
      {"durability.commit_us_p99", commit.duration.Percentile(0.99) / 1e3,
       "us"},
      {"durability.records_per_flush",
       Share(static_cast<double>(in.wal_records),
             static_cast<double>(in.wal_slow_commits)),
       "ratio"},
      {"durability.bytes_per_update",
       Share(static_cast<double>(in.wal_bytes), in.ops), "B"},
  };
}

/// Prints per-layer values that have no JSON name.
void PrintLayerLines(const std::vector<Metric>& metrics) {
  std::printf("per-layer, printed only:\n");
  for (const Metric& m : metrics) Line(m.name.c_str(), m.value, m.unit.c_str());
}

/// Prints the traced phase's reconciliation and returns whether the
/// ledger closed: self times along the blocking path vs. the traced
/// end-to-end time of the same threads.
bool PrintReconciliation(const Phase& untraced, const Phase& traced,
                         double ledger_s,
                         const std::vector<std::pair<const char*, double>>&
                             parts,
                         double* overhead_share, double* gap) {
  *overhead_share = traced.Throughput() > 0
                        ? untraced.Throughput() / traced.Throughput() - 1.0
                        : 0;
  *gap = Share(traced.blocking_seconds - ledger_s, traced.blocking_seconds);
  std::printf("reconciliation:\n");
  std::printf("  tracing overhead: %+.2f%% time per operation (untraced "
              "%.6g/s, traced %.6g/s)\n",
              100 * *overhead_share, untraced.Throughput(),
              traced.Throughput());
  std::printf("  blocking-path ledger: end-to-end %.4f s, span self times "
              "%.4f s, gap %+.2f%% (limit %.0f%%)\n",
              traced.blocking_seconds, ledger_s, 100 * *gap,
              100 * kLedgerTolerance);
  for (const auto& [name, seconds] : parts) {
    std::printf("    %-26s %.4f s (%.1f%%)\n", name, seconds,
                100 * Share(seconds, traced.blocking_seconds));
  }
  const bool ok = std::fabs(*gap) <= kLedgerTolerance;
  std::printf("  ledger check: %s\n", ok ? "ok" : "FAILED");
  return ok;
}

/// Runs `setup` kSetupRepeats times (tearing down in between through
/// `teardown`) and returns the median duration in seconds.
double TimedSetups(const std::function<void()>& setup,
                   const std::function<void()>& teardown,
                   std::vector<double>* all) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) teardown();
    const uint64_t t0 = NowNs();
    setup();
    all->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Median(*all);
}

void PrintSetup(double median, const std::vector<double>& all) {
  std::printf("setup: median %.4f s over %zu set-ups [", median, all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    std::printf("%s%.4f", i ? " " : "", all[i]);
  }
  std::printf("]\n");
}

std::string Tally(const ApplyResult& r) {
  return "+" + std::to_string(r.inserted) + " -" + std::to_string(r.removed) +
         " ~" + std::to_string(r.updated) + " missing " +
         std::to_string(r.missing);
}

void Check(bool ok, const std::string& what, bool* all_ok) {
  std::printf("check: %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  *all_ok = *all_ok && ok;
}

// ---------------------------------------------------------------------
// analytics / analytics-1w: in-place PageRank sweeps (PageRankTm) over
// the friendster stand-in, one sweep per call, warm-started.

constexpr double kDamping = 0.85;
constexpr int kWarmupSweeps = 2;

template <typename Sched>
struct AnalyticsEnv {
  int workers = 1;
  Graph graph;
  Graph reversed;
  std::unique_ptr<EmulatedHtm> htm;
  std::unique_ptr<Sched> tm;
  std::unique_ptr<ThreadPool> pool;

  void Setup(uint64_t seed) {
    tufast::DatasetSpec spec = tufast::BenchDatasets(0.25)[0];
    spec.seed = SeedFor(seed, 1);
    graph = tufast::GenerateDataset(spec);
    reversed = graph.Reversed();
    htm = std::make_unique<EmulatedHtm>();
    tm = std::make_unique<Sched>(*htm, graph.NumVertices());
    pool = std::make_unique<ThreadPool>(workers);
  }
  void Teardown() {
    pool.reset();
    tm.reset();
    htm.reset();
    graph = Graph();
    reversed = Graph();
  }
};

/// Sweep-level accounting of the traced phase (see NOTES.md):
/// algorithms self time = sweep minus the union of its RunBatch spans;
/// runtime idle = worker time inside a sweep outside any RunBatch span.
struct SweepLedger {
  LatencyHist self;
  double self_ns = 0;
  double covered_ns = 0;
  double idle_ns = 0;
  double worker_ns = 0;
};

void AccountSweep(Tracer& tracer, int workers, uint64_t s, uint64_t e,
                  SweepLedger* ledger) {
  std::vector<std::pair<uint64_t, uint64_t>> all;
  for (int w = 0; w < workers; ++w) {
    ThreadTrace* t = tracer.slot(w);
    double covered = 0;
    for (const auto& iv : t->batch_intervals) {
      covered += static_cast<double>(iv.second - iv.first);
      all.push_back(iv);
    }
    t->batch_intervals.clear();
    const double d = static_cast<double>(e - s);
    ledger->idle_ns += std::max(0.0, d - covered);
    ledger->worker_ns += d;
  }
  std::sort(all.begin(), all.end());
  double uni = 0;
  uint64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : all) {
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) uni += static_cast<double>(cur_hi - cur_lo);
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) uni += static_cast<double>(cur_hi - cur_lo);
  const double d = static_cast<double>(e - s);
  const double self = std::max(0.0, d - uni);
  ledger->self.Add(static_cast<uint64_t>(self));
  ledger->self_ns += self;
  ledger->covered_ns += d - self;
}

/// One timed phase: cold start from uniform ranks, kWarmupSweeps untimed
/// sweeps, then one-sweep calls until the deadline. Checks the final
/// ranks against ReferencePageRank.
template <typename Sched, typename Tm>
Phase AnalyticsPhase(AnalyticsEnv<Sched>& env, Tm& tm, double seconds,
                     Tracer* tracer, SweepLedger* ledger, bool* ok) {
  const VertexId n = env.graph.NumVertices();
  std::vector<double> ranks(n, 1.0 / n);
  auto sweep = [&](auto& sched) {
    tufast::PageRankOptions opts;
    opts.damping = kDamping;
    opts.max_iterations = 1;
    opts.tolerance = 0;
    opts.initial_ranks = &ranks;
    ranks = tufast::PageRankTm(sched, *env.pool, env.graph, env.reversed,
                               opts)
                .ranks;
  };
  // Warm up on the bare scheduler so no warm-up span reaches the trace.
  for (int i = 0; i < kWarmupSweeps; ++i) sweep(*env.tm);
  env.tm->ResetStats();
  if (tracer != nullptr) {
    for (int w = 0; w < env.workers; ++w) {
      tracer->slot(w)->collect_batch_intervals = true;
      tracer->slot(w)->batch_intervals.clear();
    }
  }
  ThreadTrace* main_slot =
      tracer != nullptr ? tracer->slot(env.workers) : nullptr;
  Phase p;
  p.nominal = seconds;
  const double edges = static_cast<double>(env.graph.NumEdges());
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  uint64_t now = t0;
  while (now < deadline) {
    const uint64_t s = NowNs();
    {
      SpanScope span(main_slot, SpanKind::kSweep);
      sweep(tm);
    }
    now = NowNs();
    p.slices.Add(SliceOf(t0, now, seconds), now - s, edges);
    ++p.ops;
    if (tracer != nullptr) AccountSweep(*tracer, env.workers, s, now, ledger);
  }
  p.seconds = static_cast<double>(now - t0) / 1e9;
  p.blocking_seconds = p.seconds;
  p.work = static_cast<double>(p.ops) * edges;

  const std::vector<double> ref =
      tufast::ReferencePageRank(env.graph, kDamping, 1000, 1e-13);
  double err = 0, err0 = 0;
  bool finite = true;
  for (VertexId v = 0; v < n; ++v) {
    finite = finite && std::isfinite(ranks[v]);
    err += std::fabs(ranks[v] - ref[v]);
    err0 += std::fabs(1.0 / n - ref[v]);
  }
  // Each sweep contracts the L1 error by at least the damping factor;
  // allow twice that bound plus rounding.
  const double sweeps = static_cast<double>(p.ops + kWarmupSweeps);
  const double tol = 1e-9 + 2 * std::pow(kDamping, sweeps) * err0;
  Check(finite, "analytics: every rank is finite", ok);
  char what[160];
  std::snprintf(what, sizeof(what),
                "analytics: L1 to ReferencePageRank %.3g <= %.3g", err, tol);
  Check(finite && err <= tol, what, ok);
  return p;
}

Report RunAnalytics(const Options& o, int workers) {
  Report r;
  bool ok = true;
  AnalyticsEnv<TuFast> env;
  env.workers = workers;
  std::vector<double> setups;
  const double setup_s = TimedSetups([&] { env.Setup(o.seed); },
                                     [&] { env.Teardown(); }, &setups);
  std::printf("graph: friendster stand-in, %u vertices, %llu edges; %d "
              "worker(s), default Config\n",
              env.graph.NumVertices(),
              static_cast<unsigned long long>(env.graph.NumEdges()), workers);
  PrintSetup(setup_s, setups);
  PrintCalibration();
  const double phase_s = PhaseSeconds(o);
  Phase p = AnalyticsPhase(env, *env.tm, phase_s, nullptr, nullptr, &ok);
  const SchedulerStats st = env.tm->AggregatedStats();
  std::printf("metrics (untraced, %.3f s timed, %llu sweeps; rate and p50 "
              "medians over %d slices, tail over the phase):\n",
              p.seconds, static_cast<unsigned long long>(p.ops), kSlices);
  const EndToEnd e = SliceMedians(p, 0.9);
  Line("edges_per_s", e.throughput, "1/s", "json throughput_per_s");
  Line("sweep_p50_ms", e.p50_ns / 1e6, "ms", "json latency_p50_us (in us)");
  Line("sweep_p90_ms", e.tail_ns / 1e6, "ms");
  Line("setup_s", setup_s, "s", "json setup_s");
  std::printf("  commits by class H/O/O+/O2L/L: %llu/%llu/%llu/%llu/%llu\n",
              static_cast<unsigned long long>(st.class_count[0]),
              static_cast<unsigned long long>(st.class_count[1]),
              static_cast<unsigned long long>(st.class_count[2]),
              static_cast<unsigned long long>(st.class_count[3]),
              static_cast<unsigned long long>(st.class_count[4]));
  r.attempted = p.ops;
  r.failed = ok ? 0 : p.ops;
  r.correct = ok;
  if (!o.trace) {
    r.metrics = {{"throughput_per_s", e.throughput, "1/s"},
                 {"latency_p50_us", e.p50_ns / 1e3, "us"},
                 {"setup_s", setup_s, "s"}};
    return r;
  }

  // Traced phase: instrumented scheduler behind the tracing wrapper.
  env.Teardown();
  AnalyticsEnv<TuFastInstrumented> tenv;
  tenv.workers = workers;
  tenv.Setup(o.seed);
  Tracer tracer(workers + 1);
  TracedScheduler<TuFastInstrumented> traced(*tenv.tm, tracer);
  SweepLedger ledger;
  Phase tp = AnalyticsPhase(tenv, traced, phase_s, &tracer, &ledger, &ok);
  LayerInputs in;
  in.stats = tenv.tm->AggregatedStats();
  in.tel = tenv.tm->AggregatedTelemetry().Snapshot();
  in.htm = tenv.tm->AggregatedHtmStats();
  in.worker_seconds = tp.seconds * workers;
  in.ops = static_cast<double>(tp.ops);
  in.sweep_ns = ledger.self_ns + ledger.covered_ns;
  in.sweep_self_ns = ledger.self_ns;
  const double ledger_s = (ledger.self_ns + ledger.covered_ns) / 1e9;
  double overhead = 0, gap = 0;
  const bool ledger_ok = PrintReconciliation(
      p, tp, ledger_s,
      {{"algorithms self", ledger.self_ns / 1e9},
       {"tm (RunBatch union)", ledger.covered_ns / 1e9}},
      &overhead, &gap);
  Check(ledger_ok, "trace: blocking-path ledger closes within 10%", &ok);
  const std::string spans = o.work_dir + "/spans-" + o.workload + ".csv";
  if (tracer.WriteSpans(spans)) std::printf("spans: %s\n", spans.c_str());
  // At one worker the runtime's idle share is algorithms.self_share.
  PrintLayerLines(
      {{"algorithms.sweep_self_ms", ledger.self.Percentile(0.5) / 1e6, "ms"},
       {"runtime.idle_share", Share(ledger.idle_ns, ledger.worker_ns),
        "share"}});
  r.metrics = LayerMetrics(tracer, in, overhead, gap);
  r.attempted += tp.ops;
  r.failed = ok ? 0 : r.attempted;
  r.correct = ok;
  return r;
}

// ---------------------------------------------------------------------
// txn: the paper's RM transaction, one Run per transaction, uniform
// subjects over an Erdos-Renyi graph, 4 closed-loop workers.

constexpr VertexId kTxnVertices = 262144;
constexpr uint64_t kTxnEdges = 2097152;
constexpr uint64_t kTxnWarmupPerWorker = 20000;

template <typename Sched>
struct TxnEnv {
  Graph graph;
  std::vector<TmWord> values;
  std::unique_ptr<EmulatedHtm> htm;
  std::unique_ptr<Sched> tm;
  std::unique_ptr<ThreadPool> pool;

  void Setup(uint64_t seed) {
    graph = tufast::GenerateErdosRenyi(kTxnVertices, kTxnEdges,
                                       SeedFor(seed, 2));
    values.assign(graph.NumVertices(), 0);
    htm = std::make_unique<EmulatedHtm>();
    tm = std::make_unique<Sched>(*htm, graph.NumVertices());
    pool = std::make_unique<ThreadPool>(kMaxThreads);
  }
  void Teardown() {
    pool.reset();
    tm.reset();
    htm.reset();
    graph = Graph();
    values = {};
  }
};

/// Subjects drawn per client pass (see TxnPhase).
constexpr size_t kTxnChunk = 256;

/// `traced`: the tracing wrapper times each call, so the client skips its
/// own per-transaction timestamps to keep its cost out of the ledger.
template <typename Sched, typename Tm>
Phase TxnPhase(TxnEnv<Sched>& env, Tm& tm, uint64_t seed, double seconds,
               bool traced, bool* ok) {
  const Graph& g = env.graph;
  std::vector<TmWord>& values = env.values;
  const VertexId n = g.NumVertices();
  auto rm = [&](auto& sched, int worker, VertexId v, uint64_t hint) {
    return sched.Run(worker, hint, [&](auto& txn) {
      TmWord sum = txn.Read(v, &values[v]);
      for (const VertexId u : g.OutNeighbors(v)) {
        sum += txn.Read(u, &values[u]);
      }
      txn.Write(v, &values[v], sum + 1);
    });
  };
  // Warm up on the bare scheduler so no warm-up span reaches the trace.
  env.pool->RunOnAll([&](int w) {
    Rng rng(SeedFor(seed, 100 + w));
    for (uint64_t i = 0; i < kTxnWarmupPerWorker; ++i) {
      const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      rm(*env.tm, w, v, g.OutDegree(v) + 1);
    }
  });
  env.tm->ResetStats();
  std::vector<Slices> slices(kMaxThreads);
  std::vector<uint64_t> issued(kMaxThreads, 0), aborted(kMaxThreads, 0);
  std::vector<uint64_t> ends(kMaxThreads, 0);
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  env.pool->RunOnAll([&](int w) {
    Rng rng(SeedFor(seed, 200 + w));
    Slices& mine = slices[w];
    std::vector<std::pair<VertexId, uint64_t>> chunk(kTxnChunk);
    uint64_t count = 0, bad = 0, end = t0;
    while (end < deadline) {
      // Draw a pass of subjects and their size hints up front: the random
      // degree reads then overlap with each other instead of stalling the
      // client in front of every transaction.
      for (auto& [v, hint] : chunk) {
        v = static_cast<VertexId>(rng.NextBounded(n));
        hint = g.OutDegree(v) + 1;
      }
      for (const auto& [v, hint] : chunk) {
        if (traced) {
          if (!rm(tm, w, v, hint).committed) ++bad;
          continue;
        }
        const uint64_t s = NowNs();
        const RunOutcome out = rm(tm, w, v, hint);
        const uint64_t e = NowNs();
        mine.Add(SliceOf(t0, e, seconds), e - s, 1);
        if (!out.committed) ++bad;
      }
      count += kTxnChunk;
      end = NowNs();
    }
    issued[w] = count;
    aborted[w] = bad;
    ends[w] = end;
  });
  Phase p;
  p.nominal = seconds;
  for (int w = 0; w < kMaxThreads; ++w) {
    p.slices.Merge(slices[w]);
    p.ops += issued[w];
    p.failed += aborted[w];
    p.blocking_seconds += static_cast<double>(ends[w] - t0) / 1e9;
    p.seconds = std::max(p.seconds, static_cast<double>(ends[w] - t0) / 1e9);
  }
  p.work = static_cast<double>(p.ops);
  const SchedulerStats st = env.tm->AggregatedStats();
  Check(p.failed == 0, "txn: every Run committed", ok);
  Check(st.commits == p.ops,
        "txn: AggregatedStats().commits " + std::to_string(st.commits) +
            " == issued " + std::to_string(p.ops),
        ok);
  return p;
}

Report RunTxn(const Options& o) {
  Report r;
  bool ok = true;
  TxnEnv<TuFast> env;
  std::vector<double> setups;
  const double setup_s = TimedSetups([&] { env.Setup(o.seed); },
                                     [&] { env.Teardown(); }, &setups);
  std::printf("graph: Erdos-Renyi %u vertices, %llu edges; %d closed-loop "
              "workers, default Config\n",
              env.graph.NumVertices(),
              static_cast<unsigned long long>(env.graph.NumEdges()),
              kMaxThreads);
  PrintSetup(setup_s, setups);
  PrintCalibration();
  const double phase_s = PhaseSeconds(o);
  Phase p = TxnPhase(env, *env.tm, o.seed, phase_s, false, &ok);
  const EndToEnd e = SliceMedians(p, 0.99);
  std::printf("metrics (untraced, %.3f s timed, %llu transactions; rate and "
              "p50 medians over %d slices, tail over the phase):\n",
              p.seconds, static_cast<unsigned long long>(p.ops), kSlices);
  Line("txn_per_s", e.throughput, "1/s", "json throughput_per_s");
  Line("txn_p50_us", e.p50_ns / 1e3, "us", "json latency_p50_us");
  Line("txn_p99_us", e.tail_ns / 1e3, "us");
  Line("setup_s", setup_s, "s", "json setup_s");
  r.attempted = p.ops;
  r.failed = ok ? p.failed : p.ops;
  r.correct = ok;
  if (!o.trace) {
    r.metrics = {{"throughput_per_s", e.throughput, "1/s"},
                 {"latency_p50_us", e.p50_ns / 1e3, "us"},
                 {"setup_s", setup_s, "s"}};
    return r;
  }

  env.Teardown();
  TxnEnv<TuFastInstrumented> tenv;
  tenv.Setup(o.seed);
  Tracer tracer(kMaxThreads);
  TracedScheduler<TuFastInstrumented> traced(*tenv.tm, tracer);
  Phase tp = TxnPhase(tenv, traced, o.seed, phase_s, true, &ok);
  LayerInputs in;
  in.stats = tenv.tm->AggregatedStats();
  in.tel = tenv.tm->AggregatedTelemetry().Snapshot();
  in.htm = tenv.tm->AggregatedHtmStats();
  in.worker_seconds = tp.blocking_seconds;
  in.ops = static_cast<double>(tp.ops);
  const KindStats run = tracer.Merged(SpanKind::kRun);
  double overhead = 0, gap = 0;
  const bool ledger_ok = PrintReconciliation(
      p, tp, static_cast<double>(run.self_ns) / 1e9,
      {{"tm self (Run)", static_cast<double>(run.self_ns) / 1e9}}, &overhead,
      &gap);
  Check(ledger_ok, "trace: blocking-path ledger closes within 10%", &ok);
  const std::string spans = o.work_dir + "/spans-" + o.workload + ".csv";
  if (tracer.WriteSpans(spans)) std::printf("spans: %s\n", spans.c_str());
  r.metrics = LayerMetrics(tracer, in, overhead, gap);
  r.attempted += tp.ops;
  r.failed = ok ? p.failed + tp.failed : r.attempted;
  r.correct = ok;
  return r;
}

// ---------------------------------------------------------------------
// ingest: 3 closed-loop writers and 1 closed-loop snapshot reader on the
// dynamic graph, MVCC on, WAL on under kFlushOnly.

constexpr uint32_t kIngestScale = 16;
constexpr uint32_t kIngestEdgeFactor = 8;
constexpr int kWriters = 3;
constexpr size_t kBatchSize = 32;
constexpr double kZipfAlpha = 0.8;
/// A writer deletes/reweights only once it owns this many live edges, so
/// deletes can always pick an edge it inserted earlier.
constexpr size_t kMinOwnEdges = 64;
constexpr uint64_t kIngestWarmupBatches = 50;

/// One writer's update generator. Destinations are drawn from the
/// writer's own residue class (dst % kWriters == writer), so no two
/// writers ever touch the same edge, and inserts skip edges already in
/// the base graph or already owned: every insert is new, every delete
/// and reweight hits a live edge, and ApplyResult tallies are exact.
class WriterGen {
 public:
  WriterGen(uint64_t seed, int writer, const Graph& base)
      : rng_(seed), writer_(writer), base_(base),
        zipf_(base.NumVertices(), kZipfAlpha) {}

  /// Fills `batch` and adds its exact expected tallies to `expected`.
  void Next(std::vector<EdgeUpdate>* batch, ApplyResult* expected) {
    batch->clear();
    const VertexId n = base_.NumVertices();
    for (size_t k = 0; k < kBatchSize; ++k) {
      const uint64_t r = rng_.NextBounded(100);
      if (r >= 45 && r < 90 && own_.size() > kMinOwnEdges) {
        const auto [u, v] = own_.front();
        own_.pop_front();
        live_.erase(Key(u, v));
        batch->push_back(EdgeUpdate::Delete(u, v));
        ++expected->removed;
      } else if (r >= 90 && own_.size() > kMinOwnEdges) {
        const auto [u, v] = own_[rng_.NextBounded(own_.size())];
        batch->push_back(EdgeUpdate::Reweight(u, v, Weight()));
        ++expected->updated;
      } else {
        VertexId u, v;
        do {
          u = static_cast<VertexId>(zipf_.Draw(rng_));
          v = static_cast<VertexId>(
              kWriters * rng_.NextBounded(n / kWriters) + writer_);
        } while (u == v || live_.count(Key(u, v)) != 0 || InBase(u, v));
        own_.emplace_back(u, v);
        live_.insert(Key(u, v));
        batch->push_back(EdgeUpdate::Insert(u, v, Weight()));
        ++expected->inserted;
      }
    }
  }

 private:
  static uint64_t Key(VertexId u, VertexId v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  bool InBase(VertexId u, VertexId v) const {
    const auto nbrs = base_.OutNeighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
  }
  uint32_t Weight() { return static_cast<uint32_t>(1 + rng_.NextBounded(100)); }

  Rng rng_;
  const int writer_;
  const Graph& base_;
  const tufast::ZipfSampler zipf_;
  std::deque<std::pair<VertexId, VertexId>> own_;
  std::unordered_set<uint64_t> live_;
};

template <typename Sched>
struct IngestEnv {
  Graph base;
  uint64_t base_live = 0;
  std::unique_ptr<DynamicGraph> dyn;
  std::unique_ptr<EmulatedHtm> htm;
  std::unique_ptr<tufast::WalWriter> wal;  // traced phase: external writer
  std::unique_ptr<TimingWalSink<tufast::WalWriter>> sink;
  std::unique_ptr<Sched> tm;
  std::unique_ptr<ThreadPool> pool;
  std::string wal_path;

  /// Untraced: the scheduler owns the WAL writer (Config::enable_wal).
  /// Traced: an external writer behind the timing sink (EnableWal).
  void Setup(uint64_t seed, bool timing_sink) {
    base = tufast::GenerateRmat(kIngestScale, kIngestEdgeFactor,
                                SeedFor(seed, 3), {.weighted = true});
    dyn = DynamicGraph::FromCsr(base);
    base_live = dyn->TotalLiveEdges();
    htm = std::make_unique<EmulatedHtm>();
    typename Sched::Config cfg;
    cfg.enable_mvcc = true;
    if (timing_sink) {
      wal = std::make_unique<tufast::WalWriter>(
          wal_path, tufast::WalSyncPolicy::kFlushOnly);
      TUFAST_CHECK(wal->ok());
      sink = std::make_unique<TimingWalSink<tufast::WalWriter>>(*wal);
    } else {
      cfg.enable_wal = true;
      cfg.wal_path = wal_path;
      cfg.wal_sync = tufast::WalSyncPolicy::kFlushOnly;
    }
    tm = std::make_unique<Sched>(*htm, dyn->capacity(), cfg);
    if (sink != nullptr) tm->EnableWal(sink.get());
    pool = std::make_unique<ThreadPool>(kMaxThreads);
  }
  void Teardown() {
    pool.reset();
    tm.reset();
    sink.reset();
    wal.reset();
    htm.reset();
    dyn.reset();
    base = Graph();
  }
  tufast::WalWriter& writer() {
    return wal != nullptr ? *wal : *tm->wal_writer();
  }
};

template <typename Sched, typename Tm>
Phase IngestPhase(IngestEnv<Sched>& env, Tm& tm, uint64_t seed,
                  double seconds, Tracer* tracer, bool* ok) {
  DynamicGraph& dyn = *env.dyn;
  const VertexId n = env.base.NumVertices();
  std::vector<std::unique_ptr<WriterGen>> gens;
  for (int w = 0; w < kWriters; ++w) {
    gens.push_back(
        std::make_unique<WriterGen>(SeedFor(seed, 300 + w), w, env.base));
  }
  std::vector<ApplyResult> expected(kWriters), got(kWriters);
  // Warm-up: a fixed number of batches per writer, untimed.
  env.pool->RunOnAll([&](int w) {
    if (w >= kWriters) return;
    std::vector<EdgeUpdate> batch;
    for (uint64_t i = 0; i < kIngestWarmupBatches; ++i) {
      ApplyResult exp;
      gens[w]->Next(&batch, &exp);
      const ApplyResult res = dyn.ApplyBatch(*env.tm, w, batch);
      expected[w].Merge(exp);
      got[w].Merge(res);
    }
  });
  env.tm->ResetStats();

  std::vector<Slices> slices(kWriters);
  LatencyHist read_lat;
  std::vector<uint64_t> ops(kMaxThreads, 0), bad(kMaxThreads, 0);
  std::vector<uint64_t> ends(kMaxThreads, 0);
  std::vector<std::string> first_mismatch(kWriters);
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  env.pool->RunOnAll([&](int w) {
    ThreadTrace* slot = tracer != nullptr ? tracer->slot(w) : nullptr;
    uint64_t end = t0;
    if (w < kWriters) {
      std::vector<EdgeUpdate> batch;
      while (end < deadline) {
        ApplyResult exp;
        gens[w]->Next(&batch, &exp);
        const uint64_t s = NowNs();
        ApplyResult res;
        {
          SpanScope span(slot, SpanKind::kApply);
          res = dyn.ApplyBatch(tm, w, batch);
        }
        end = NowNs();
        if (slot == nullptr) {
          slices[w].Add(SliceOf(t0, end, seconds), end - s, kBatchSize);
        }
        ++ops[w];
        if (res.inserted != exp.inserted || res.removed != exp.removed ||
            res.updated != exp.updated || res.missing != 0) {
          if (bad[w]++ == 0) {
            first_mismatch[w] = "writer " + std::to_string(w) + " batch " +
                                std::to_string(ops[w]) + ": expected " +
                                Tally(exp) + ", got " + Tally(res);
          }
        }
        expected[w].Merge(exp);
        got[w].Merge(res);
      }
    } else {
      Rng rng(SeedFor(seed, 400 + w));
      const tufast::ZipfSampler zipf(n, kZipfAlpha);
      VertexSnapshot snap;
      while (end < deadline) {
        const VertexId u = static_cast<VertexId>(zipf.Draw(rng));
        const uint64_t s = NowNs();
        RunOutcome rc;
        {
          SpanScope span(slot, SpanKind::kRead);
          rc = dyn.ReadVertexSnapshotRO(tm, w, u, &snap);
        }
        end = NowNs();
        if (slot == nullptr) read_lat.Add(end - s);
        ++ops[w];
        if (!rc.committed || rc.aborts != 0 ||
            snap.degree != snap.edges.size()) {
          ++bad[w];
        }
      }
    }
    ends[w] = end;
  });
  Phase p;
  p.nominal = seconds;
  p.read_lat = std::move(read_lat);
  uint64_t bad_batches = 0;
  for (int w = 0; w < kMaxThreads; ++w) {
    const double sec = static_cast<double>(ends[w] - t0) / 1e9;
    if (w < kWriters) {
      bad_batches += bad[w];
      if (!first_mismatch[w].empty()) {
        std::printf("  first mismatching batch: %s\n",
                    first_mismatch[w].c_str());
      }
      p.slices.Merge(slices[w]);
      p.ops += ops[w];
      p.blocking_seconds += sec;
      p.seconds = std::max(p.seconds, sec);
    } else {
      p.reads += ops[w];
    }
    p.failed += bad[w];
  }
  p.work = static_cast<double>(p.ops * kBatchSize);

  ApplyResult exp_all, got_all;
  for (int w = 0; w < kWriters; ++w) {
    exp_all.Merge(expected[w]);
    got_all.Merge(got[w]);
  }
  Check(bad_batches == 0,
        "ingest: batch tallies exact (" + std::to_string(bad_batches) +
            " mismatched)",
        ok);
  Check(p.failed == bad_batches,
        "ingest: reads abort-free and per-vertex atomic (" +
            std::to_string(p.failed - bad_batches) + " bad)",
        ok);
  const uint64_t live = dyn.TotalLiveEdges();
  Check(live == env.base_live + got_all.inserted - got_all.removed &&
            got_all.inserted == exp_all.inserted &&
            got_all.removed == exp_all.removed && got_all.missing == 0,
        "ingest: live edges " + std::to_string(live) + " conserved (base " +
            std::to_string(env.base_live) + " +" +
            std::to_string(got_all.inserted) + " -" +
            std::to_string(got_all.removed) + ")",
        ok);
  const std::optional<std::string> bad_inv = dyn.CheckInvariantsQuiesced();
  Check(!bad_inv.has_value(),
        "ingest: CheckInvariantsQuiesced" +
            (bad_inv ? ": " + *bad_inv : std::string()),
        ok);
  auto rec = DynamicGraph::FromCsr(env.base);
  const tufast::WalRecoveryResult res =
      tufast::RecoverFromWal(rec.get(), env.wal_path);
  const Graph live_g = dyn.Freeze();
  const Graph rec_g = rec->Freeze();
  Check(!res.torn_tail && live_g.offsets() == rec_g.offsets() &&
            live_g.targets() == rec_g.targets() &&
            live_g.weights() == rec_g.weights(),
        "ingest: RecoverFromWal(base, log) == Freeze() (" +
            std::to_string(res.replayed) + " records)",
        ok);
  return p;
}

Report RunIngest(const Options& o) {
  Report r;
  bool ok = true;
  IngestEnv<TuFast> env;
  env.wal_path = o.work_dir + "/ingest.wal";
  std::vector<double> setups;
  const double setup_s = TimedSetups([&] { env.Setup(o.seed, false); },
                                     [&] { env.Teardown(); }, &setups);
  std::printf("graph: weighted R-MAT scale %u edge factor %u (%llu live "
              "edges); %d writers + 1 reader; MVCC on, WAL on "
              "(WalSyncPolicy::kFlushOnly: fwrite+fflush, no fsync)\n",
              kIngestScale, kIngestEdgeFactor,
              static_cast<unsigned long long>(env.base_live), kWriters);
  PrintSetup(setup_s, setups);
  PrintCalibration();
  const double phase_s = PhaseSeconds(o);
  Phase p = IngestPhase(env, *env.tm, o.seed, phase_s, nullptr, &ok);
  const EndToEnd e = SliceMedians(p, 0.99);
  const double r50 = p.read_lat.Percentile(0.5);
  const double r99 = p.read_lat.Percentile(0.99);
  std::printf("metrics (untraced, %.3f s timed, %llu batches, %llu reads; "
              "batch rate and p50 medians over %d slices, the rest over the "
              "phase):\n",
              p.seconds, static_cast<unsigned long long>(p.ops),
              static_cast<unsigned long long>(p.reads), kSlices);
  Line("updates_per_s", e.throughput, "1/s", "json throughput_per_s");
  Line("batch_p50_us", e.p50_ns / 1e3, "us", "json latency_p50_us");
  Line("batch_p99_us", e.tail_ns / 1e3, "us");
  Line("read_p50_us", r50 / 1e3, "us");
  Line("read_p99_us", r99 / 1e3, "us");
  Line("setup_s", setup_s, "s", "json setup_s");
  r.attempted = p.ops + p.reads;
  r.failed = ok ? p.failed : r.attempted;
  r.correct = ok;
  if (!o.trace) {
    r.metrics = {{"throughput_per_s", e.throughput, "1/s"},
                 {"latency_p50_us", e.p50_ns / 1e3, "us"},
                 {"setup_s", setup_s, "s"}};
    std::remove(env.wal_path.c_str());
    return r;
  }

  env.Teardown();
  IngestEnv<TuFastInstrumented> tenv;
  tenv.wal_path = env.wal_path;
  tenv.Setup(o.seed, true);
  const tufast::MvccCounters mvcc_before = tenv.tm->mvcc_store()->Counters();
  const uint64_t records_before = tenv.writer().records();
  const uint64_t bytes_before = tenv.writer().bytes();
  const uint64_t slow_before = tenv.sink->slow_commits();
  Tracer tracer(kMaxThreads);
  TracedScheduler<TuFastInstrumented> traced(*tenv.tm, tracer);
  Phase tp = IngestPhase(tenv, traced, o.seed, phase_s, &tracer, &ok);
  LayerInputs in;
  in.stats = tenv.tm->AggregatedStats();
  in.tel = tenv.tm->AggregatedTelemetry().Snapshot();
  in.htm = tenv.tm->AggregatedHtmStats();
  in.worker_seconds = tp.seconds * kMaxThreads;
  in.ops = tp.work;
  in.mvcc_before = mvcc_before;
  in.mvcc_after = tenv.tm->mvcc_store()->Counters();
  in.wal_records = tenv.writer().records() - records_before;
  in.wal_bytes = tenv.writer().bytes() - bytes_before;
  in.wal_slow_commits = tenv.sink->slow_commits() - slow_before;
  const KindStats apply = tracer.Merged(SpanKind::kApply);
  const KindStats publish = tracer.Merged(SpanKind::kWalPublish);
  const KindStats commit = tracer.Merged(SpanKind::kWalCommit);
  // Writers are the blocking path of updates_per_s; the reader's spans
  // are reported but not part of this ledger.
  double writer_batch_self = 0;
  for (int w = 0; w < kWriters; ++w) {
    writer_batch_self +=
        static_cast<double>(tracer.slot(w)->kind(SpanKind::kRunBatch).self_ns);
  }
  const double ledger_s =
      (static_cast<double>(apply.self_ns) + writer_batch_self +
       static_cast<double>(publish.self_ns + commit.self_ns)) /
      1e9;
  double overhead = 0, gap = 0;
  const bool ledger_ok = PrintReconciliation(
      p, tp, ledger_s,
      {{"graph self (ApplyBatch)", static_cast<double>(apply.self_ns) / 1e9},
       {"tm self (RunBatch)", writer_batch_self / 1e9},
       {"durability (Publish)", static_cast<double>(publish.self_ns) / 1e9},
       {"durability (Commit)", static_cast<double>(commit.self_ns) / 1e9}},
      &overhead, &gap);
  Check(ledger_ok, "trace: blocking-path ledger closes within 10%", &ok);
  const std::string spans = o.work_dir + "/spans-" + o.workload + ".csv";
  if (tracer.WriteSpans(spans)) std::printf("spans: %s\n", spans.c_str());
  PrintLayerLines(IngestLayerMetrics(tracer, in));
  r.metrics = LayerMetrics(tracer, in, overhead, gap);
  r.attempted += tp.ops + tp.reads;
  r.failed = ok ? p.failed + tp.failed : r.attempted;
  r.correct = ok;
  tenv.Teardown();
  std::remove(env.wal_path.c_str());
  return r;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"analytics", "analytics-1w",
                                                  "txn", "ingest"};
  return kNames;
}

Report RunWorkload(const Options& o) {
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  if (o.workload == "analytics") return RunAnalytics(o, kMaxThreads);
  if (o.workload == "analytics-1w") return RunAnalytics(o, 1);
  if (o.workload == "txn") return RunTxn(o);
  return RunIngest(o);
}

}  // namespace perfbench
