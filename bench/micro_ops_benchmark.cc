// Hand-rolled microbenchmarks of the TM primitives: per-operation costs
// of the emulated HTM, the lock table's shared round trip,
// the write-set AddrMap (inline and table paths), one full Run()
// through each TuFast mode, and the group-commit fusion hot path —
// per-item versus fused committed-ops/sec on small H transactions plus
// a fusion-width sweep. These are the constants behind every figure —
// run them when tuning the hot paths.
//
// Uses the shared BenchFlags/JsonReport harness (no external benchmark
// framework): every metric lands in one "micro ops" table whose rows
// are (metric, per_sec, iters), mirrored to --json-out for
// bench/compare_bench.py to diff against BENCH_baseline.json. The
// headline acceptance metrics are:
//   tufast_h_per_item_ops  committed ops/sec, small H txns, per-item Run
//   tufast_h_fused_ops     same stream through RunBatch (group commit)
//   fusion_gain_x          their ratio (must stay >= the checked-in bar)
// All loops are single-threaded: these measure instruction-path length,
// not scalability (fig13/fig14 cover threaded throughput).

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench_support/reporting.h"
#include "common/timer.h"
#include "htm/emulated_htm.h"
#include "sync/lock_table.h"
#include "testing/failpoints.h"
#include "tm/addr_map.h"
#include "tm/batch_executor.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

// Defeats dead-code elimination without a benchmark framework.
volatile uint64_t g_sink = 0;

std::string Rate(double per_sec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", per_sec);
  return buf;
}

class MetricTable {
 public:
  static constexpr int kRepetitions = 5;

  MetricTable() : table_({"metric", "per_sec", "iters"}) {}

  /// Times `loop()` (which must perform `iters` units of work)
  /// kRepetitions times back to back and records the median units/sec
  /// under `name`. One window of about a millisecond, the first after
  /// other rows ran, swung about 2x between processes on a shared host
  /// (the addr_map rows).
  template <typename LoopFn>
  void Measure(const std::string& name, uint64_t iters, LoopFn&& loop) {
    std::array<double, kRepetitions> rates;
    for (double& rate : rates) {
      WallTimer timer;
      loop();
      const double seconds = timer.ElapsedSeconds();
      rate = seconds > 0 ? iters / seconds : 0;
    }
    std::nth_element(rates.begin(), rates.begin() + kRepetitions / 2,
                     rates.end());
    Add(name, rates[kRepetitions / 2], iters);
  }

  void Add(const std::string& name, double per_sec, uint64_t iters) {
    values_.emplace_back(name, per_sec);
    table_.AddRow({name, Rate(per_sec), ReportTable::Int(iters)});
  }

  double Value(const std::string& name) const {
    for (const auto& [n, v] : values_) {
      if (n == name) return v;
    }
    return 0;
  }

  void Print() { table_.Print("micro ops"); }

 private:
  ReportTable table_;
  std::vector<std::pair<std::string, double>> values_;
};

void BenchEmulatedHtm(MetricTable& out, uint64_t txns) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) static TmWord words[64];
  for (const int ops : {8, 64, 256}) {
    out.Measure("emulated_htm_load_store_" + std::to_string(ops) + "_ops",
                txns * static_cast<uint64_t>(ops) * 2, [&] {
                  for (uint64_t t = 0; t < txns; ++t) {
                    tx.Execute([&] {
                      for (int i = 0; i < ops; ++i) {
                        const TmWord v = tx.Load(&words[i % 64]);
                        tx.Store(&words[i % 64], v + 1);
                      }
                    });
                  }
                });
  }
  out.Measure("emulated_htm_empty_commit_txns", txns * 4, [&] {
    for (uint64_t t = 0; t < txns * 4; ++t) {
      const AbortStatus status = tx.Execute([] {});
      g_sink = g_sink + (status.ok() ? 1 : 0);
    }
  });
}

void BenchLockTable(MetricTable& out, uint64_t iters) {
  EmulatedHtm htm;
  LockTable<EmulatedHtm> locks(htm, 1024);
  out.Measure("lock_table_shared_round_trips", iters, [&] {
    VertexId v = 0;
    for (uint64_t i = 0; i < iters; ++i) {
      locks.TryLockShared(v);
      locks.UnlockShared(v);
      v = (v + 1) & 1023;
    }
  });
}

void BenchAddrMap(MetricTable& out, uint64_t iters) {
  // Inline fast path: the working set stays within the 8-entry inline
  // array, so FindOrInsert/Find never touch the hash table.
  out.Measure("addr_map_inline_ops", iters * 2, [&] {
    AddrMap map(1024);
    uintptr_t key = 64;
    for (uint64_t i = 0; i < iters; ++i) {
      bool inserted;
      g_sink = g_sink + *map.FindOrInsert(key, 1, &inserted);
      const uint32_t* found = map.Find(key);
      g_sink = g_sink + (found != nullptr ? *found : 0);
      key += 64;
      if (key > 64 * 8) {
        key = 64;
        map.Clear();
      }
    }
  });
  // Table path: 512 distinct keys force promotion out of the inline
  // array; measures the open-addressing probe loop plus Clear cost.
  out.Measure("addr_map_table_ops", iters * 2, [&] {
    AddrMap map(1024);
    uintptr_t key = 64;
    for (uint64_t i = 0; i < iters; ++i) {
      bool inserted;
      g_sink = g_sink + *map.FindOrInsert(key, 1, &inserted);
      const uint32_t* found = map.Find(key);
      g_sink = g_sink + (found != nullptr ? *found : 0);
      key += 64;
      if (key > 64 * 512) {
        key = 64;
        map.Clear();
      }
    }
  });
}

void BenchRunByMode(MetricTable& out, uint64_t txns) {
  EmulatedHtm htm;
  TuFast tm(htm, 4096);
  std::vector<TmWord> values(4096, 0);
  const struct {
    const char* name;
    uint64_t hint;
  } modes[] = {
      {"tufast_run_h_txns", 2},
      {"tufast_run_o_txns", tm.h_hint_threshold() + 1},
      {"tufast_run_l_txns", tm.config().o_hint_threshold + 1},
  };
  for (const auto& mode : modes) {
    out.Measure(mode.name, txns, [&] {
      VertexId v = 0;
      for (uint64_t t = 0; t < txns; ++t) {
        tm.Run(0, mode.hint, [&](auto& txn) {
          txn.Write(v, &values[v], txn.Read(v, &values[v]) + 1);
        });
        v = (v + 1) & 4095;
      }
    });
  }
}

/// The headline comparison: a stream of small (2-op) H-mode
/// transactions executed per-item versus fused through RunBatch. Both
/// paths commit the same logical work, so committed-ops/sec isolates
/// the per-transaction BEGIN/COMMIT + lock-subscription overhead that
/// group commit amortizes.
void BenchFusion(MetricTable& out, uint64_t txns) {
  constexpr uint64_t kVertices = 4096;
  constexpr uint64_t kWindow = 64;
  const uint64_t ops = txns * 2;

  {
    EmulatedHtm htm;
    TuFast tm(htm, kVertices);
    std::vector<TmWord> values(kVertices, 0);
    out.Measure("tufast_h_per_item_ops", ops, [&] {
      VertexId v = 0;
      for (uint64_t t = 0; t < txns; ++t) {
        tm.Run(0, 2, [&](auto& txn) {
          txn.Write(v, &values[v], txn.Read(v, &values[v]) + 1);
        });
        v = (v + 1) & (kVertices - 1);
      }
    });
  }

  auto run_fused = [&](const std::string& name, TuFast::Config config) {
    EmulatedHtm htm;
    TuFast tm(htm, kVertices, config);
    std::vector<TmWord> values(kVertices, 0);
    out.Measure(name, ops, [&] {
      uint64_t base = 0;
      auto hint = [](uint64_t) -> uint64_t { return 2; };
      auto body = [&](auto& txn, uint64_t k) {
        const VertexId v = static_cast<VertexId>((base + k) & (kVertices - 1));
        txn.Write(v, &values[v], txn.Read(v, &values[v]) + 1);
      };
      for (uint64_t t = 0; t < txns; t += kWindow) {
        const uint64_t width = t + kWindow <= txns ? kWindow : txns - t;
        tm.RunBatch(0, 0, width, hint, body);
        base += width;
      }
    });
  };

  run_fused("tufast_h_fused_ops", TuFast::Config{});

  // Fusion-width sweep: pin the width instead of letting the adaptive
  // controller pick it, to expose the amortization curve (EXPERIMENTS.md
  // "fusion-width sweep"). Width 1 degenerates to the per-item router
  // from inside RunBatch — its gap to tufast_h_per_item_ops is the
  // batch-packaging overhead alone.
  for (const uint32_t width : {1u, 2u, 4u, 8u, 16u, 32u}) {
    TuFast::Config config;
    config.fixed_fusion_width = width;
    config.max_fusion_width = width > 16 ? width : 16;
    run_fused("tufast_h_fused_w" + std::to_string(width) + "_ops", config);
  }

  const double per_item = out.Value("tufast_h_per_item_ops");
  const double fused = out.Value("tufast_h_fused_ops");
  out.Add("fusion_gain_x", per_item > 0 ? fused / per_item : 0, txns);
}

/// Deterministic progress-guard exercise on the failpoint-armed backend:
/// single worker, forced (non-probabilistic) triggers only, so every
/// counter is an exact function of the code — compare_bench.py checks
/// these rows symmetrically (any drift is a behavior change, not noise).
void BenchProgressCounters() {
  ReportTable table({"metric", "value"});

  // Breaker round trip: trip on the first routed transaction, count
  // down the open window through bypasses, admit the half-open probes
  // (which all commit), and close.
  {
    FaultyHtm htm;
    TuFastScheduler<FaultyHtm, EventTelemetry> tm(htm, 1024);
    std::vector<TmWord> values(1024, 0);
    FailpointPlan plan(FailpointPlan::Config{});
    plan.ForceAt(FailSite::kBreakerTrip, 0, 0, FailAction::kFail);
    FailpointScope scope(plan);
    VertexId v = 0;
    for (uint64_t t = 0; t < 200; ++t) {
      tm.Run(0, 2, [&](auto& txn) {
        txn.Write(v, &values[v], txn.Read(v, &values[v]) + 1);
      });
      v = (v + 1) & 1023;
    }
    const TelemetrySnapshot& snap = tm.AggregatedTelemetry().Snapshot();
    table.AddRow({"breaker_trips", ReportTable::Int(snap.breaker_trips)});
    table.AddRow(
        {"breaker_half_opens", ReportTable::Int(snap.breaker_half_opens)});
    table.AddRow({"breaker_closes", ReportTable::Int(snap.breaker_closes)});
    table.AddRow({"breaker_bypass",
                  ReportTable::Int(tm.AggregatedStats().breaker_bypass)});
  }

  // Forced victim re-aborts: 16 on one lock-mode transaction. Each one
  // pays a ConflictBackoff and retries; the 17th attempt commits.
  {
    FaultyHtm htm;
    TuFastScheduler<FaultyHtm, EventTelemetry> tm(htm, 1024);
    std::vector<TmWord> values(1024, 0);
    FailpointPlan plan(FailpointPlan::Config{});
    for (uint64_t hit = 0; hit < 16; ++hit) {
      plan.ForceAt(FailSite::kVictimReabort, 0, hit, FailAction::kFail);
    }
    FailpointScope scope(plan);
    const uint64_t big = tm.config().o_hint_threshold + 1;
    tm.Run(0, big, [&](auto& txn) {
      txn.Write(0, &values[0], txn.Read(0, &values[0]) + 1);
    });
    const SchedulerStats stats = tm.AggregatedStats();
    table.AddRow(
        {"starved_txn_aborts", ReportTable::Int(stats.max_txn_aborts)});
    table.AddRow(
        {"starved_backoff_events", ReportTable::Int(stats.backoff_events)});
  }

  table.Print("progress guard");
}

int Main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv, /*default=*/1.0);
  const uint64_t base =
      static_cast<uint64_t>(200000 * (flags.quick ? 0.2 : flags.scale));
  const uint64_t iters = base < 1000 ? 1000 : base;

  MetricTable metrics;
  BenchEmulatedHtm(metrics, iters / 10);
  BenchLockTable(metrics, iters * 4);
  BenchAddrMap(metrics, iters);
  BenchRunByMode(metrics, iters);
  BenchFusion(metrics, iters);
  metrics.Print();
  BenchProgressCounters();

  std::printf(
      "expected shape: fused H ops/sec beats per-item by amortizing "
      "BEGIN/COMMIT across the fused region (fusion_gain_x > 1); the "
      "width sweep rises steeply from w1 and flattens once commit "
      "overhead is amortized.\n");
  return 0;
}

}  // namespace
}  // namespace tufast

int main(int argc, char** argv) { return tufast::Main(argc, argv); }
