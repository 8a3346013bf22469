// Standalone schedule/fault fuzzer: sweeps seeds over the invariant
// stress workloads for each of the seven schedulers, under probabilistic
// fault injection and schedule perturbation. Odd seeds run the bodies
// with ordered ReadForUpdate acquisition, even seeds with read-then-
// upgrade, so every scheduler's ReadForUpdate path runs. The forced
// router skips, breaker trips and victim re-aborts drive TuFast through
// all four paths into its L gate. Every run also checks that the lock
// table's held count returned to 0 (no leaked vertex lock). Exits
// non-zero on the first invariant violation, printing the failing (scheduler, seed) pair; rerun with
// --seed=<that seed> and --failpoint-trace=<path> to replay it
// deterministically and capture the exact injection sequence. The MVCC,
// serving and crash modes run TuFast only: it is the one scheduler with
// a version store and a WAL.
//
//   ./stress_fuzz --seed=1 --scale=4 --threads=3
//   ./stress_fuzz --quick                       # smoke-sized sweep
//   ./stress_fuzz --mvcc-chaos                  # MVCC snapshot sweep
//   ./stress_fuzz --serve-chaos                 # serving-engine disposition sweep
//   ./stress_fuzz --crash-chaos                 # WAL+MVCC crash/recovery sweep
//   ./stress_fuzz --seed=1337 --failpoint-trace=/tmp/trace.txt

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "bench_support/reporting.h"
#include "durability/recovery.h"
#include "graph/dynamic/dynamic_graph.h"
#include "serving/load_generator.h"
#include "serving/server.h"
#include "testing/failpoints.h"
#include "testing/stress_workloads.h"

namespace tufast {
namespace {

FailpointPlan::Config ChaosConfig(uint64_t seed, bool progress_chaos,
                                  bool mvcc_chaos) {
  FailpointPlan::Config config;
  config.seed = seed;
  config.Arm(FailSite::kHtmLoad, 0.002, FailAction::kAbortConflict);
  config.Arm(FailSite::kHtmStore, 0.001, FailAction::kAbortCapacity);
  config.Arm(FailSite::kHtmCommit, 0.002, FailAction::kAbortConflict);
  config.Arm(FailSite::kRouterSkipH, 0.05, FailAction::kFail);
  config.Arm(FailSite::kRouterSkipO, 0.05, FailAction::kFail);
  config.Arm(FailSite::kLockAcquireShared, 0.005, FailAction::kFail);
  config.Arm(FailSite::kLockAcquireExclusive, 0.01, FailAction::kFail);
  config.Arm(FailSite::kLockUpgrade, 0.01, FailAction::kFail);
  config.Arm(FailSite::kLockTryExclusive, 0.01, FailAction::kFail);
  config.Arm(FailSite::kLockTryUpgrade, 0.01, FailAction::kFail);
  config.yield_prob = 0.05;
  if (progress_chaos) {
    // Progress-guard chaos: hammer the L retry loop with forced victim
    // re-aborts (every one pays a ConflictBackoff and retries) and trip
    // the breaker at random.
    config.Arm(FailSite::kVictimReabort, 0.02, FailAction::kFail);
    config.Arm(FailSite::kBreakerTrip, 0.001, FailAction::kFail);
  }
  if (mvcc_chaos) {
    // MVCC chaos: force version-reclamation passes on random commits
    // (epoch grace must keep every pinned reader's suffix alive) and
    // stretch random snapshot windows (stale epochs must hold back
    // reclamation, and deep chain walks must still resolve to the
    // pair-sum invariant).
    config.Arm(FailSite::kVersionReclaim, 0.05, FailAction::kFail);
    config.Arm(FailSite::kStaleEpoch, 0.05, FailAction::kFail);
  }
  return config;
}

/// Serve chaos arms the base transaction-layer faults PLUS forced
/// run-queue/defer-queue bounces (every offered request must still get
/// exactly one disposition) and random breaker trips (the admission
/// controller's breaker signal path).
FailpointPlan::Config ServeChaosConfig(uint64_t seed) {
  FailpointPlan::Config config =
      ChaosConfig(seed, /*progress_chaos=*/false, /*mvcc_chaos=*/false);
  config.Arm(FailSite::kServeQueueFull, 0.05, FailAction::kFail);
  config.Arm(FailSite::kServeDeferFull, 0.05, FailAction::kFail);
  config.Arm(FailSite::kBreakerTrip, 0.002, FailAction::kFail);
  return config;
}

struct FuzzTotals {
  uint64_t runs = 0;
  uint64_t injections = 0;
  // Scheduler counts merged over every (scheduler, seed) run; the
  // progress-guard rows read them.
  SchedulerStats stats;
  // MVCC version-store traffic, summed over the --mvcc-chaos sweep.
  uint64_t mvcc_installed = 0;
  uint64_t mvcc_freed = 0;
  uint64_t mvcc_snapshots = 0;
  uint64_t mvcc_snapshot_reads = 0;
  uint64_t mvcc_reclaim_passes = 0;
  uint64_t mvcc_max_chain_walk = 0;
};

void DumpTraceTo(const FailpointPlan& plan, const std::string& path) {
  if (path.empty()) {
    plan.DumpTrace(stderr);
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open trace file %s\n", path.c_str());
    return;
  }
  plan.DumpTrace(f);
  std::fclose(f);
  std::fprintf(stderr, "failpoint trace written to %s\n", path.c_str());
}

/// MVCC flush balance over a quiesced version store: every installed
/// version is freed, parked in limbo, or still linked (visible), and
/// after a quiesced ReclaimAll the whole budget collapses to freed ==
/// retired == installed. A mismatch is a leak or a double-free even if
/// no snapshot invariant tripped. Leaves the store fully reclaimed.
template <typename Store>
std::optional<std::string> CheckMvccFlushBalance(Store& store) {
  MvccCounters c = store.Counters();
  const uint64_t linked = store.LinkedNodesQuiesced();
  if (c.installed_nodes != c.freed_nodes + c.LimboNodes() + linked) {
    return "mvcc flush imbalance: installed " +
           std::to_string(c.installed_nodes) + " != freed " +
           std::to_string(c.freed_nodes) + " + limbo " +
           std::to_string(c.LimboNodes()) + " + linked " +
           std::to_string(linked);
  }
  if (linked != c.LinkedNodes()) {
    return "mvcc linked-node drift: counters say " +
           std::to_string(c.LinkedNodes()) + ", chains hold " +
           std::to_string(linked);
  }
  store.ReclaimAll();
  c = store.Counters();
  if (c.freed_nodes != c.installed_nodes ||
      c.retired_nodes != c.installed_nodes) {
    return "mvcc reclaim-all imbalance: installed " +
           std::to_string(c.installed_nodes) + " retired " +
           std::to_string(c.retired_nodes) + " freed " +
           std::to_string(c.freed_nodes);
  }
  return std::nullopt;
}

/// `kMvcc` (--mvcc-chaos, TuFast only) adds the snapshot-read suite and
/// the flush-balance check to every run.
template <typename Scheduler, bool kMvcc = false>
bool FuzzScheduler(const char* name, const BenchFlags& flags, uint64_t seeds,
                   FuzzTotals& totals) {
  for (uint64_t i = 0; i < seeds; ++i) {
    const uint64_t seed = flags.seed + i;
    FaultyHtm htm;
    auto tm = [&] {
      if constexpr (kMvcc) {
        return MakeMvccSchedulerFor<Scheduler>(htm, /*vertices=*/48);
      } else {
        return std::make_unique<Scheduler>(htm, /*vertices=*/48);
      }
    }();
    FailpointPlan plan(ChaosConfig(seed, flags.progress_chaos, kMvcc));
    FailpointScope scope(plan);
    StressConfig cfg;
    cfg.threads = flags.threads;
    cfg.txns_per_thread = flags.quick ? 50 : 150;
    cfg.vertices = 48;
    cfg.seed = seed;
    cfg.ordered_for_update = seed % 2 == 1;
    auto err = RunInvariantSuite(*tm, cfg);
    if constexpr (kMvcc) {
      if (!err) err = RunMvccSnapshotSuite(*tm, cfg);
    }
    if (!err) err = CheckNoLockHeld(*tm);
    ++totals.runs;
    totals.injections += plan.InjectionCount();
    totals.stats.Merge(tm->AggregatedStats());
    if constexpr (kMvcc) {
      auto* store = tm->mvcc_store();
      if (!err) err = CheckMvccFlushBalance(*store);
      const MvccCounters c = store->Counters();
      totals.mvcc_installed += c.installed_nodes;
      totals.mvcc_freed += c.freed_nodes;
      totals.mvcc_snapshots += c.snapshots;
      totals.mvcc_snapshot_reads += c.snapshot_reads;
      totals.mvcc_reclaim_passes += c.reclaim_passes;
      if (c.max_chain_walk > totals.mvcc_max_chain_walk) {
        totals.mvcc_max_chain_walk = c.max_chain_walk;
      }
    }
    if (err) {
      std::fprintf(stderr,
                   "FAIL %s seed=%llu: %s\n"
                   "replay: --seed=%llu --threads=%d\n",
                   name, static_cast<unsigned long long>(seed), err->c_str(),
                   static_cast<unsigned long long>(seed), flags.threads);
      DumpTraceTo(plan, flags.failpoint_trace);
      return false;
    }
  }
  return true;
}

struct ServeChaosTotals {
  uint64_t runs = 0;
  uint64_t injections = 0;
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t deferred = 0;
  uint64_t readmitted = 0;
  uint64_t controller_trips = 0;
  uint64_t breaker_trips = 0;
};

/// Serving-engine disposition fuzz: drive the open-loop engine as fast
/// as the generator can offer (no pacing — backlog is the point) with
/// tiny run/defer queues, forced queue bounces, forced breaker trips,
/// and the usual transaction-layer faults underneath, with MVCC
/// alternating on/off by seed. After every run the disposition
/// conservation invariants must hold exactly:
///   offered == admitted + shed + deferred
///   executed == admitted == scheduler serve_requests == histogram count
/// A deferred request that was re-admitted must appear once (admitted),
/// not twice — the no-double-count half of the invariant.
bool RunServeChaos(const BenchFlags& flags, uint64_t seeds,
                   ServeChaosTotals& totals) {
  using Scheduler = TuFastScheduler<FaultyHtm>;
  using Engine = serving::ServeEngine<Scheduler>;
  const uint64_t requests = flags.quick ? 2000 : 8000;
  for (uint64_t i = 0; i < seeds; ++i) {
    const uint64_t seed = flags.seed + i;
    FaultyHtm htm;
    auto dyn = std::make_unique<DynamicGraph>(VertexId{64});
    Scheduler::Config cfg;
    cfg.enable_mvcc = (i % 2) == 1;
    Scheduler tm(htm, dyn->capacity(), cfg);
    // Materialize the vertices and seed a ring so reads see structure;
    // all before chaos is armed.
    for (VertexId u = 0; u < 64; ++u) dyn->AddVertex(tm, 0);
    for (VertexId u = 0; u < 64; ++u) {
      dyn->InsertEdge(tm, 0, u, (u + 1) % 64, static_cast<uint32_t>(u));
    }

    FailpointPlan plan(ServeChaosConfig(seed));
    FailpointScope scope(plan);

    serving::LoadConfig lc;
    lc.rate = 1e6;  // irrelevant: the driver never paces
    lc.zipf_alpha = 0.99;
    lc.num_keys = 64;
    lc.interactive_percent = 70;
    serving::LoadGenerator gen(lc, seed);

    Engine::Config ec;
    ec.num_workers = flags.threads;
    ec.queue_capacity = 64;   // tiny: natural queue-full on top of forced
    ec.defer_capacity = 64;
    ec.admission.enabled = true;
    // Alternate a tight SLO (controller sheds hard, defer queue fills)
    // with a loose one (controller recovers, TryReadmit drains the
    // deferrals built up by the forced queue-full bounces) so both
    // halves of the defer/readmit path run under fault injection.
    ec.admission.slo_p99_ns = (i % 2) == 0 ? 50'000 : 50'000'000;
    ec.admission.window = 64;
    Engine engine(tm, *dyn, ec);
    engine.Start();
    for (uint64_t r = 0; r < requests; ++r) {
      engine.Offer(gen.NextRequest());
      if ((r & 0xf) == 0) engine.TryReadmit(4);
    }
    engine.Drain();

    ++totals.runs;
    totals.injections += plan.InjectionCount();
    const serving::AdmissionController& ac = engine.admission();
    uint64_t offered = 0, admitted = 0, shed = 0, deferred = 0,
             readmitted = 0, hist_count = 0;
    for (int t = 0; t < serving::kNumTenants; ++t) {
      const serving::Tenant tenant = static_cast<serving::Tenant>(t);
      offered += ac.Offered(tenant);
      admitted += ac.Admitted(tenant);
      shed += ac.Shed(tenant);
      deferred += ac.Deferred(tenant);
      readmitted += ac.Readmitted(tenant);
      for (int op = 0; op < serving::kNumOps; ++op) {
        hist_count +=
            engine.Latency(tenant, static_cast<serving::Op>(op)).Count();
      }
    }
    totals.offered += offered;
    totals.admitted += admitted;
    totals.shed += shed;
    totals.deferred += deferred;
    totals.readmitted += readmitted;
    totals.controller_trips += ac.trips();
    totals.breaker_trips += ac.breaker_trips();

    const SchedulerStats stats = tm.AggregatedStats();
    std::optional<std::string> err;
    if (offered != requests) {
      err = "offered drift: counted " + std::to_string(offered) +
            " != generated " + std::to_string(requests);
    } else if (!ac.Conserved()) {
      err = "disposition conservation: offered " + std::to_string(offered) +
            " != admitted " + std::to_string(admitted) + " + shed " +
            std::to_string(shed) + " + deferred " + std::to_string(deferred);
    } else if (engine.ExecutedTotal() != admitted) {
      err = "executed " + std::to_string(engine.ExecutedTotal()) +
            " != admitted " + std::to_string(admitted);
    } else if (stats.serve_requests != engine.ExecutedTotal()) {
      err = "queue-delay plumbing: serve_requests " +
            std::to_string(stats.serve_requests) + " != executed " +
            std::to_string(engine.ExecutedTotal());
    } else if (hist_count != engine.ExecutedTotal()) {
      err = "latency histogram count " + std::to_string(hist_count) +
            " != executed " + std::to_string(engine.ExecutedTotal());
    } else {
      err = CheckNoLockHeld(tm);
    }
    if (err) {
      std::fprintf(stderr,
                   "FAIL serve seed=%llu mvcc=%d: %s\n"
                   "replay: --serve-chaos --seed=%llu --threads=%d\n",
                   static_cast<unsigned long long>(seed),
                   cfg.enable_mvcc ? 1 : 0, err->c_str(),
                   static_cast<unsigned long long>(seed), flags.threads);
      DumpTraceTo(plan, flags.failpoint_trace);
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// --crash-chaos: durability sweep over TuFast, the one scheduler with a
// WAL. Every crash site runs a bank-conservation workload with the WAL
// enabled, once with MVCC off and once with it on (so version installs
// and log publishes share the commit windows), forces a crash
// mid-flush (torn write, short write, or power loss before fsync),
// recovers a fresh graph from the log, and checks that
//   - no acknowledged commit was lost (recovered seq >= durable seq),
//   - no partial transaction is visible (every conservation pair is
//     both-or-neither and sums to the constant),
//   - the recovered state is a prefix of the committed state,
//   - a second workload phase runs cleanly on the recovered graph, and
//   - with MVCC on, every version store keeps its flush balance.
// A separate case exercises checkpoint + WAL-truncation recovery,
// including a torn checkpoint image that CRC validation must reject,
// and a serving-engine case (MVCC snapshot reads on) crashes the log
// under live traffic.

struct CrashChaosTotals {
  uint64_t runs = 0;
  uint64_t crashes = 0;
  SchedulerStats stats;  // Merged over every run; the WAL rows read it.
  uint64_t wal_fsyncs = 0;
  uint64_t replayed = 0;
  uint64_t torn_tails = 0;
  uint64_t checkpoint_recoveries = 0;
  uint64_t mvcc_runs = 0;
  uint64_t mvcc_installed = 0;
};

using CrashScheduler = TuFastScheduler<FaultyHtm>;

CrashScheduler::Config CrashConfig(bool mvcc) {
  CrashScheduler::Config cfg;
  cfg.enable_mvcc = mvcc;
  return cfg;
}

/// Flush balance of a quiesced MVCC run (no-op with MVCC off), counted
/// into the totals so a sweep that installed nothing shows it.
std::optional<std::string> CheckCrashMvcc(CrashScheduler& tm,
                                          CrashChaosTotals& totals) {
  auto* store = tm.mvcc_store();
  if (store == nullptr) return std::nullopt;
  ++totals.mvcc_runs;
  totals.mvcc_installed += store->Counters().installed_nodes;
  return CheckMvccFlushBalance(*store);
}

constexpr VertexId kCrashCapacity = 1024;
constexpr VertexId kCrashSources = 8;    // txn t writes under 2 + t % 8
constexpr VertexId kCrashPairBase = 64;  // conservation pairs live here
constexpr VertexId kCrashPairs = 4;
constexpr VertexId kCrashMarkerBase = 128;  // marker edge = 128 + txn id
constexpr uint32_t kCrashPairSum = 1000;

VertexId CrashSrc(uint64_t t) {
  return 2 + static_cast<VertexId>(t % kCrashSources);
}

std::string CrashTempPath(const char* name, const char* kind, int round,
                          int site) {
  return "/tmp/tufast_crash_" + std::to_string(getpid()) + "_" + name + "_" +
         std::to_string(round) + "_" + std::to_string(site) + "." + kind;
}

/// Transaction t: both halves of one conservation pair (weights summing
/// to kCrashPairSum) plus a unique marker edge, all under one source
/// vertex so the batch is a single transaction and a single WAL record.
/// Any prefix of committed transactions satisfies the pair invariant;
/// a partially applied transaction breaks it.
void RunCrashWorkload(CrashScheduler& tm, DynamicGraph& dyn,
                      BasicWalWriter<StressFailpoints>* writer, int threads,
                      uint64_t first_txn, uint64_t txns) {
  std::atomic<uint64_t> next{first_txn};
  const uint64_t end = first_txn + txns;
  auto body = [&](int worker) {
    for (;;) {
      if (writer != nullptr && writer->crashed()) return;
      const uint64_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= end) return;
      const VertexId u = CrashSrc(t);
      const VertexId a =
          kCrashPairBase + 2 * static_cast<VertexId>(t % kCrashPairs);
      const uint32_t w =
          1 + static_cast<uint32_t>((t * 37) % (kCrashPairSum - 1));
      const EdgeUpdate ups[3] = {
          EdgeUpdate::Insert(u, a, w),
          EdgeUpdate::Insert(u, a + 1, kCrashPairSum - w),
          EdgeUpdate::Insert(u, kCrashMarkerBase + static_cast<VertexId>(t), 1),
      };
      dyn.ApplyBatch(tm, worker, std::span<const EdgeUpdate>(ups, 3));
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int i = 0; i < threads; ++i) workers.emplace_back(body, i);
  for (auto& th : workers) th.join();
}

/// Structural invariants plus the conservation and marker checks over a
/// quiesced graph. `txn_bound` is an exclusive upper bound on marker
/// transaction ids ever started; `markers` (optional) collects the ids
/// found so callers can compare committed vs recovered sets.
std::optional<std::string> CheckCrashState(const DynamicGraph& dyn,
                                           uint64_t txn_bound,
                                           std::set<uint64_t>* markers) {
  if (auto err = dyn.CheckInvariantsQuiesced()) return err;
  const Graph g = dyn.Freeze();
  for (VertexId u = 2; u < 2 + kCrashSources && u < g.NumVertices(); ++u) {
    uint32_t weight[kCrashPairs][2] = {};
    bool present[kCrashPairs][2] = {};
    const auto nbrs = g.OutNeighbors(u);
    const auto wts = g.OutWeights(u);
    for (size_t e = 0; e < nbrs.size(); ++e) {
      const VertexId d = nbrs[e];
      if (d >= kCrashMarkerBase) {
        const uint64_t t = d - kCrashMarkerBase;
        if (t >= txn_bound) {
          return "phantom marker for txn " + std::to_string(t) +
                 " (only " + std::to_string(txn_bound) + " ever started)";
        }
        if (CrashSrc(t) != u) {
          return "marker for txn " + std::to_string(t) +
                 " filed under vertex " + std::to_string(u);
        }
        if (markers != nullptr) markers->insert(t);
      } else if (d >= kCrashPairBase && d < kCrashPairBase + 2 * kCrashPairs) {
        const VertexId j = (d - kCrashPairBase) / 2;
        const int side = static_cast<int>((d - kCrashPairBase) % 2);
        present[j][side] = true;
        weight[j][side] = wts[e];
      }
    }
    for (VertexId j = 0; j < kCrashPairs; ++j) {
      if (present[j][0] != present[j][1]) {
        return "torn transaction visible: vertex " + std::to_string(u) +
               " pair " + std::to_string(j) + " has one side only";
      }
      if (present[j][0] && weight[j][0] + weight[j][1] != kCrashPairSum) {
        return "conservation broken: vertex " + std::to_string(u) + " pair " +
               std::to_string(j) + " sums to " +
               std::to_string(weight[j][0] + weight[j][1]);
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> CrashCheckpointCase(const BenchFlags& flags,
                                               CrashChaosTotals& totals) {
  const std::string wal_path = CrashTempPath("tufast", "ckwal", 0, 0);
  const std::string ck_path = CrashTempPath("tufast", "ckpt", 0, 0);
  const uint64_t phase1 = flags.quick ? 50 : 100;
  const uint64_t phase2 = 40;

  DynamicGraph live(kCrashCapacity, {.weighted = true});
  live.EnsureVerticesQuiesced(kCrashCapacity);
  FaultyHtm htm;
  CrashScheduler tm(htm, kCrashCapacity, CrashConfig(/*mvcc=*/false));
  BasicWalWriter<StressFailpoints> writer(wal_path);
  if (!writer.ok()) return "cannot open wal at " + wal_path;
  tm.EnableWal(&writer);

  // Clean phase 1, then a checkpoint attempt that dies halfway and
  // leaves a torn image at the final path.
  RunCrashWorkload(tm, live, &writer, flags.threads, 0, phase1);
  ++totals.runs;
  {
    FailpointPlan::Config pc;
    pc.seed = flags.seed;
    FailpointPlan plan(pc);
    plan.ForceAt(FailSite::kCheckpointPartial, 0, 0, FailAction::kFail);
    FailpointScope scope(plan);
    if (WriteCheckpoint<StressFailpoints>(live, ck_path,
                                          writer.durable_seq())) {
      return "checkpoint write survived the injected partial-write crash";
    }
  }
  {
    // The torn image must be rejected (CRC) and the untruncated WAL must
    // carry recovery on its own.
    DynamicGraph rec(kCrashCapacity, {.weighted = true});
    const WalRecoveryResult res = RecoverFromWal(&rec, wal_path, ck_path);
    totals.replayed += res.replayed;
    if (res.from_checkpoint) return "torn checkpoint image accepted";
    if (res.last_seq < writer.durable_seq()) {
      return "acked commits lost recovering around the torn checkpoint";
    }
    rec.EnsureVerticesQuiesced(kCrashCapacity);
    if (auto err = CheckCrashState(rec, phase1, nullptr)) return err;
  }

  // A good checkpoint lets the WAL truncate; a crash afterwards must
  // recover from snapshot + short log suffix.
  if (!WriteCheckpoint(live, ck_path, writer.durable_seq())) {
    return "checkpoint write failed";
  }
  if (!writer.Truncate()) return "wal truncation failed";
  {
    FailpointPlan::Config pc;
    pc.seed = flags.seed + 1;
    FailpointPlan plan(pc);
    plan.ForceAt(FailSite::kWalTornWrite, 0, 8 + flags.seed % 8,
                 FailAction::kFail);
    FailpointScope scope(plan);
    RunCrashWorkload(tm, live, &writer, flags.threads, phase1, phase2);
  }
  ++totals.runs;
  if (writer.crashed()) ++totals.crashes;
  totals.stats.Merge(tm.AggregatedStats());
  totals.wal_fsyncs += writer.fsyncs();
  if (auto err = CheckNoLockHeld(tm)) return err;
  DynamicGraph rec(kCrashCapacity, {.weighted = true});
  const WalRecoveryResult res = RecoverFromWal(&rec, wal_path, ck_path);
  totals.replayed += res.replayed;
  ++totals.checkpoint_recoveries;
  if (!res.from_checkpoint) return "valid checkpoint not used for recovery";
  if (res.last_seq < writer.durable_seq()) {
    return "acked commit lost across checkpoint+wal recovery";
  }
  rec.EnsureVerticesQuiesced(kCrashCapacity);
  if (auto err = CheckCrashState(rec, phase1 + phase2, nullptr)) return err;
  std::remove(wal_path.c_str());
  std::remove(ck_path.c_str());
  return std::nullopt;
}

bool RunCrashChaos(const BenchFlags& flags, CrashChaosTotals& totals) {
  const FailSite sites[] = {FailSite::kWalTornWrite, FailSite::kWalShortWrite,
                            FailSite::kCrashBeforeFsync};
  for (int round = 0; round < 2; ++round) {
    int site_idx = 0;
    for (FailSite site : sites) {
      const uint64_t seed = flags.seed + site_idx + 3 * round;
      // MVCC and the WAL together in the second round.
      const bool mvcc = round == 1;
      const std::string wal_path =
          CrashTempPath("tufast", "wal", round, site_idx);
      const std::string wal2_path =
          CrashTempPath("tufast", "wal2", round, site_idx);
      const uint64_t phase1 = flags.quick ? 60 : 120;
      std::optional<std::string> err;

      DynamicGraph live(kCrashCapacity, {.weighted = true});
      live.EnsureVerticesQuiesced(kCrashCapacity);
      bool crashed = false;
      uint64_t durable = 0;
      {
        FaultyHtm htm;
        CrashScheduler tm(htm, kCrashCapacity, CrashConfig(mvcc));
        BasicWalWriter<StressFailpoints> writer(wal_path);
        if (!writer.ok()) {
          err = "cannot open wal at " + wal_path;
        } else {
          tm.EnableWal(&writer);
          FailpointPlan::Config pc;
          pc.seed = seed;
          FailpointPlan plan(pc);
          // Crash at the Nth group-commit flush, somewhere mid-workload.
          plan.ForceAt(site, 0, 4 + seed % 8, FailAction::kFail);
          {
            FailpointScope scope(plan);
            RunCrashWorkload(tm, live, &writer, flags.threads, 0, phase1);
          }
          crashed = writer.crashed();
          durable = writer.durable_seq();
          totals.stats.Merge(tm.AggregatedStats());
          totals.wal_fsyncs += writer.fsyncs();
          err = CheckCrashMvcc(tm, totals);
          if (!err) err = CheckNoLockHeld(tm);
        }
      }
      ++totals.runs;
      if (crashed) ++totals.crashes;

      DynamicGraph recovered(kCrashCapacity, {.weighted = true});
      if (!err) {
        const WalRecoveryResult res = RecoverFromWal(&recovered, wal_path);
        totals.replayed += res.replayed;
        if (res.torn_tail) ++totals.torn_tails;
        if (res.last_seq < durable) {
          err = "acked commit lost: durable seq " + std::to_string(durable) +
                ", recovered through " + std::to_string(res.last_seq);
        } else if (crashed && site == FailSite::kCrashBeforeFsync &&
                   res.torn_tail) {
          err = "fully-written log scanned as torn";
        } else if (crashed && site != FailSite::kCrashBeforeFsync &&
                   !res.torn_tail) {
          err = "injected torn/short write not detected in the log tail";
        }
        recovered.EnsureVerticesQuiesced(kCrashCapacity);
      }

      // Prefix consistency: the recovered marker set must be a subset of
      // the committed (in-memory) one, and both states must satisfy the
      // conservation invariant on their own.
      std::set<uint64_t> live_markers;
      std::set<uint64_t> recovered_markers;
      if (!err) {
        if ((err = CheckCrashState(live, phase1, &live_markers))) {
          err = "committed state: " + *err;
        }
      }
      if (!err) {
        if ((err = CheckCrashState(recovered, phase1, &recovered_markers))) {
          err = "recovered state: " + *err;
        }
      }
      if (!err &&
          !std::includes(live_markers.begin(), live_markers.end(),
                         recovered_markers.begin(), recovered_markers.end())) {
        err = "recovered state is not a prefix of the committed state";
      }

      // Phase 2: the recovered graph must accept new transactions — and
      // a fresh log — as if nothing happened.
      if (!err) {
        FaultyHtm htm2;
        CrashScheduler tm2(htm2, kCrashCapacity, CrashConfig(mvcc));
        BasicWalWriter<StressFailpoints> writer2(wal2_path);
        if (!writer2.ok()) {
          err = "cannot open wal at " + wal2_path;
        } else {
          tm2.EnableWal(&writer2);
          const uint64_t phase2 = 40;
          RunCrashWorkload(tm2, recovered, nullptr, flags.threads, phase1,
                           phase2);
          totals.stats.Merge(tm2.AggregatedStats());
          totals.wal_fsyncs += writer2.fsyncs();
          err = CheckCrashState(recovered, phase1 + phase2, nullptr);
          if (!err && writer2.durable_seq() != writer2.records()) {
            err = "clean run left undurable records: " +
                  std::to_string(writer2.records()) + " published, durable " +
                  std::to_string(writer2.durable_seq());
          }
          if (!err) err = CheckCrashMvcc(tm2, totals);
          if (!err) err = CheckNoLockHeld(tm2);
        }
      }
      if (err) {
        std::fprintf(stderr,
                     "FAIL tufast site=%s mvcc=%d: %s\n"
                     "replay: --crash-chaos --seed=%llu --threads=%d\n",
                     FailSiteName(site), mvcc ? 1 : 0,
                     err->c_str(), static_cast<unsigned long long>(flags.seed),
                     flags.threads);
        return false;
      }
      std::remove(wal_path.c_str());
      std::remove(wal2_path.c_str());
      ++site_idx;
    }
  }
  if (auto err = CrashCheckpointCase(flags, totals)) {
    std::fprintf(stderr,
                 "FAIL tufast checkpoint case: %s\n"
                 "replay: --crash-chaos --seed=%llu --threads=%d\n",
                 err->c_str(), static_cast<unsigned long long>(flags.seed),
                 flags.threads);
    return false;
  }
  return true;
}

/// Serving-engine crash case: the WAL dies under live traffic, the
/// engine drains, and the disposition conservation identity must still
/// hold exactly (a log crash must never double-count or lose a request
/// disposition). The log then recovers into a fresh graph that a fresh
/// engine serves — the re-admitted traffic conserves on its own fresh
/// counters, so nothing is double-counted across the recovery boundary.
/// MVCC is on throughout, so the serving reads go through snapshots
/// while the log crashes.
bool RunServeCrash(const BenchFlags& flags, CrashChaosTotals& totals) {
  using Scheduler = CrashScheduler;
  using Engine = serving::ServeEngine<Scheduler>;
  const uint64_t requests = flags.quick ? 1500 : 4000;
  const std::string wal_path = CrashTempPath("serve", "wal", 0, 0);
  const std::string wal2_path = CrashTempPath("serve", "wal2", 0, 0);
  std::optional<std::string> err;

  FaultyHtm htm;
  auto dyn = std::make_unique<DynamicGraph>(VertexId{64});
  const Scheduler::Config cfg = CrashConfig(/*mvcc=*/true);
  Scheduler tm(htm, dyn->capacity(), cfg);
  BasicWalWriter<StressFailpoints> writer(wal_path);
  if (!writer.ok()) {
    std::fprintf(stderr, "FAIL serve crash: cannot open wal at %s\n",
                 wal_path.c_str());
    return false;
  }
  tm.EnableWal(&writer);
  for (VertexId u = 0; u < 64; ++u) dyn->AddVertex(tm, 0);
  for (VertexId u = 0; u < 64; ++u) {
    dyn->InsertEdge(tm, 0, u, (u + 1) % 64, static_cast<uint32_t>(u));
  }

  serving::LoadConfig lc;
  lc.rate = 1e6;
  lc.zipf_alpha = 0.99;
  lc.num_keys = 64;
  lc.interactive_percent = 70;
  serving::LoadGenerator gen(lc, flags.seed);

  Engine::Config ec;
  ec.num_workers = flags.threads;
  ec.queue_capacity = 64;
  ec.defer_capacity = 64;
  ec.admission.enabled = true;
  ec.admission.slo_p99_ns = 50'000'000;
  ec.admission.window = 64;
  {
    FailpointPlan::Config pc;
    pc.seed = flags.seed;
    FailpointPlan plan(pc);
    plan.ForceAt(FailSite::kWalTornWrite, 0, 32 + flags.seed % 32,
                 FailAction::kFail);
    FailpointScope scope(plan);
    Engine engine(tm, *dyn, ec);
    engine.Start();
    for (uint64_t r = 0; r < requests; ++r) {
      engine.Offer(gen.NextRequest());
      if ((r & 0xf) == 0) engine.TryReadmit(4);
    }
    engine.Drain();

    ++totals.runs;
    if (writer.crashed()) ++totals.crashes;
    const serving::AdmissionController& ac = engine.admission();
    uint64_t offered = 0;
    uint64_t admitted = 0;
    for (int t = 0; t < serving::kNumTenants; ++t) {
      const serving::Tenant tenant = static_cast<serving::Tenant>(t);
      offered += ac.Offered(tenant);
      admitted += ac.Admitted(tenant);
    }
    if (offered != requests) {
      err = "offered drift under log crash: " + std::to_string(offered) +
            " != " + std::to_string(requests);
    } else if (!ac.Conserved()) {
      err = "disposition conservation broken by the log crash";
    } else if (engine.ExecutedTotal() != admitted) {
      err = "executed " + std::to_string(engine.ExecutedTotal()) +
            " != admitted " + std::to_string(admitted) + " under log crash";
    }
  }
  totals.stats.Merge(tm.AggregatedStats());
  totals.wal_fsyncs += writer.fsyncs();
  if (!err) err = CheckCrashMvcc(tm, totals);
  if (!err) err = CheckNoLockHeld(tm);

  // Recover the serving graph and re-serve on top of it.
  DynamicGraph rec(VertexId{64});
  if (!err) {
    const WalRecoveryResult res = RecoverFromWal(&rec, wal_path);
    totals.replayed += res.replayed;
    if (res.torn_tail) ++totals.torn_tails;
    if (res.last_seq < writer.durable_seq()) {
      err = "serve recovery lost acked commits";
    }
    rec.EnsureVerticesQuiesced(VertexId{64});
    if (!err) {
      if (auto inv = rec.CheckInvariantsQuiesced()) err = inv;
    }
  }
  if (!err) {
    FaultyHtm htm2;
    Scheduler tm2(htm2, rec.capacity(), cfg);
    BasicWalWriter<StressFailpoints> writer2(wal2_path);
    tm2.EnableWal(&writer2);
    Engine engine2(tm2, rec, ec);
    engine2.Start();
    const uint64_t requests2 = requests / 4;
    for (uint64_t r = 0; r < requests2; ++r) {
      engine2.Offer(gen.NextRequest());
      if ((r & 0xf) == 0) engine2.TryReadmit(4);
    }
    engine2.Drain();
    ++totals.runs;
    const serving::AdmissionController& ac2 = engine2.admission();
    uint64_t offered2 = 0;
    uint64_t admitted2 = 0;
    for (int t = 0; t < serving::kNumTenants; ++t) {
      const serving::Tenant tenant = static_cast<serving::Tenant>(t);
      offered2 += ac2.Offered(tenant);
      admitted2 += ac2.Admitted(tenant);
    }
    if (offered2 != requests2) {
      err = "re-admitted traffic miscounted after recovery: " +
            std::to_string(offered2) + " != " + std::to_string(requests2);
    } else if (!ac2.Conserved()) {
      err = "disposition conservation broken after recovery";
    } else if (engine2.ExecutedTotal() != admitted2) {
      err = "double-count after recovery: executed " +
            std::to_string(engine2.ExecutedTotal()) + " != admitted " +
            std::to_string(admitted2);
    }
    totals.stats.Merge(tm2.AggregatedStats());
    totals.wal_fsyncs += writer2.fsyncs();
    if (!err) err = CheckCrashMvcc(tm2, totals);
    if (!err) err = CheckNoLockHeld(tm2);
  }
  if (err) {
    std::fprintf(stderr,
                 "FAIL serve crash: %s\n"
                 "replay: --crash-chaos --seed=%llu --threads=%d\n",
                 err->c_str(), static_cast<unsigned long long>(flags.seed),
                 flags.threads);
    return false;
  }
  std::remove(wal_path.c_str());
  std::remove(wal2_path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv, /*default_scale=*/1.0);
  const uint64_t seeds =
      flags.quick ? 2 : static_cast<uint64_t>(8 * flags.scale + 0.5);

  if (flags.crash_chaos) {
    CrashChaosTotals ct;
    bool ok = true;
    ok = ok && RunCrashChaos(flags, ct);
    ok = ok && RunServeCrash(flags, ct);
    ReportTable table({"metric", "value"});
    table.AddRow({"crash runs", ReportTable::Int(ct.runs)});
    table.AddRow({"forced crashes", ReportTable::Int(ct.crashes)});
    table.AddRow(
        {"wal records published", ReportTable::Int(ct.stats.wal_records)});
    table.AddRow({"wal payload bytes", ReportTable::Int(ct.stats.wal_bytes)});
    table.AddRow({"wal fsyncs", ReportTable::Int(ct.wal_fsyncs)});
    table.AddRow({"records replayed", ReportTable::Int(ct.replayed)});
    table.AddRow({"torn tails detected", ReportTable::Int(ct.torn_tails)});
    table.AddRow({"checkpoint recoveries",
                  ReportTable::Int(ct.checkpoint_recoveries)});
    table.AddRow({"mvcc runs", ReportTable::Int(ct.mvcc_runs)});
    table.AddRow(
        {"mvcc versions installed", ReportTable::Int(ct.mvcc_installed)});
    table.AddRow({"verdict", ok ? "PASS" : "FAIL"});
    table.Print("stress fuzz (crash chaos)");
    return ok ? 0 : 1;
  }

  if (flags.serve_chaos) {
    ServeChaosTotals st;
    const bool ok = RunServeChaos(flags, seeds, st);
    ReportTable table({"metric", "value"});
    table.AddRow({"suite runs", ReportTable::Int(st.runs)});
    table.AddRow({"fault injections", ReportTable::Int(st.injections)});
    table.AddRow({"requests offered", ReportTable::Int(st.offered)});
    table.AddRow({"requests admitted", ReportTable::Int(st.admitted)});
    table.AddRow({"requests shed", ReportTable::Int(st.shed)});
    table.AddRow({"requests deferred", ReportTable::Int(st.deferred)});
    table.AddRow({"requests readmitted", ReportTable::Int(st.readmitted)});
    table.AddRow({"controller trips", ReportTable::Int(st.controller_trips)});
    table.AddRow(
        {"breaker-signal trips", ReportTable::Int(st.breaker_trips)});
    table.AddRow({"verdict", ok ? "PASS" : "FAIL"});
    table.Print("stress fuzz (serve chaos)");
    return ok ? 0 : 1;
  }

  FuzzTotals totals;
  bool ok = true;
  if (flags.mvcc_chaos) {
    ok = FuzzScheduler<TuFastScheduler<FaultyHtm>, /*kMvcc=*/true>(
        "tufast", flags, seeds, totals);
  } else {
    ok = ok && FuzzScheduler<TuFastScheduler<FaultyHtm>>("tufast", flags,
                                                         seeds, totals);
    ok = ok && FuzzScheduler<TwoPhaseLocking<FaultyHtm>>("2pl", flags, seeds,
                                                         totals);
    ok = ok && FuzzScheduler<SiloOcc<FaultyHtm>>("silo", flags, seeds, totals);
    ok = ok && FuzzScheduler<TimestampOrdering<FaultyHtm>>("to", flags, seeds,
                                                           totals);
    ok = ok &&
         FuzzScheduler<TinyStm<FaultyHtm>>("tinystm", flags, seeds, totals);
    ok = ok &&
         FuzzScheduler<HsyncHybrid<FaultyHtm>>("hsync", flags, seeds, totals);
    ok = ok && FuzzScheduler<HtmTimestampOrdering<FaultyHtm>>("hto", flags,
                                                              seeds, totals);
  }

  ReportTable table({"metric", "value"});
  table.AddRow({"suite runs", ReportTable::Int(totals.runs)});
  table.AddRow({"seeds per scheduler", ReportTable::Int(seeds)});
  table.AddRow({"fault injections", ReportTable::Int(totals.injections)});
  if (flags.progress_chaos) {
    const SchedulerStats& stats = totals.stats;
    table.AddRow({"backoff events", ReportTable::Int(stats.backoff_events)});
    table.AddRow({"breaker bypass", ReportTable::Int(stats.breaker_bypass)});
    table.AddRow({"max txn aborts", ReportTable::Int(stats.max_txn_aborts)});
  }
  if (flags.mvcc_chaos) {
    table.AddRow(
        {"mvcc versions installed", ReportTable::Int(totals.mvcc_installed)});
    table.AddRow({"mvcc versions freed", ReportTable::Int(totals.mvcc_freed)});
    table.AddRow({"mvcc snapshots", ReportTable::Int(totals.mvcc_snapshots)});
    table.AddRow(
        {"mvcc snapshot reads", ReportTable::Int(totals.mvcc_snapshot_reads)});
    table.AddRow({"mvcc reclaim passes",
                  ReportTable::Int(totals.mvcc_reclaim_passes)});
    table.AddRow({"mvcc max chain walk",
                  ReportTable::Int(totals.mvcc_max_chain_walk)});
  }
  table.AddRow({"verdict", ok ? "PASS" : "FAIL"});
  table.Print("stress fuzz");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace tufast

int main(int argc, char** argv) { return tufast::Main(argc, argv); }
