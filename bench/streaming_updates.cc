// Streaming-update engine benchmark: transactional insert/delete/
// reweight mixes applied to the dynamic adjacency store over RMAT
// (skewed) and uniform-degree (even) generators, with the incremental
// analytics drivers cross-checked against from-scratch runs on frozen
// snapshots.
//
// Reported per dataset:
//   - update throughput per mix (growth-only and churn), with the
//     committed insert/delete/reweight/missing tallies;
//   - the per-mode commit breakdown (H/O/O+/O2L/L) of the update
//     transactions — the degree-as-size-hint routing made visible:
//     skewed datasets push hub mutations into O/L, uniform ones stay
//     almost entirely in H;
//   - incremental WCC and warm-start PageRank versus from-scratch runs
//     on the same frozen snapshot (equality / tolerance checked here,
//     not just timed).
// Sanity failures (conservation, audit, analytics mismatch) exit 1.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "algorithms/wcc.h"
#include "bench/bench_common.h"
#include "bench_support/reporting.h"
#include "common/rng.h"
#include "common/timer.h"
#include "durability/recovery.h"
#include "graph/dynamic/dynamic_graph.h"
#include "graph/dynamic/incremental.h"
#include "graph/generators.h"
#include "htm/emulated_htm.h"
#include "runtime/thread_pool.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "SANITY FAILURE: %s\n", what.c_str());
    ++g_failures;
  }
}

struct MixSpec {
  const char* name;
  int insert_pct;  // Remainder after insert+delete is reweight.
  int delete_pct;
  bool zipf_sources;  // Skew update sources onto hubs.
};

struct MixOutcome {
  ApplyResult tally;
  double seconds = 0;
  uint64_t updates = 0;
  std::vector<EdgeUpdate> applied;  // Insert-only mixes: feed for WCC.
};

MixOutcome RunMix(DynamicGraph& dyn, TuFastInstrumented& tm, ThreadPool& pool,
                  const MixSpec& mix, int batches_per_thread, int batch_size,
                  uint64_t seed, bool keep_updates) {
  const int threads = pool.num_threads();
  const VertexId n = dyn.NumVertices();
  std::vector<ApplyResult> tallies(threads);
  std::vector<std::vector<EdgeUpdate>> logs(threads);
  WallTimer timer;
  pool.RunOnAll([&](int worker) {
    uint64_t sm = seed + 0x100 * static_cast<uint64_t>(worker + 1);
    Rng rng(SplitMix64(sm) ^ 0x5eedULL);
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < batches_per_thread; ++i) {
      batch.clear();
      for (int k = 0; k < batch_size; ++k) {
        const VertexId u = static_cast<VertexId>(
            mix.zipf_sources ? rng.NextZipf(n, 0.8) : rng.NextBounded(n));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        const int r = static_cast<int>(rng.NextBounded(100));
        const uint32_t w = static_cast<uint32_t>(1 + rng.NextBounded(255));
        if (r < mix.insert_pct) {
          batch.push_back(EdgeUpdate::Insert(u, v, w));
        } else if (r < mix.insert_pct + mix.delete_pct) {
          batch.push_back(EdgeUpdate::Delete(u, v));
        } else {
          batch.push_back(EdgeUpdate::Reweight(u, v, w));
        }
      }
      tallies[worker].Merge(dyn.ApplyBatch(tm, worker, batch));
      if (keep_updates) {
        logs[worker].insert(logs[worker].end(), batch.begin(), batch.end());
      }
    }
  });

  MixOutcome out;
  out.seconds = timer.ElapsedSeconds();
  out.updates = static_cast<uint64_t>(threads) * batches_per_thread *
                batch_size;
  for (const ApplyResult& t : tallies) out.tally.Merge(t);
  for (auto& log : logs) {
    out.applied.insert(out.applied.end(), log.begin(), log.end());
  }
  return out;
}

void ReportModeBreakdown(const TuFastInstrumented& tm,
                         const std::string& title) {
  const SchedulerStats stats = tm.AggregatedStats();
  const TelemetrySnapshot& snap = tm.AggregatedTelemetry().Snapshot();
  JsonReport::AddTelemetry(title, stats, snap);
  const uint64_t total = stats.commits;
  ReportTable table({"class", "committed txns", "% txns", "avg ops/txn"});
  for (int c = 0; c < kNumTxnClasses; ++c) {
    const uint64_t count = stats.class_count[c];
    table.AddRow({TxnClassName(static_cast<TxnClass>(c)),
                  ReportTable::Int(count),
                  ReportTable::Num(total ? 100.0 * count / total : 0),
                  ReportTable::Num(
                      count ? static_cast<double>(stats.class_ops[c]) / count
                            : 0)});
  }
  table.Print(title);
  // ApplyBatch routes per-source update groups through the batch
  // executor, so the update mixes exercise group-commit fusion; surface
  // the achieved widths alongside the mode split.
  PrintFusionSummary(stats, snap, "fusion summary — " + title);
}

void RunDataset(const std::string& name, const Graph& base,
                const BenchFlags& flags, bool skewed) {
  ThreadPool pool(flags.threads);
  const int batches = flags.quick ? 50 : 200;
  const int batch_size = 32;

  auto dyn = DynamicGraph::FromCsr(base);
  const uint64_t initial_live = dyn->TotalLiveEdges();

  // Baseline analytics state on the pre-stream snapshot.
  EmulatedHtm algo_htm;
  TuFast algo_tm(algo_htm, base.NumVertices());
  const Graph g0 = dyn->Freeze();
  PageRankOptions pr_options;
  pr_options.tolerance = 1e-10;
  pr_options.max_iterations = 200;
  IncrementalPageRank ipr(pr_options);
  ipr.Update(algo_tm, pool, g0, g0.Reversed());
  IncrementalWcc wcc(base.NumVertices());
  wcc.RebuildFromSnapshot(g0);

  ReportTable mixes({"mix", "updates", "inserted", "removed", "reweighted",
                     "missing", "seconds", "updates/s"});

  // Growth-only mix: every update is an insert, so the incremental WCC
  // driver can track the stream without a rebuild.
  const MixSpec growth{"growth", 100, 0, skewed};
  {
    EmulatedHtm htm;
    TuFastInstrumented tm(htm, dyn->capacity());
    const MixOutcome out = RunMix(*dyn, tm, pool, growth, batches,
                                  batch_size, flags.seed, true);
    mixes.AddRow({growth.name, ReportTable::Int(out.updates),
                  ReportTable::Int(out.tally.inserted),
                  ReportTable::Int(out.tally.removed),
                  ReportTable::Int(out.tally.updated),
                  ReportTable::Int(out.tally.missing),
                  ReportTable::Num(out.seconds),
                  ReportTable::Num(out.updates / out.seconds)});
    Check(dyn->TotalLiveEdges() ==
              initial_live + out.tally.inserted - out.tally.removed,
          name + " growth: live-edge conservation");
    Check(dyn->CheckInvariantsQuiesced() == std::nullopt,
          name + " growth: structural audit");
    ReportModeBreakdown(tm, "mode breakdown — " + name + ", growth mix");

    // Incremental analytics versus from-scratch on the new snapshot.
    WallTimer inc_timer;
    wcc.OnBatch(out.applied);
    const std::vector<TmWord> inc_labels = wcc.Labels();
    const double inc_wcc_s = inc_timer.ElapsedSeconds();
    const Graph g1 = dyn->Freeze();
    const Graph g1u = g1.Undirected();
    WallTimer scratch_timer;
    const std::vector<TmWord> tm_labels = WccTm(algo_tm, pool, g1u);
    const double scratch_wcc_s = scratch_timer.ElapsedSeconds();
    Check(!wcc.NeedsRebuild(), name + ": insert-only stream flagged rebuild");
    Check(inc_labels == tm_labels,
          name + ": incremental WCC diverged from WccTm");
    Check(inc_labels == ReferenceWcc(g1u),
          name + ": incremental WCC diverged from the reference");

    const Graph g1r = g1.Reversed();
    WallTimer warm_timer;
    const PageRankResult warm = ipr.Update(algo_tm, pool, g1, g1r);
    const double warm_s = warm_timer.ElapsedSeconds();
    WallTimer cold_timer;
    const PageRankResult cold = PageRankTm(algo_tm, pool, g1, g1r,
                                           pr_options);
    const double cold_s = cold_timer.ElapsedSeconds();
    double max_diff = 0;
    for (size_t v = 0; v < warm.ranks.size(); ++v) {
      max_diff = std::max(max_diff,
                          std::fabs(warm.ranks[v] - cold.ranks[v]));
    }
    Check(max_diff < 1e-6, name + ": warm-start PageRank diverged (" +
                               std::to_string(max_diff) + ")");

    ReportTable analytics({"algorithm", "incremental s", "from-scratch s",
                           "inc iters", "scratch iters", "agrees"});
    analytics.AddRow({"WCC", ReportTable::Num(inc_wcc_s),
                      ReportTable::Num(scratch_wcc_s), "-", "-",
                      inc_labels == tm_labels ? "yes" : "NO"});
    analytics.AddRow({"PageRank", ReportTable::Num(warm_s),
                      ReportTable::Num(cold_s),
                      ReportTable::Int(warm.iterations),
                      ReportTable::Int(cold.iterations),
                      max_diff < 1e-6 ? "yes" : "NO"});
    analytics.Print("incremental analytics — " + name);
  }

  // Churn mix: inserts, deletes and reweights with skew-matched sources;
  // afterwards the compaction pass reclaims the tombstoned slack.
  const MixSpec churn{"churn", 50, 40, skewed};
  {
    EmulatedHtm htm;
    TuFastInstrumented tm(htm, dyn->capacity());
    const uint64_t live_before = dyn->TotalLiveEdges();
    const MixOutcome out = RunMix(*dyn, tm, pool, churn, batches, batch_size,
                                  flags.seed + 1, false);
    mixes.AddRow({churn.name, ReportTable::Int(out.updates),
                  ReportTable::Int(out.tally.inserted),
                  ReportTable::Int(out.tally.removed),
                  ReportTable::Int(out.tally.updated),
                  ReportTable::Int(out.tally.missing),
                  ReportTable::Num(out.seconds),
                  ReportTable::Num(out.updates / out.seconds)});
    Check(dyn->TotalLiveEdges() ==
              live_before + out.tally.inserted - out.tally.removed,
          name + " churn: live-edge conservation");
    Check(dyn->CheckInvariantsQuiesced() == std::nullopt,
          name + " churn: structural audit");
    ReportModeBreakdown(tm, "mode breakdown — " + name + ", churn mix");

    const uint64_t blocks_before = dyn->AllocatedBlocks();
    const Graph before = dyn->Freeze();
    dyn->CompactQuiesced();
    const Graph after = dyn->Freeze();
    Check(before.offsets() == after.offsets() &&
              before.targets() == after.targets() &&
              before.weights() == after.weights(),
          name + ": compaction changed the frozen snapshot");
    std::printf("%s: compaction %llu -> %llu blocks\n", name.c_str(),
                static_cast<unsigned long long>(blocks_before),
                static_cast<unsigned long long>(dyn->AllocatedBlocks()));
  }

  mixes.Print("streaming updates — " + name + " (" +
              std::to_string(flags.threads) + " threads)");
}

// Reader/writer mix (--mvcc): writer threads stream a churn mix while
// reader threads hammer per-vertex snapshot reads through RunReadOnly.
// Each dataset runs the identical workload with MVCC off (readers are
// ordinary transactions that CAN abort under write pressure) and MVCC on
// (snapshot reads, abort-free by construction) — so one JSON carries
// both the reader abort rates and the writer-throughput overhead of
// version installation. The off/on pair repeats kMixRepetitions times in
// alternating order; each row reports the median rates, and the reader
// transactions and aborts summed over every repetition. Per-read
// consistency is asserted inline: a committed (or snapshot) read must
// see degree == live slots.
constexpr int kMixRepetitions = 5;
// Batches of 32 updates per writer and run: long enough that the gated
// mvcc-on / mvcc-off writer-rate ratio measures the version installs,
// not a few-millisecond window's scheduling noise.
constexpr int kMixBatches = 1000;

/// One mode's measurements, accumulated over the repetitions.
struct MixTotals {
  std::vector<double> updates_per_s;  // Writer-side window, one per run.
  std::vector<double> reader_txns_per_s;
  uint64_t reader_txns = 0;
  uint64_t reader_aborts = 0;
  uint64_t snapshots = 0;
  uint64_t staleness_sum = 0;
  uint64_t staleness_max = 0;
  uint64_t max_chain_walk = 0;
  uint64_t chain_max = 0;
  uint64_t installed = 0;
  uint64_t freed = 0;
  uint64_t limbo = 0;
  uint64_t reclaims = 0;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void RunReaderWriterMixVariant(const std::string& name, const Graph& base,
                               const BenchFlags& flags, bool skewed,
                               bool enable_mvcc, int writers,
                               MixTotals* totals) {
  ThreadPool pool(flags.threads);
  const int threads = flags.threads;
  const int batch_size = 32;

  auto dyn = DynamicGraph::FromCsr(base);
  EmulatedHtm htm;
  TuFastInstrumented::Config cfg;
  cfg.enable_mvcc = enable_mvcc;
  TuFastInstrumented tm(htm, dyn->capacity(), cfg);
  const VertexId n = dyn->NumVertices();

  std::atomic<int> writers_remaining{writers};
  std::vector<uint64_t> reader_txns(threads, 0);
  std::vector<uint64_t> reader_aborts(threads, 0);
  std::vector<uint64_t> degree_mismatches(threads, 0);
  std::vector<uint64_t> writer_updates(threads, 0);
  // Stamped by the last writer to drain; the whole-run wall time also
  // covers the reader tail (kMinReads floor), whose length differs
  // systematically between the mvcc-off and mvcc-on variants, so the
  // gated updates/s must use the writer-side window only.
  double writer_seconds = 0;
  WallTimer timer;
  pool.RunOnAll([&](int worker) {
    uint64_t sm = flags.seed + 0x9100 * static_cast<uint64_t>(worker + 1);
    Rng rng(SplitMix64(sm) ^ 0xabcdULL);
    if (worker < writers) {
      std::vector<EdgeUpdate> batch;
      for (int i = 0; i < kMixBatches; ++i) {
        batch.clear();
        for (int k = 0; k < batch_size; ++k) {
          const VertexId u = static_cast<VertexId>(
              skewed ? rng.NextZipf(n, 0.8) : rng.NextBounded(n));
          const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
          const int r = static_cast<int>(rng.NextBounded(100));
          const uint32_t w = static_cast<uint32_t>(1 + rng.NextBounded(255));
          if (r < 50) {
            batch.push_back(EdgeUpdate::Insert(u, v, w));
          } else if (r < 90) {
            batch.push_back(EdgeUpdate::Delete(u, v));
          } else {
            batch.push_back(EdgeUpdate::Reweight(u, v, w));
          }
        }
        dyn->ApplyBatch(tm, worker, batch);
        writer_updates[worker] += batch.size();
      }
      if (writers_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        writer_seconds = timer.ElapsedSeconds();  // Last writer out.
      }
    } else {
      // Read until the writers drain, but never fewer than kMinReads:
      // fast writer configurations (quick mode with MVCC on) can finish
      // before a reader thread gets scheduled at all, and a reader that
      // performed zero snapshots would satisfy the abort-rate gate
      // vacuously. The floor keeps the measurement honest; reads past
      // writer drain still exercise the full snapshot path.
      constexpr uint64_t kMinReads = 256;
      VertexSnapshot snap;
      while (writers_remaining.load(std::memory_order_acquire) > 0 ||
             reader_txns[worker] < kMinReads) {
        const VertexId u = static_cast<VertexId>(
            skewed ? rng.NextZipf(n, 0.8) : rng.NextBounded(n));
        const RunOutcome rc =
            dyn->ReadVertexSnapshotRO(tm, worker, u, &snap);
        ++reader_txns[worker];
        reader_aborts[worker] += rc.aborts;
        if (snap.degree != snap.edges.size()) ++degree_mismatches[worker];
      }
    }
  });
  const double seconds = timer.ElapsedSeconds();
  const double write_seconds = writer_seconds > 0 ? writer_seconds : seconds;

  uint64_t txns = 0, aborts = 0, mismatches = 0, updates = 0;
  for (int t = 0; t < threads; ++t) {
    txns += reader_txns[t];
    aborts += reader_aborts[t];
    mismatches += degree_mismatches[t];
    updates += writer_updates[t];
  }
  const char* mode = enable_mvcc ? "mvcc-on" : "mvcc-off";
  Check(mismatches == 0, name + " " + mode +
                             ": reader saw degree != live slot count");
  Check(dyn->CheckInvariantsQuiesced() == std::nullopt,
        name + " " + mode + ": structural audit");

  totals->updates_per_s.push_back(updates / write_seconds);
  totals->reader_txns_per_s.push_back(txns / seconds);
  totals->reader_txns += txns;
  totals->reader_aborts += aborts;
  if (enable_mvcc) {
    auto* store = tm.mvcc_store();
    const MvccCounters c = store->Counters();
    Check(aborts == 0, name + ": MVCC reader aborts must be 0, got " +
                           std::to_string(aborts));
    // Flush balance: every installed version is freed, parked in limbo,
    // or still linked (visible) — nothing leaks, nothing double-frees.
    // The linked term must come from an actual chain walk (the pool is
    // quiesced here): the derived counter c.LinkedNodes() would make
    // the identity a tautology.
    Check(c.installed_nodes ==
              c.freed_nodes + c.LimboNodes() + store->LinkedNodesQuiesced(),
          name + ": MVCC flush balance violated");
    totals->chain_max =
        std::max(totals->chain_max, store->MaxChainLengthQuiesced());
    totals->snapshots += c.snapshots;
    totals->staleness_sum += c.staleness_sum;
    totals->staleness_max = std::max(totals->staleness_max, c.staleness_max);
    totals->max_chain_walk =
        std::max(totals->max_chain_walk, c.max_chain_walk);
    totals->installed += c.installed_nodes;
    totals->freed += c.freed_nodes;
    totals->limbo += c.LimboNodes();
    totals->reclaims += c.reclaim_passes;
  }
}

void AddMixRow(const char* mode, int writers, int readers,
               const MixTotals& t, ReportTable* table) {
  const uint64_t txns = t.reader_txns;
  table->AddRow({mode, ReportTable::Int(static_cast<uint64_t>(writers)),
                 ReportTable::Int(static_cast<uint64_t>(readers)),
                 ReportTable::Num(Median(t.updates_per_s)),
                 ReportTable::Num(Median(t.reader_txns_per_s)),
                 ReportTable::Int(txns), ReportTable::Int(t.reader_aborts),
                 ReportTable::Num(txns ? static_cast<double>(t.reader_aborts) /
                                             txns
                                       : 0),
                 ReportTable::Int(t.snapshots ? t.staleness_sum / t.snapshots
                                              : 0),
                 ReportTable::Int(t.staleness_max),
                 ReportTable::Int(t.max_chain_walk),
                 ReportTable::Int(t.chain_max), ReportTable::Int(t.installed),
                 ReportTable::Int(t.freed), ReportTable::Int(t.limbo),
                 ReportTable::Int(t.reclaims)});
}

// Durability overhead (--wal): the identical churn mix runs twice on a
// fresh copy of the dataset — WAL off, then WAL on (Config::enable_wal,
// group-commit fsync) — and the table carries both rates plus the log
// telemetry, so one run answers "what does durability cost here". With
// --checkpoint-every=N the WAL-on run also checkpoints (and truncates
// the log) every N batch rounds between quiesced phases. The WAL-on run
// ends with an actual recovery: the log (+ last checkpoint) is replayed
// into a second graph, whose frozen snapshot must match the live one
// bit for bit — the durability contract, not just a timing.
void RunWalOverhead(const std::string& name, const Graph& base,
                    const BenchFlags& flags, bool skewed) {
  ThreadPool pool(flags.threads);
  const int batches = flags.quick ? 50 : 200;
  const int batch_size = 32;
  const MixSpec mix{"churn", 50, 40, skewed};
  ReportTable table({"wal", "updates", "seconds", "updates/s", "overhead %",
                     "wal records", "wal bytes", "fsyncs", "checkpoints",
                     "replayed", "recovered"});
  double base_rate = 0;
  for (int on = 0; on <= 1; ++on) {
    auto dyn = DynamicGraph::FromCsr(base);
    EmulatedHtm htm;
    TuFastInstrumented::Config cfg;
    const std::string wal_path = "/tmp/tufast_stream_" +
                                 std::to_string(getpid()) + "_" + name +
                                 ".wal";
    const std::string ck_path = wal_path + ".ckpt";
    if (on != 0) {
      cfg.enable_wal = true;
      cfg.wal_path = wal_path;
    }
    TuFastInstrumented tm(htm, dyn->capacity(), cfg);

    uint64_t checkpoints = 0;
    uint64_t updates = 0;
    double seconds = 0;
    const uint64_t every = flags.checkpoint_every;
    int done = 0;
    while (done < batches) {
      const int chunk =
          (on != 0 && every > 0)
              ? static_cast<int>(std::min<uint64_t>(
                    every, static_cast<uint64_t>(batches - done)))
              : batches - done;
      const MixOutcome out = RunMix(*dyn, tm, pool, mix, chunk, batch_size,
                                    flags.seed + 31 * done, false);
      updates += out.updates;
      seconds += out.seconds;
      done += chunk;
      if (on != 0 && every > 0 && done < batches) {
        // RunMix joined its workers, so the graph is quiesced here.
        Check(WriteCheckpoint(*dyn, ck_path,
                              tm.wal_writer()->durable_seq()),
              name + ": mid-stream checkpoint failed");
        Check(tm.wal_writer()->Truncate(),
              name + ": wal truncation after checkpoint failed");
        ++checkpoints;
      }
    }
    const double rate = updates / seconds;
    if (on == 0) base_rate = rate;

    uint64_t replayed = 0;
    const char* recovered = "-";
    const SchedulerStats stats = tm.AggregatedStats();
    uint64_t fsyncs = 0;
    if (on != 0) {
      fsyncs = tm.wal_writer()->fsyncs();
      // Replay onto a second copy of the base dataset (checkpoints, when
      // taken, carry the full image and override the seed). Log order is
      // commit order, so the recovered store must equal the live one.
      auto rec = DynamicGraph::FromCsr(base);
      const WalRecoveryResult res = RecoverFromWal(
          rec.get(), wal_path, checkpoints > 0 ? ck_path : std::string());
      replayed = res.replayed;
      Check(!res.torn_tail, name + ": clean shutdown left a torn wal tail");
      Check(checkpoints == 0 || res.from_checkpoint,
            name + ": recovery ignored a valid checkpoint");
      const Graph live = dyn->Freeze();
      const Graph rebuilt = rec->Freeze();
      const bool equal = live.offsets() == rebuilt.offsets() &&
                         live.targets() == rebuilt.targets() &&
                         live.weights() == rebuilt.weights();
      Check(equal, name + ": recovered snapshot diverged from live state");
      recovered = equal ? "match" : "DIVERGED";
      std::remove(wal_path.c_str());
      std::remove(ck_path.c_str());
    }
    table.AddRow({on != 0 ? "on" : "off", ReportTable::Int(updates),
                  ReportTable::Num(seconds), ReportTable::Num(rate),
                  on != 0 ? ReportTable::Num(100.0 * (base_rate - rate) /
                                             base_rate)
                          : std::string("-"),
                  ReportTable::Int(stats.wal_records),
                  ReportTable::Int(stats.wal_bytes),
                  ReportTable::Int(fsyncs), ReportTable::Int(checkpoints),
                  ReportTable::Int(replayed), recovered});
  }
  table.Print("wal overhead — " + name);
}

void RunReaderWriterMix(const std::string& name, const Graph& base,
                        const BenchFlags& flags, bool skewed) {
  const int threads = flags.threads;
  int readers = flags.readers > 0 ? static_cast<int>(flags.readers)
                                  : std::max(1, threads / 2);
  readers = std::min(readers, threads - 1);
  if (readers < 1) {
    std::fprintf(stderr,
                 "reader/writer mix needs >= 2 threads; skipping\n");
    return;
  }
  const int writers = threads - readers;
  MixTotals off, on;
  for (int rep = 0; rep < kMixRepetitions; ++rep) {
    // Alternate which mode runs first, so drift within the process
    // (allocator state, frequency, neighbours' load) hits both alike.
    for (const bool mvcc : {rep % 2 == 1, rep % 2 == 0}) {
      RunReaderWriterMixVariant(name, base, flags, skewed, mvcc, writers,
                                mvcc ? &on : &off);
    }
  }
  ReportTable table({"mode", "writers", "readers", "updates/s",
                     "reader txns/s", "reader txns", "reader aborts",
                     "reader abort rate", "staleness avg", "staleness max",
                     "max chain walk", "max chain len", "installed nodes",
                     "freed nodes", "limbo nodes", "reclaim passes"});
  AddMixRow("mvcc-off", writers, readers, off, &table);
  AddMixRow("mvcc-on", writers, readers, on, &table);
  table.Print("reader-writer mix — " + name);
}

int Main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv, /*default=*/1.0);
  // log2-scaled RMAT size; --quick lands two scales down.
  const int rmat_scale = std::max(
      8, 11 + static_cast<int>(std::llround(std::log2(flags.scale))));
  const VertexId n = VertexId{1} << rmat_scale;

  const Graph rmat =
      GenerateRmat(static_cast<uint32_t>(rmat_scale), 8, flags.seed + 17,
                   {.weighted = true});
  RunDataset("rmat-" + std::to_string(rmat_scale), rmat, flags,
             /*skewed=*/true);

  const Graph uniform =
      GenerateUniformDegree(n, 8, flags.seed + 29, /*weighted=*/true);
  RunDataset("uniform-" + std::to_string(rmat_scale), uniform, flags,
             /*skewed=*/false);

  if (flags.mvcc) {
    RunReaderWriterMix("rmat-" + std::to_string(rmat_scale), rmat, flags,
                       /*skewed=*/true);
    RunReaderWriterMix("uniform-" + std::to_string(rmat_scale), uniform,
                       flags, /*skewed=*/false);
  }

  if (flags.wal) {
    RunWalOverhead("rmat-" + std::to_string(rmat_scale), rmat, flags,
                   /*skewed=*/true);
    RunWalOverhead("uniform-" + std::to_string(rmat_scale), uniform, flags,
                   /*skewed=*/false);
  }

  if (g_failures != 0) {
    std::fprintf(stderr, "%d sanity failure(s)\n", g_failures);
    return 1;
  }
  std::printf(
      "expected shape: the skewed dataset routes a visible share of "
      "update transactions through O/L (hub chains exceed the H hint "
      "threshold); the uniform dataset stays almost entirely in H; the "
      "warm-started PageRank agrees with the from-scratch run, and saves "
      "sweeps only when the update stream is small next to the graph.\n");
  return 0;
}

}  // namespace
}  // namespace tufast

int main(int argc, char** argv) { return tufast::Main(argc, argv); }
