#ifndef TUFAST_TESTING_STRESS_WORKLOADS_H_
#define TUFAST_TESTING_STRESS_WORKLOADS_H_

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "testing/failpoints.h"
#include "tm/batch_executor.h"
#include "tm/scheduler_2pl.h"
#include "tm/scheduler_hsync.h"
#include "tm/scheduler_hto.h"
#include "tm/scheduler_silo.h"
#include "tm/scheduler_tinystm.h"
#include "tm/scheduler_to.h"
#include "tm/tufast.h"

namespace tufast {

/// Invariant-checking stress workloads, run against any scheduler under
/// any failpoint plan. Each returns std::nullopt when the invariant held
/// and a human-readable violation description otherwise; the caller owns
/// printing the failing (scheduler, seed) pair for replay.
///
/// All arithmetic is on unsigned TmWord, so the conservation invariants
/// hold modulo 2^64 and balances may freely "go negative" (wrap) without
/// weakening the check: a lost or duplicated update still breaks the sum.
struct StressConfig {
  int threads = 3;
  int txns_per_thread = 150;
  VertexId vertices = 48;
  uint64_t seed = 1;
  /// Acquire vertices in ascending id order and declare write intent up
  /// front (ReadForUpdate), so no shared->exclusive upgrade is needed.
  /// The stress drivers alternate it by seed: on, every scheduler's
  /// ReadForUpdate path runs; off, upgrade contention is what we stress.
  bool ordered_for_update = false;
  /// Draw per-transaction size hints from a mix that routes through all
  /// of H, O and L on TuFast (other schedulers ignore the hint).
  bool vary_size_hints = true;
};

inline uint64_t DrawSizeHint(Rng& rng, const StressConfig& cfg) {
  if (!cfg.vary_size_hints) return 4;
  const uint64_t r = rng.NextBounded(100);
  if (r < 80) return 4;              // H-eligible.
  if (r < 95) return uint64_t{1} << 10;  // Above H threshold: O mode.
  return uint64_t{1} << 15;          // Above o_hint_threshold: straight to L.
}

inline uint64_t PerThreadSeed(uint64_t seed, int thread) {
  uint64_t sm = seed + 0x100 * static_cast<uint64_t>(thread + 1);
  return SplitMix64(sm);
}

/// Bank-transfer conservation: random pairwise transfers; the grand total
/// must be exactly preserved. Catches lost writes, torn publication, and
/// aborted transactions leaking partial effects.
template <typename Scheduler>
std::optional<std::string> RunBankTransferConservation(
    Scheduler& tm, const StressConfig& cfg) {
  constexpr TmWord kInitial = 1000;
  std::vector<TmWord> data(cfg.vertices, kInitial);
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(PerThreadSeed(cfg.seed, t));
      for (int i = 0; i < cfg.txns_per_thread; ++i) {
        const VertexId from =
            static_cast<VertexId>(rng.NextBounded(cfg.vertices));
        VertexId to =
            static_cast<VertexId>(rng.NextBounded(cfg.vertices - 1));
        if (to >= from) ++to;
        const TmWord amount = 1 + rng.NextBounded(5);
        const uint64_t hint = DrawSizeHint(rng, cfg);
        if (cfg.ordered_for_update) {
          const VertexId lo = from < to ? from : to;
          const VertexId hi = from < to ? to : from;
          tm.Run(t, hint, [&](auto& txn) {
            const TmWord lo_v = txn.ReadForUpdate(lo, &data[lo]);
            const TmWord hi_v = txn.ReadForUpdate(hi, &data[hi]);
            const TmWord lo_new = lo == from ? lo_v - amount : lo_v + amount;
            const TmWord hi_new = hi == from ? hi_v - amount : hi_v + amount;
            txn.Write(lo, &data[lo], lo_new);
            txn.Write(hi, &data[hi], hi_new);
          });
        } else {
          tm.Run(t, hint, [&](auto& txn) {
            const TmWord a = txn.Read(from, &data[from]);
            const TmWord b = txn.Read(to, &data[to]);
            txn.Write(from, &data[from], a - amount);
            txn.Write(to, &data[to], b + amount);
          });
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  TmWord total = 0;
  for (VertexId v = 0; v < cfg.vertices; ++v) total += data[v];
  const TmWord expected = static_cast<TmWord>(cfg.vertices) * kInitial;
  if (total != expected) {
    return "bank-transfer conservation violated: total " +
           std::to_string(total) + " != expected " + std::to_string(expected);
  }
  return std::nullopt;
}

/// Lost-update detector: zipf-skewed read-modify-write increments; the
/// final counter sum must equal the number of committed transactions.
/// The skew concentrates contention on a few vertices, maximizing the
/// chance that a broken scheduler interleaves two RMWs.
template <typename Scheduler>
std::optional<std::string> RunLostUpdateDetector(Scheduler& tm,
                                                 const StressConfig& cfg) {
  std::vector<TmWord> counters(cfg.vertices, 0);
  std::vector<uint64_t> committed(cfg.threads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(PerThreadSeed(cfg.seed, t) ^ 0xb10cULL);
      for (int i = 0; i < cfg.txns_per_thread; ++i) {
        const VertexId v =
            static_cast<VertexId>(rng.NextZipf(cfg.vertices, 0.8));
        const uint64_t hint = DrawSizeHint(rng, cfg);
        const RunOutcome outcome = tm.Run(t, hint, [&](auto& txn) {
          // Ordered mode declares write intent up front so a single-vertex
          // RMW never needs a shared->exclusive upgrade; otherwise two
          // concurrent 2PL upgraders deadlock until one times out.
          const TmWord old = cfg.ordered_for_update
                                 ? txn.ReadForUpdate(v, &counters[v])
                                 : txn.Read(v, &counters[v]);
          txn.Write(v, &counters[v], old + 1);
        });
        if (outcome.committed) ++committed[t];
      }
    });
  }
  for (auto& th : threads) th.join();

  TmWord total = 0;
  for (VertexId v = 0; v < cfg.vertices; ++v) total += counters[v];
  uint64_t expected = 0;
  for (uint64_t c : committed) expected += c;
  if (total != expected) {
    return "lost update: counter sum " + std::to_string(total) + " != " +
           std::to_string(expected) + " committed increments";
  }
  return std::nullopt;
}

/// Snapshot-read consistency: writers move value between the two cells of
/// a pair (sum invariant per pair); readers transactionally read both
/// cells and the committed snapshot must show the invariant sum. Catches
/// non-atomic visibility of a committed writer (doomed optimistic reads
/// are fine — they must abort, not commit).
template <typename Scheduler>
std::optional<std::string> RunSnapshotReadConsistency(
    Scheduler& tm, const StressConfig& cfg) {
  constexpr TmWord kPairSum = 10000;
  const VertexId pairs = cfg.vertices / 2;
  std::vector<TmWord> data(cfg.vertices, 0);
  for (VertexId p = 0; p < pairs; ++p) data[2 * p] = kPairSum;

  std::vector<std::string> failures(cfg.threads);
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(PerThreadSeed(cfg.seed, t) ^ 0x5a95ULL);
      for (int i = 0; i < cfg.txns_per_thread; ++i) {
        const VertexId p = static_cast<VertexId>(rng.NextBounded(pairs));
        const VertexId x = 2 * p;
        const VertexId y = 2 * p + 1;
        const uint64_t hint = DrawSizeHint(rng, cfg);
        if (i % 2 == t % 2) {  // Writer: move delta from x to y.
          const TmWord delta = 1 + rng.NextBounded(7);
          tm.Run(t, hint, [&](auto& txn) {
            const TmWord xv = cfg.ordered_for_update
                                  ? txn.ReadForUpdate(x, &data[x])
                                  : txn.Read(x, &data[x]);
            const TmWord yv = cfg.ordered_for_update
                                  ? txn.ReadForUpdate(y, &data[y])
                                  : txn.Read(y, &data[y]);
            txn.Write(x, &data[x], xv - delta);
            txn.Write(y, &data[y], yv + delta);
          });
        } else {  // Reader: snapshot both cells.
          TmWord sum = 0;  // Re-written on every re-execution of the body.
          const RunOutcome outcome = tm.Run(t, hint, [&](auto& txn) {
            sum = txn.Read(x, &data[x]) + txn.Read(y, &data[y]);
          });
          // Only the committed snapshot must be consistent; judge after
          // Run returns so doomed attempts that later aborted don't count.
          if (outcome.committed && sum != kPairSum && failures[t].empty()) {
            failures[t] = "snapshot read saw pair " + std::to_string(p) +
                          " sum " + std::to_string(sum) + " != " +
                          std::to_string(kPairSum);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const std::string& f : failures) {
    if (!f.empty()) return f;
  }
  return std::nullopt;
}

/// MVCC snapshot-read suite (run against an MVCC-enabled scheduler, see
/// MakeMvccSchedulerFor): writers hammer pair-transfer transactions
/// while snapshot readers go through RunReadOnly. Checks (1) every
/// committed snapshot shows the invariant pair sum — a version chain
/// that loses, reorders, or double-applies a pre-image breaks it; and
/// (2) snapshot readers NEVER abort: RunOutcome::aborts must stay 0 on
/// every read-only transaction. Designed to run with kVersionReclaim /
/// kStaleEpoch failpoints armed, which force reclamation passes mid-
/// stream and stretch snapshot windows so reads walk deep into chains.
template <typename Scheduler>
std::optional<std::string> RunMvccSnapshotSuite(Scheduler& tm,
                                                const StressConfig& cfg) {
  constexpr TmWord kPairSum = 10000;
  const VertexId pairs = cfg.vertices / 2;
  std::vector<TmWord> data(cfg.vertices, 0);
  for (VertexId p = 0; p < pairs; ++p) data[2 * p] = kPairSum;

  std::vector<std::string> failures(cfg.threads);
  std::vector<uint64_t> reader_aborts(cfg.threads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(PerThreadSeed(cfg.seed, t) ^ 0x3cc5ULL);
      for (int i = 0; i < cfg.txns_per_thread; ++i) {
        const VertexId p = static_cast<VertexId>(rng.NextBounded(pairs));
        const VertexId x = 2 * p;
        const VertexId y = 2 * p + 1;
        const uint64_t hint = DrawSizeHint(rng, cfg);
        if (i % 2 == t % 2) {  // Writer: move delta from x to y.
          const TmWord delta = 1 + rng.NextBounded(7);
          tm.Run(t, hint, [&](auto& txn) {
            const TmWord xv = cfg.ordered_for_update
                                  ? txn.ReadForUpdate(x, &data[x])
                                  : txn.Read(x, &data[x]);
            const TmWord yv = cfg.ordered_for_update
                                  ? txn.ReadForUpdate(y, &data[y])
                                  : txn.Read(y, &data[y]);
            txn.Write(x, &data[x], xv - delta);
            txn.Write(y, &data[y], yv + delta);
          });
        } else {  // Snapshot reader: both cells at one timestamp.
          TmWord sum = 0;
          const RunOutcome outcome = tm.RunReadOnly(t, hint, [&](auto& txn) {
            sum = txn.Read(x, &data[x]) + txn.Read(y, &data[y]);
          });
          reader_aborts[t] += outcome.aborts;
          if (outcome.committed && sum != kPairSum && failures[t].empty()) {
            failures[t] = "mvcc snapshot saw pair " + std::to_string(p) +
                          " sum " + std::to_string(sum) + " != " +
                          std::to_string(kPairSum);
          }
          if (!outcome.committed && failures[t].empty()) {
            failures[t] = "mvcc snapshot read did not commit";
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const std::string& f : failures) {
    if (!f.empty()) return f;
  }
  uint64_t aborts = 0;
  for (uint64_t a : reader_aborts) aborts += a;
  if (aborts != 0) {
    return "mvcc snapshot readers aborted " + std::to_string(aborts) +
           " time(s); snapshot reads must be abort-free";
  }
  return std::nullopt;
}

/// Items per RunBatch call in the batched workloads: small enough that
/// every thread issues many batches, large enough that TuFast forms
/// multi-item fused windows (and bisects them when they abort).
constexpr uint64_t kStressBatchItems = 16;

/// Batched bank-transfer conservation through the free RunBatch
/// front-end: each batch item transfers between two random vertices.
/// TuFast runs the batch through its fused windows (abort-driven
/// bisection, per-item router at width 1); every other scheduler takes
/// the per-item fallback. The grand total must be exactly preserved — a
/// fused write that is lost, an item re-executed after its window
/// committed, or a window torn across an abort breaks the sum.
template <typename Scheduler>
std::optional<std::string> RunBatchTransferConservation(
    Scheduler& tm, const StressConfig& cfg) {
  constexpr TmWord kInitial = 1000;
  std::vector<TmWord> data(cfg.vertices, kInitial);
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(PerThreadSeed(cfg.seed, t) ^ 0x5ade0ULL);
      const int batches =
          (cfg.txns_per_thread + static_cast<int>(kStressBatchItems) - 1) /
          static_cast<int>(kStressBatchItems);
      for (int b = 0; b < batches; ++b) {
        VertexId from[kStressBatchItems];
        VertexId to[kStressBatchItems];
        TmWord amount[kStressBatchItems];
        uint64_t hints[kStressBatchItems];
        for (uint64_t k = 0; k < kStressBatchItems; ++k) {
          from[k] = static_cast<VertexId>(rng.NextBounded(cfg.vertices));
          to[k] = static_cast<VertexId>(rng.NextBounded(cfg.vertices - 1));
          if (to[k] >= from[k]) ++to[k];
          amount[k] = 1 + rng.NextBounded(5);
          hints[k] = DrawSizeHint(rng, cfg);
        }
        RunBatch(
            tm, t, 0, kStressBatchItems,
            [&](uint64_t k) { return hints[k]; },
            [&](auto& txn, uint64_t k) {
              if (cfg.ordered_for_update) {
                const VertexId lo = from[k] < to[k] ? from[k] : to[k];
                const VertexId hi = from[k] < to[k] ? to[k] : from[k];
                const TmWord lo_v = txn.ReadForUpdate(lo, &data[lo]);
                const TmWord hi_v = txn.ReadForUpdate(hi, &data[hi]);
                txn.Write(lo, &data[lo],
                          lo == from[k] ? lo_v - amount[k] : lo_v + amount[k]);
                txn.Write(hi, &data[hi],
                          hi == from[k] ? hi_v - amount[k] : hi_v + amount[k]);
              } else {
                const TmWord a = txn.Read(from[k], &data[from[k]]);
                const TmWord b2 = txn.Read(to[k], &data[to[k]]);
                txn.Write(from[k], &data[from[k]], a - amount[k]);
                txn.Write(to[k], &data[to[k]], b2 + amount[k]);
              }
            });
      }
    });
  }
  for (auto& th : threads) th.join();

  TmWord total = 0;
  for (VertexId v = 0; v < cfg.vertices; ++v) total += data[v];
  const TmWord expected = static_cast<TmWord>(cfg.vertices) * kInitial;
  if (total != expected) {
    return "batch conservation violated: total " +
           std::to_string(total) + " != expected " + std::to_string(expected);
  }
  return std::nullopt;
}

/// Batched lost-update / exactly-once detector: every thread's increment
/// targets are drawn up front from a deterministic stream, so the exact
/// per-vertex histogram is known before the run. RunOutcome::committed is
/// false only on an explicit user Abort() (tm/outcome.h) and these bodies
/// never abort, so after the run each counter must equal its histogram
/// cell exactly: a low cell is a lost update (a fused write discarded),
/// a high cell is a double execution (an item re-run after its window
/// committed).
template <typename Scheduler>
std::optional<std::string> RunBatchExactlyOnce(Scheduler& tm,
                                               const StressConfig& cfg) {
  std::vector<TmWord> counters(cfg.vertices, 0);
  std::vector<TmWord> expected(cfg.vertices, 0);
  std::vector<std::vector<VertexId>> targets(cfg.threads);
  std::vector<std::vector<uint64_t>> hints(cfg.threads);
  for (int t = 0; t < cfg.threads; ++t) {
    Rng rng(PerThreadSeed(cfg.seed, t) ^ 0xe1aceULL);
    for (int i = 0; i < cfg.txns_per_thread; ++i) {
      const VertexId v = static_cast<VertexId>(rng.NextZipf(cfg.vertices, 0.8));
      targets[t].push_back(v);
      hints[t].push_back(DrawSizeHint(rng, cfg));
      ++expected[v];
    }
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<VertexId>& mine = targets[t];
      const std::vector<uint64_t>& my_hints = hints[t];
      for (uint64_t lo = 0; lo < mine.size(); lo += kStressBatchItems) {
        const uint64_t hi =
            lo + kStressBatchItems < mine.size() ? lo + kStressBatchItems
                                                 : mine.size();
        RunBatch(
            tm, t, lo, hi, [&](uint64_t k) { return my_hints[k]; },
            [&](auto& txn, uint64_t k) {
              const VertexId v = mine[k];
              const TmWord old = cfg.ordered_for_update
                                     ? txn.ReadForUpdate(v, &counters[v])
                                     : txn.Read(v, &counters[v]);
              txn.Write(v, &counters[v], old + 1);
            });
      }
    });
  }
  for (auto& th : threads) th.join();

  for (VertexId v = 0; v < cfg.vertices; ++v) {
    if (counters[v] != expected[v]) {
      return "batch exactly-once violated: vertex " +
             std::to_string(v) + " count " + std::to_string(counters[v]) +
             " != expected " + std::to_string(expected[v]);
    }
  }
  return std::nullopt;
}

/// Runs the per-transaction and batched invariant workloads; first
/// violation wins.
template <typename Scheduler>
std::optional<std::string> RunInvariantSuite(Scheduler& tm,
                                             const StressConfig& cfg) {
  if (auto err = RunBankTransferConservation(tm, cfg)) return err;
  if (auto err = RunLostUpdateDetector(tm, cfg)) return err;
  if (auto err = RunSnapshotReadConsistency(tm, cfg)) return err;
  if (auto err = RunBatchTransferConservation(tm, cfg)) return err;
  if (auto err = RunBatchExactlyOnce(tm, cfg)) return err;
  return std::nullopt;
}

/// An MVCC-enabled TuFast, the one scheduler with a version store
/// (Config::enable_mvcc): the returned scheduler installs versions on
/// every commit and serves RunReadOnly() from snapshots.
template <typename Scheduler, typename Htm>
std::unique_ptr<Scheduler> MakeMvccSchedulerFor(Htm& htm, VertexId vertices) {
  typename Scheduler::Config config;
  config.enable_mvcc = true;
  return std::make_unique<Scheduler>(htm, vertices, config);
}

}  // namespace tufast

#endif  // TUFAST_TESTING_STRESS_WORKLOADS_H_
