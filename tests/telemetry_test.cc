// Tests for the pluggable scheduler telemetry layer (tm/telemetry.h +
// tm/worker_runtime.h): the matrices and histograms the sink keeps must
// agree with the SchedulerStats counts they break down, Merge must behave
// like processing one combined stream, and the JSON export must stay
// stable (golden check — fig15's export format).

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/reporting.h"
#include "common/rng.h"
#include "htm/emulated_htm.h"
#include "tm/scheduler_2pl.h"
#include "tm/scheduler_silo.h"
#include "tm/telemetry.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

constexpr VertexId kVertices = 256;
constexpr int kThreads = 4;

/// Contended mixed-size workload driving all three TuFast modes plus
/// user aborts. Same body regardless of scheduler type.
template <typename Scheduler>
void RunContendedWorkload(Scheduler& tm, std::vector<TmWord>& values,
                          uint64_t big_hint) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1234 + t);
      for (int i = 0; i < 1500; ++i) {
        // Hot-set RMW: everyone hammers 8 vertices for real conflicts.
        const VertexId v = static_cast<VertexId>(rng.NextBounded(8));
        uint64_t hint = 2;
        int span = 1;
        if (i % 11 == 0) {
          hint = big_hint;  // Skips H mode: O (or direct L) path.
          span = 24;
        }
        if (i % 97 == 0) {
          tm.Run(t, hint, [&](auto& txn) { txn.Abort(); });
          continue;
        }
        tm.Run(t, hint, [&](auto& txn) {
          for (int k = 0; k < span; ++k) {
            const VertexId u = static_cast<VertexId>((v + k) % kVertices);
            const TmWord x = txn.Read(u, &values[u]);
            txn.Write(u, &values[u], x + 1);
          }
        });
      }
    });
  }
  for (auto& th : threads) th.join();
}

/// What stays duplicated by design between the sink and SchedulerStats
/// (unfused runs): each reason's row of the abort matrix sums to its
/// counter, the victim split sums to the deadlock aborts, and every
/// commit adds one latency sample to its class.
void ExpectTelemetryMatchesStats(const TelemetrySnapshot& snap,
                                 const SchedulerStats& stats) {
  for (int c = 0; c < kNumTxnClasses; ++c) {
    EXPECT_EQ(snap.commit_latency_ns[c].count(), stats.class_count[c])
        << "class " << c;
  }
  EXPECT_EQ(snap.TotalAborts(AbortReason::kConflict), stats.conflict_aborts);
  EXPECT_EQ(snap.TotalAborts(AbortReason::kCapacity), stats.capacity_aborts);
  EXPECT_EQ(snap.TotalAborts(AbortReason::kValidation),
            stats.validation_aborts);
  EXPECT_EQ(snap.TotalAborts(AbortReason::kLockBusy), stats.lock_busy_aborts);
  EXPECT_EQ(snap.TotalAborts(AbortReason::kDeadlock), stats.deadlock_aborts);
  EXPECT_EQ(snap.deadlock_cycle_victims + snap.deadlock_timeout_victims,
            stats.deadlock_aborts);
}

TEST(TelemetryTest, TuFastEventCountsMatchSchedulerStats) {
  EmulatedHtm htm;
  TuFastInstrumented tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  // big_hint above o_hint_threshold would skip O as well; pick one that
  // forces the O path but stays below the L threshold.
  RunContendedWorkload(tm, values, tm.h_hint_threshold() + 1);

  const SchedulerStats stats = tm.AggregatedStats();
  const TelemetrySnapshot& snap = tm.AggregatedTelemetry().Snapshot();
  ExpectTelemetryMatchesStats(snap, stats);

  // The workload committed in more than one class, so mode transitions
  // and the O-mode period trace must be populated.
  EXPECT_GT(stats.commits, 0u);
  EXPECT_GT(stats.class_count[static_cast<int>(TxnClass::kH)], 0u);
  EXPECT_GT(stats.class_count[static_cast<int>(TxnClass::kO)] +
                stats.class_count[static_cast<int>(TxnClass::kOPlus)],
            0u);
  EXPECT_GT(snap.period_hist.count(), 0u);
  EXPECT_GT(snap.last_period, 0u);
  uint64_t time_total = 0;
  for (uint64_t ns : snap.time_in_mode_ns) time_total += ns;
  EXPECT_GT(time_total, 0u);
}

TEST(TelemetryTest, TuFastDirectLockRouteMatchesStats) {
  EmulatedHtm htm;
  TuFastInstrumented tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  // Above o_hint_threshold: every non-tiny transaction goes straight to
  // L mode, exercising the lock loop + deadlock-victim telemetry.
  RunContendedWorkload(tm, values, tm.config().o_hint_threshold + 1);

  const SchedulerStats stats = tm.AggregatedStats();
  ExpectTelemetryMatchesStats(tm.AggregatedTelemetry().Snapshot(), stats);
  EXPECT_GT(stats.class_count[static_cast<int>(TxnClass::kL)], 0u);
}

TEST(TelemetryTest, SiloBaselineEventCountsMatchSchedulerStats) {
  EmulatedHtm htm;
  SiloOcc<EmulatedHtm, EventTelemetry> tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  RunContendedWorkload(tm, values, /*big_hint=*/64);

  const SchedulerStats stats = tm.AggregatedStats();
  const TelemetrySnapshot& snap = tm.AggregatedTelemetry().Snapshot();
  ExpectTelemetryMatchesStats(snap, stats);
  // Silo commits everything as class O under the shared retry loop.
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kO)], stats.commits);
}

TEST(TelemetryTest, TwoPhaseLockingDeadlockVictimsAreCounted) {
  EmulatedHtm htm;
  TwoPhaseLocking<EmulatedHtm, EventTelemetry> tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  // Read-then-write on a shared hot set forces mutual upgrades, the
  // classic deadlock the lock manager resolves by picking victims.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(99 + t);
      for (int i = 0; i < 800; ++i) {
        const VertexId v = static_cast<VertexId>(rng.NextBounded(4));
        tm.Run(t, 2, [&](auto& txn) {
          const TmWord x = txn.Read(v, &values[v]);
          txn.Write(v, &values[v], x + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();

  const SchedulerStats stats = tm.AggregatedStats();
  const TelemetrySnapshot& snap = tm.AggregatedTelemetry().Snapshot();
  ExpectTelemetryMatchesStats(snap, stats);
  EXPECT_EQ(stats.commits, uint64_t{kThreads} * 800);
}

// ---------------------------------------------------------------------
// Merge property: processing one interleaved event stream in a single
// sink must equal splitting the transactions across several sinks and
// merging — for every deterministic field (wall-clock fields excluded:
// they depend on when the events happened, not how they were sharded).

struct TxnScript {
  SchedMode mode;
  int attempt_aborts;
  bool user_abort;
  TxnClass cls;
  uint32_t period;  // 0 = no PeriodChange events.
  int deadlock_victims;
};

void Replay(EventTelemetry& sink, const TxnScript& txn) {
  sink.TxnBegin();
  sink.EnterMode(txn.mode);
  if (txn.period != 0) sink.PeriodChange(txn.period);
  for (int i = 0; i < txn.attempt_aborts; ++i) {
    sink.AttemptAbort(static_cast<AbortReason>(i % kNumAbortReasons));
  }
  for (int i = 0; i < txn.deadlock_victims; ++i) sink.DeadlockVictim();
  if (txn.mode == SchedMode::kHardware && txn.attempt_aborts > 2) {
    sink.EnterMode(SchedMode::kOptimistic);  // Mode escalation.
  }
  if (txn.user_abort) {
    sink.TxnUserAbort(txn.cls);
  } else {
    sink.TxnCommit(txn.cls);
  }
}

void ExpectDeterministicFieldsEqual(const TelemetrySnapshot& a,
                                    const TelemetrySnapshot& b) {
  EXPECT_EQ(a.deadlock_cycle_victims, b.deadlock_cycle_victims);
  EXPECT_EQ(a.deadlock_timeout_victims, b.deadlock_timeout_victims);
  for (int c = 0; c < kNumTxnClasses; ++c) {
    EXPECT_EQ(a.commit_latency_ns[c].count(), b.commit_latency_ns[c].count());
  }
  for (int m = 0; m < kNumSchedModes; ++m) {
    for (int r = 0; r < kNumAbortReasons; ++r) {
      EXPECT_EQ(a.aborts[m][r], b.aborts[m][r]) << m << "/" << r;
    }
    for (int n = 0; n < kNumSchedModes; ++n) {
      EXPECT_EQ(a.transitions[m][n], b.transitions[m][n]) << m << "->" << n;
    }
  }
  EXPECT_EQ(a.period_hist.count(), b.period_hist.count());
  EXPECT_EQ(a.period_hist.sum(), b.period_hist.sum());
  EXPECT_EQ(a.period_hist.min(), b.period_hist.min());
  EXPECT_EQ(a.period_hist.max(), b.period_hist.max());
}

TEST(TelemetryTest, MergeEqualsSingleStreamForRandomScripts) {
  Rng rng(0xfeedface);
  std::vector<TxnScript> scripts;
  for (int i = 0; i < 500; ++i) {
    TxnScript txn;
    txn.mode = static_cast<SchedMode>(rng.NextBounded(kNumSchedModes));
    txn.attempt_aborts = static_cast<int>(rng.NextBounded(5));
    txn.user_abort = rng.NextBounded(10) == 0;
    txn.cls = static_cast<TxnClass>(rng.NextBounded(kNumTxnClasses));
    txn.period = rng.NextBounded(3) == 0
                     ? static_cast<uint32_t>(100 + rng.NextBounded(1900))
                     : 0;
    txn.deadlock_victims = rng.NextBounded(20) == 0 ? 1 : 0;
    scripts.push_back(txn);
  }

  EventTelemetry whole;
  for (const auto& txn : scripts) Replay(whole, txn);

  constexpr int kShards = 3;
  EventTelemetry shards[kShards];
  for (size_t i = 0; i < scripts.size(); ++i) {
    Replay(shards[i % kShards], scripts[i]);
  }
  EventTelemetry merged;
  for (const auto& shard : shards) merged.Merge(shard);

  ExpectDeterministicFieldsEqual(merged.Snapshot(), whole.Snapshot());

  // Merging in a different order must not change the deterministic view.
  EventTelemetry reversed;
  for (int s = kShards - 1; s >= 0; --s) reversed.Merge(shards[s]);
  ExpectDeterministicFieldsEqual(reversed.Snapshot(), whole.Snapshot());
}

TEST(TelemetryTest, MergeKeepsLastPeriodFromLaterNonZero) {
  EventTelemetry a, b;
  a.TxnBegin();
  a.EnterMode(SchedMode::kOptimistic);
  a.PeriodChange(512);
  a.TxnCommit(TxnClass::kO);
  b.TxnBegin();
  b.EnterMode(SchedMode::kHardware);
  b.TxnCommit(TxnClass::kH);

  EventTelemetry merged;
  merged.Merge(a);
  merged.Merge(b);  // b has no period signal: keep a's.
  EXPECT_EQ(merged.Snapshot().last_period, 512u);
}

// ---------------------------------------------------------------------
// JSON golden check (the fig15 --json-out format). The stats and the
// snapshot are constructed directly so every field, including the
// histogram summaries, is deterministic.

TEST(TelemetryJsonTest, SnapshotSerializationGolden) {
  SchedulerStats stats;
  stats.user_aborts = 1;
  stats.class_count[static_cast<int>(TxnClass::kH)] = 5;
  stats.class_ops[static_cast<int>(TxnClass::kH)] = 50;
  stats.fused_regions = 3;
  stats.fused_items = 12;
  stats.fusion_aborts = 2;
  stats.elided_attempts = 9;
  stats.backoff_events = 7;
  stats.starvation_escalations = 2;
  stats.starvation_tokens = 1;
  stats.breaker_bypass = 128;
  stats.max_txn_aborts = 4;
  stats.serve_requests = 6;
  stats.serve_queue_delay_ns = 4000;
  stats.serve_max_queue_delay_ns = 2000;

  TelemetrySnapshot snap;
  snap.deadlock_cycle_victims = 2;
  snap.time_in_mode_ns[0] = 1000;
  snap.time_in_mode_ns[1] = 2000;
  snap.time_in_mode_ns[2] = 3000;
  snap.aborts[0][static_cast<int>(AbortReason::kConflict)] = 4;
  snap.aborts[1][static_cast<int>(AbortReason::kValidation)] = 2;
  snap.transitions[0][1] = 3;
  snap.transitions[1][2] = 1;
  snap.period_hist.Add(1000, 4);
  snap.last_period = 500;
  snap.fusion_width_hist.Add(4, 3);
  snap.backoff_pauses = 90;
  snap.breaker_trips = 1;
  snap.breaker_half_opens = 1;
  snap.breaker_closes = 1;
  snap.txn_abort_hist.Add(4, 2);

  const std::string empty_hist =
      "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"p50\":0,\"p99\":0}";
  const std::string expected =
      "{\"user_aborts\":1,\"deadlock_cycle_victims\":2,"
      "\"deadlock_timeout_victims\":0,\"elided_attempts\":9,"
      "\"commits\":{"
      "\"H\":{\"count\":5,\"ops\":50,\"latency_ns\":" + empty_hist + "},"
      "\"O\":{\"count\":0,\"ops\":0,\"latency_ns\":" + empty_hist + "},"
      "\"O+\":{\"count\":0,\"ops\":0,\"latency_ns\":" + empty_hist + "},"
      "\"O2L\":{\"count\":0,\"ops\":0,\"latency_ns\":" + empty_hist + "},"
      "\"L\":{\"count\":0,\"ops\":0,\"latency_ns\":" + empty_hist + "}},"
      "\"time_in_mode_ns\":{\"H\":1000,\"O\":2000,\"L\":3000},"
      "\"aborts\":{"
      "\"H\":{\"conflict\":4,\"capacity\":0,\"validation\":0,"
      "\"lock_busy\":0,\"deadlock\":0},"
      "\"O\":{\"conflict\":0,\"capacity\":0,\"validation\":2,"
      "\"lock_busy\":0,\"deadlock\":0},"
      "\"L\":{\"conflict\":0,\"capacity\":0,\"validation\":0,"
      "\"lock_busy\":0,\"deadlock\":0}},"
      "\"transitions\":{\"H->O\":3,\"O->L\":1},"
      "\"period\":{\"count\":4,\"sum\":4000,\"min\":1000,\"max\":1000,"
      "\"p50\":512,\"p99\":512},"
      "\"last_period\":500,"
      "\"fusion\":{\"fused_regions\":3,\"fused_items\":12,"
      "\"fusion_aborts\":2,"
      "\"width\":{\"count\":3,\"sum\":12,\"min\":4,\"max\":4,"
      "\"p50\":4,\"p99\":4},"
      "\"bisection_depth\":" + empty_hist + "},"
      "\"progress\":{\"backoff_events\":7,\"backoff_pauses\":90,"
      "\"starvation_escalations\":2,\"starvation_tokens\":1,"
      "\"breaker_trips\":1,\"breaker_half_opens\":1,"
      "\"breaker_closes\":1,\"breaker_bypass\":128,"
      "\"txn_aborts\":{\"count\":2,\"sum\":8,\"min\":4,\"max\":4,"
      "\"p50\":4,\"p99\":4},"
      "\"max_txn_aborts\":4},"
      "\"serve\":{\"requests\":6,\"queue_delay_ns\":4000,"
      "\"max_queue_delay_ns\":2000,"
      "\"queue_delay\":" + empty_hist + "}}";
  EXPECT_EQ(TelemetryToJson(stats, snap), expected);
}

TEST(TelemetryJsonTest, EscapeHandlesSpecialCharacters) {
  EXPECT_EQ(JsonReport::Escape("plain"), "plain");
  EXPECT_EQ(JsonReport::Escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonReport::Escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonReport::Escape(std::string(1, '\x01')), "\\u0001");
}

TEST(TelemetryJsonTest, LiveSnapshotSerializesWithoutError) {
  EmulatedHtm htm;
  TuFastInstrumented tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  RunContendedWorkload(tm, values, tm.h_hint_threshold() + 1);
  const std::string json = TelemetryToJson(
      tm.AggregatedStats(), tm.AggregatedTelemetry().Snapshot());
  EXPECT_NE(json.find("\"user_aborts\":"), std::string::npos);
  EXPECT_NE(json.find("\"transitions\":{"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace tufast
