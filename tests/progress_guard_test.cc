// Progress-guard layer tests (DESIGN.md "Progress guard"):
//   * ConflictBackoff determinism under a fixed seed and window growth;
//   * ProgressSignals bit/token semantics, and starved slots in a
//     lock-manager deadlock still timing out;
//   * ProgressGuard escalation ladder (priority aging -> global token);
//   * abort-storm circuit breaker state machine, unit-level and routed
//     through TuFast under forced failpoints;
//   * starvation escalation end to end (forced victim re-aborts);
//   * O-mode retry pacing: capacity aborts skip the conflict backoff;
//   * retry accounting on every HTM-first scheduler;
//   * the starvation token pausing batch fusion;
//   * exception safety: a transaction body that throws a foreign
//     exception must release every lock it holds (and TuFast's L gate)
//     before propagating, in TuFast's L and O paths, the 2PL baseline,
//     the HSync global-lock fallback, and TinySTM's encounter-time write
//     locks;
//   * the cooperative stall watchdog and the worker heartbeat counters.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "htm/emulated_htm.h"
#include "sync/lock_manager.h"
#include "sync/lock_table.h"
#include "testing/failpoints.h"
#include "tm/contention_monitor.h"
#include "tm/progress_guard.h"
#include "tm/scheduler_2pl.h"
#include "tm/scheduler_hsync.h"
#include "tm/scheduler_hto.h"
#include "tm/scheduler_tinystm.h"
#include "tm/stall_watchdog.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

// ---------------------------------------------------------------------
// ConflictBackoff: deterministic pacing between conflict retries.

TEST(ConflictBackoffTest, DeterministicUnderFixedSeed) {
  Rng a(1234), b(1234);
  for (uint32_t attempt = 0; attempt < 32; ++attempt) {
    EXPECT_EQ(ConflictBackoff(a, attempt), ConflictBackoff(b, attempt))
        << "same seed must replay the exact pause sequence (attempt "
        << attempt << ")";
  }
}

TEST(ConflictBackoffTest, PausesStayWithinTheDoublingWindow) {
  Rng rng(7);
  for (uint32_t attempt = 0; attempt < 24; ++attempt) {
    const uint32_t shift = attempt < 10 ? attempt : 10;
    const uint64_t window = uint64_t{8} << shift;
    for (int i = 0; i < 8; ++i) {
      const uint64_t pauses = ConflictBackoff(rng, attempt);
      EXPECT_GE(pauses, 1u);
      EXPECT_LE(pauses, window) << "window must cap at 8 << 10 (attempt "
                                << attempt << ")";
    }
  }
}

// ---------------------------------------------------------------------
// ProgressSignals: starved bits and the single global token.

TEST(ProgressSignalsTest, StarvedBitRoundTrip) {
  ProgressSignals signals;
  EXPECT_FALSE(signals.AnyStarved());
  signals.SetStarved(3);
  EXPECT_TRUE(signals.IsStarved(3));
  EXPECT_FALSE(signals.IsStarved(4));
  EXPECT_TRUE(signals.AnyStarved());
  EXPECT_TRUE(signals.IsProtected(3));
  EXPECT_FALSE(signals.IsProtected(4));
  signals.ClearStarved(3);
  EXPECT_FALSE(signals.IsStarved(3));
  EXPECT_FALSE(signals.AnyStarved());
}

TEST(ProgressSignalsTest, TokenHasAtMostOneHolder) {
  ProgressSignals signals;
  EXPECT_FALSE(signals.TokenHeld());
  EXPECT_TRUE(signals.TryAcquireToken(2));
  EXPECT_EQ(signals.TokenHolder(), 2);
  // Re-acquisition by anyone (including the holder) is not "fresh".
  EXPECT_FALSE(signals.TryAcquireToken(2));
  EXPECT_FALSE(signals.TryAcquireToken(5));
  EXPECT_TRUE(signals.TokenHeldElsewhere(5));
  EXPECT_FALSE(signals.TokenHeldElsewhere(2));
  EXPECT_TRUE(signals.IsProtected(2));
  // Releasing from the wrong slot is a no-op.
  signals.ReleaseToken(5);
  EXPECT_EQ(signals.TokenHolder(), 2);
  signals.ReleaseToken(2);
  EXPECT_FALSE(signals.TokenHeld());
  EXPECT_TRUE(signals.TryAcquireToken(5));
}

// Two starved slots in a genuine deadlock must still resolve: the starved
// bit only shields a slot from injected victims, it does not extend its
// wait bound, so at least one of them leaves as a timeout victim instead
// of both waiting forever.
TEST(LockManagerProgressTest, MutuallyStarvedDeadlockResolvesPromptly) {
  EmulatedHtm htm;
  LockTable<EmulatedHtm> table(htm, /*num_vertices=*/4);
  LockManager<EmulatedHtm> mgr(table);
  ProgressSignals signals;
  signals.SetStarved(0);
  signals.SetStarved(1);
  mgr.SetProgressSignals(&signals);

  ASSERT_TRUE(mgr.AcquireExclusive(0, 0));  // slot 0 holds vertex 0
  ASSERT_TRUE(mgr.AcquireExclusive(1, 1));  // slot 1 holds vertex 1
  std::atomic<int> victims{0};
  // Each slot then waits for the other's vertex; a victim releases its
  // own vertex, which lets the other through.
  auto cross = [&](int slot, VertexId own, VertexId other) {
    if (mgr.AcquireExclusive(slot, other)) {
      mgr.ReleaseExclusive(other);
    } else {
      victims.fetch_add(1);
    }
    mgr.ReleaseExclusive(own);
  };
  std::thread waiter([&] { cross(0, 0, 1); });
  cross(1, 1, 0);
  waiter.join();
  EXPECT_GE(victims.load(), 1);
  for (VertexId v = 0; v < 2; ++v) {
    EXPECT_TRUE(LockTable<EmulatedHtm>::Free(table.LoadWord(v)));
  }
}

// ---------------------------------------------------------------------
// ProgressGuard: the escalation ladder.

TEST(ProgressGuardTest, LadderEscalatesAtTheConfiguredThresholds) {
  ProgressGuard guard(ProgressGuard::Config{.priority_threshold = 3,
                                            .token_threshold = 8,
                                            .enabled = true});
  EXPECT_EQ(guard.OnAbort(0, 1), ProgressGuard::Escalation::kNone);
  EXPECT_EQ(guard.OnAbort(0, 2), ProgressGuard::Escalation::kNone);
  EXPECT_FALSE(guard.Protected(0));
  EXPECT_EQ(guard.OnAbort(0, 3), ProgressGuard::Escalation::kStarved);
  EXPECT_TRUE(guard.Protected(0));
  for (uint32_t aborts = 4; aborts < 8; ++aborts) {
    EXPECT_EQ(guard.OnAbort(0, aborts), ProgressGuard::Escalation::kNone);
  }
  EXPECT_EQ(guard.OnAbort(0, 8), ProgressGuard::Escalation::kToken);
  EXPECT_TRUE(guard.signals().TokenHeld());
  // A second slot at the token threshold cannot take the busy token.
  EXPECT_EQ(guard.OnAbort(1, 8), ProgressGuard::Escalation::kNone);
  guard.OnTxnDone(0);
  EXPECT_FALSE(guard.Protected(0));
  EXPECT_FALSE(guard.signals().TokenHeld());
  // Token free again: the starving peer can now take it.
  EXPECT_EQ(guard.OnAbort(1, 9), ProgressGuard::Escalation::kToken);
  guard.OnTxnDone(1);
}

TEST(ProgressGuardTest, ForceEscalateJumpsToTheTokenWhenFree) {
  ProgressGuard guard;
  EXPECT_EQ(guard.ForceEscalate(0), ProgressGuard::Escalation::kToken);
  EXPECT_TRUE(guard.Protected(0));
  // Token busy: a forced peer still gets priority aging.
  EXPECT_EQ(guard.ForceEscalate(1), ProgressGuard::Escalation::kStarved);
  EXPECT_TRUE(guard.Protected(1));
  guard.OnTxnDone(0);
  guard.OnTxnDone(1);
  EXPECT_FALSE(guard.signals().AnyStarved());
}

TEST(ProgressGuardTest, DisabledGuardIsInert) {
  ProgressGuard guard(ProgressGuard::Config{.priority_threshold = 1,
                                            .token_threshold = 2,
                                            .enabled = false});
  EXPECT_EQ(guard.OnAbort(0, 100), ProgressGuard::Escalation::kNone);
  EXPECT_EQ(guard.ForceEscalate(0), ProgressGuard::Escalation::kNone);
  EXPECT_FALSE(guard.Protected(0));
  EXPECT_FALSE(guard.signals().AnyStarved());
  EXPECT_FALSE(guard.signals().TokenHeld());
}

// ---------------------------------------------------------------------
// Circuit breaker: unit-level state machine on ContentionMonitor.

ContentionMonitor::Config BreakerConfig() {
  ContentionMonitor::Config config;
  config.breaker_enabled = true;
  return config;
}

TEST(BreakerTest, TripsOnlyWhenTheWindowedRateCrossesTheThreshold) {
  ContentionMonitor monitor(BreakerConfig());
  const auto& cfg = monitor.config();
  // A full window of commits: stays closed.
  for (uint32_t i = 0; i < cfg.breaker_window; ++i) {
    monitor.RecordAttempt(1, /*aborted=*/false);
  }
  EXPECT_EQ(monitor.breaker_state(), BreakerState::kClosed);
  // A full window of aborts: trips on the window edge, not before.
  for (uint32_t i = 0; i < cfg.breaker_window - 1; ++i) {
    monitor.RecordAttempt(1, /*aborted=*/true);
    EXPECT_EQ(monitor.breaker_state(), BreakerState::kClosed);
  }
  monitor.RecordAttempt(1, /*aborted=*/true);
  EXPECT_EQ(monitor.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(monitor.breaker_trips(), 1u);
}

TEST(BreakerTest, FullRoundTripOpenHalfOpenClosed) {
  ContentionMonitor monitor(BreakerConfig());
  const auto& cfg = monitor.config();
  monitor.TripBreaker();
  EXPECT_EQ(monitor.breaker_state(), BreakerState::kOpen);
  // The open window bypasses exactly breaker_open_txns transactions.
  for (uint32_t i = 0; i < cfg.breaker_open_txns; ++i) {
    EXPECT_TRUE(monitor.BreakerShouldBypass());
  }
  // The next routed transaction transitions to half-open and is admitted
  // as the first probe.
  EXPECT_FALSE(monitor.BreakerShouldBypass());
  EXPECT_EQ(monitor.breaker_state(), BreakerState::kHalfOpen);
  EXPECT_EQ(monitor.breaker_half_opens(), 1u);
  monitor.RecordAttempt(1, /*aborted=*/false);
  for (uint32_t i = 1; i < cfg.breaker_probe_txns; ++i) {
    EXPECT_FALSE(monitor.BreakerShouldBypass()) << "probe " << i;
    monitor.RecordAttempt(1, /*aborted=*/false);
  }
  EXPECT_EQ(monitor.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(monitor.breaker_closes(), 1u);
  EXPECT_FALSE(monitor.BreakerShouldBypass());
}

TEST(BreakerTest, AbortingProbesReTrip) {
  ContentionMonitor monitor(BreakerConfig());
  const auto& cfg = monitor.config();
  monitor.TripBreaker();
  for (uint32_t i = 0; i < cfg.breaker_open_txns; ++i) {
    monitor.BreakerShouldBypass();
  }
  // Half-open; every probe aborts -> the storm is still on, re-trip.
  for (uint32_t i = 0; i < cfg.breaker_probe_txns; ++i) {
    EXPECT_FALSE(monitor.BreakerShouldBypass());
    monitor.RecordAttempt(1, /*aborted=*/true);
  }
  EXPECT_EQ(monitor.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(monitor.breaker_trips(), 2u);
  EXPECT_EQ(monitor.breaker_half_opens(), 1u);
  EXPECT_EQ(monitor.breaker_closes(), 0u);
}

TEST(BreakerTest, TrippedBreakerClampsFusionWidthToOne) {
  ContentionMonitor monitor(BreakerConfig());
  EXPECT_GT(monitor.CurrentFusionWidth(32), 1u);
  monitor.TripBreaker();
  EXPECT_EQ(monitor.CurrentFusionWidth(32), 1u);
}

TEST(BreakerTest, DisabledBreakerNeverTrips) {
  ContentionMonitor monitor;  // breaker_enabled defaults to false.
  for (int i = 0; i < 1000; ++i) monitor.RecordAttempt(1, /*aborted=*/true);
  EXPECT_EQ(monitor.breaker_state(), BreakerState::kClosed);
  monitor.TripBreaker();
  EXPECT_EQ(monitor.breaker_state(), BreakerState::kClosed);
  EXPECT_FALSE(monitor.BreakerShouldBypass());
  EXPECT_EQ(monitor.breaker_trips(), 0u);
}

TEST(BreakerTest, StateNamesForDiagnostics) {
  EXPECT_STREQ(BreakerStateName(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateName(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateName(BreakerState::kHalfOpen), "half_open");
}

// ---------------------------------------------------------------------
// Breaker routed through TuFast under a forced failpoint trip: the
// exact same deterministic round trip the micro_ops_benchmark "progress
// guard" table pins in BENCH_baseline.json.

TEST(TuFastBreakerTest, ForcedTripRoundTripIsVisibleInTelemetry) {
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm, EventTelemetry> tm(htm, 1024);
  std::vector<TmWord> values(1024, 0);
  FailpointPlan plan(FailpointPlan::Config{});
  plan.ForceAt(FailSite::kBreakerTrip, 0, 0, FailAction::kFail);
  FailpointScope scope(plan);
  constexpr uint64_t kTxns = 200;
  VertexId v = 0;
  for (uint64_t t = 0; t < kTxns; ++t) {
    const RunOutcome outcome = tm.Run(0, 2, [&](auto& txn) {
      txn.Write(v, &values[v], txn.Read(v, &values[v]) + 1);
    });
    EXPECT_TRUE(outcome.committed);
    v = (v + 1) & 1023;
  }
  const TelemetrySnapshot snap = tm.AggregatedTelemetry().Snapshot();
  EXPECT_EQ(snap.breaker_trips, 1u);
  EXPECT_EQ(snap.breaker_half_opens, 1u);
  EXPECT_EQ(snap.breaker_closes, 1u);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.breaker_bypass,
            uint64_t{ContentionMonitor::Config{}.breaker_open_txns});
  EXPECT_EQ(stats.commits, kTxns) << "the breaker reroutes, never drops";
  // Bypassed transactions went to L; the rest stayed on the H path.
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kL)],
            stats.breaker_bypass);
}

TEST(TuFastBreakerTest, DisabledBreakerIgnoresTheTripFailpoint) {
  FaultyHtm htm;
  typename TuFastScheduler<FaultyHtm>::Config config;
  config.enable_breaker = false;
  TuFastScheduler<FaultyHtm> tm(htm, 64, config);
  std::vector<TmWord> values(64, 0);
  FailpointPlan plan(FailpointPlan::Config{});
  plan.ForceAt(FailSite::kBreakerTrip, 0, 0, FailAction::kFail);
  FailpointScope scope(plan);
  for (uint64_t t = 0; t < 50; ++t) {
    tm.Run(0, 2, [&](auto& txn) {
      txn.Write(1, &values[1], txn.Read(1, &values[1]) + 1);
    });
  }
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.breaker_bypass, 0u);
  EXPECT_EQ(stats.class_count[static_cast<int>(TxnClass::kL)], 0u);
}

// ---------------------------------------------------------------------
// Starvation escalation end to end, driven by forced victim re-aborts.

TEST(TuFastStarvationTest, ForcedVictimReabortsEscalateThenCommit) {
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm, EventTelemetry> tm(htm, 1024);
  std::vector<TmWord> values(1024, 0);
  FailpointPlan plan(FailpointPlan::Config{});
  // Far more forced re-aborts than the priority threshold: once the slot
  // is protected the failpoint is skipped, so the ladder must cap the
  // abort count at exactly the threshold.
  for (uint64_t hit = 0; hit < 16; ++hit) {
    plan.ForceAt(FailSite::kVictimReabort, 0, hit, FailAction::kFail);
  }
  FailpointScope scope(plan);
  const uint64_t big = tm.config().o_hint_threshold + 1;
  const RunOutcome outcome = tm.Run(0, big, [&](auto& txn) {
    txn.Write(0, &values[0], txn.Read(0, &values[0]) + 1);
  });
  EXPECT_TRUE(outcome.committed);
  EXPECT_EQ(values[0], 1u);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.starvation_escalations, 1u);
  EXPECT_EQ(stats.max_txn_aborts,
            uint64_t{tm.config().starvation_priority_threshold})
      << "priority aging must make the slot immune to further injected "
         "victim aborts";
  EXPECT_EQ(stats.backoff_events, stats.max_txn_aborts)
      << "one paced backoff per victim abort";
  EXPECT_GT(tm.AggregatedTelemetry().Snapshot().backoff_pauses, 0u);
  // The ladder cleans up after commit.
  EXPECT_FALSE(tm.progress_guard().signals().AnyStarved());
  EXPECT_FALSE(tm.progress_guard().signals().TokenHeld());
}

TEST(TuFastStarvationTest, ForcedTokenIsAcquiredAndReleased) {
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm, EventTelemetry> tm(htm, 1024);
  std::vector<TmWord> values(1024, 0);
  FailpointPlan plan(FailpointPlan::Config{});
  plan.ForceAt(FailSite::kStarvationToken, 0, 0, FailAction::kFail);
  FailpointScope scope(plan);
  const uint64_t big = tm.config().o_hint_threshold + 1;
  const RunOutcome outcome = tm.Run(0, big, [&](auto& txn) {
    txn.Write(0, &values[0], txn.Read(0, &values[0]) + 1);
  });
  EXPECT_TRUE(outcome.committed);
  EXPECT_FALSE(tm.progress_guard().signals().TokenHeld())
      << "OnTxnDone must release the token at commit";
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.starvation_tokens, 1u);
}

TEST(TuFastStarvationTest, SameSeedReplaysIdenticalBackoffSequence) {
  // The only entropy in the guard is the worker's seeded Rng and the
  // failpoint plan's per-slot streams, so two identical single-threaded
  // runs must agree on every counter.
  auto run_once = [] {
    FaultyHtm htm;
    TuFastScheduler<FaultyHtm, EventTelemetry> tm(htm, 64);
    std::vector<TmWord> values(64, 0);
    FailpointPlan::Config config;
    config.seed = 42;
    config.Arm(FailSite::kLockAcquireExclusive, 0.5, FailAction::kFail);
    config.Arm(FailSite::kVictimReabort, 0.3, FailAction::kFail);
    FailpointPlan plan(config);
    FailpointScope scope(plan);
    const uint64_t big = tm.config().o_hint_threshold + 1;
    for (uint64_t t = 0; t < 60; ++t) {
      const VertexId v = static_cast<VertexId>(t & 63);
      tm.Run(0, big, [&](auto& txn) {
        txn.Write(v, &values[v], txn.ReadForUpdate(v, &values[v]) + 1);
      });
    }
    return std::make_pair(tm.AggregatedStats(),
                          tm.AggregatedTelemetry().Snapshot());
  };
  const auto [a, a_snap] = run_once();
  const auto [b, b_snap] = run_once();
  EXPECT_GT(a.backoff_events, 0u) << "the plan must provoke some retries";
  EXPECT_EQ(a.backoff_events, b.backoff_events);
  EXPECT_EQ(a_snap.backoff_pauses, b_snap.backoff_pauses);
  EXPECT_EQ(a.starvation_escalations, b.starvation_escalations);
  EXPECT_EQ(a.max_txn_aborts, b.max_txn_aborts);
}

// ---------------------------------------------------------------------
// O-mode retry pacing: a capacity abort halves the period without the
// conflict backoff (it is about the segment's footprint, not about
// contenders); a conflict abort at the same point still pays one.

/// One O-routed transaction with a forced `action` on its first
/// transactional load. A static period of 400 keeps the halved retry
/// (200) in O mode, so the transaction commits as O+.
SchedulerStats RunOWithForcedFirstLoadAbort(FailAction action) {
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm>::Config config;
  config.adaptive_period = false;
  config.static_period = 400;
  TuFastScheduler<FaultyHtm> tm(htm, 64, config);
  std::vector<TmWord> values(64, 0);
  FailpointPlan plan(FailpointPlan::Config{});
  plan.ForceAt(FailSite::kHtmLoad, /*slot=*/0, /*hit_index=*/0, action);
  FailpointScope scope(plan);
  const RunOutcome outcome =
      tm.Run(0, tm.h_hint_threshold() + 1, [&](auto& txn) {
        txn.Write(3, &values[3], txn.Read(3, &values[3]) + 1);
      });
  EXPECT_TRUE(outcome.committed);
  EXPECT_EQ(outcome.cls, TxnClass::kOPlus);
  EXPECT_EQ(outcome.aborts, 1u);
  EXPECT_EQ(values[3], 1u);
  EXPECT_EQ(plan.InjectionCount(), 1u);
  return tm.AggregatedStats();
}

TEST(TuFastOModeBackoffTest, CapacityAbortSkipsTheConflictBackoff) {
  const SchedulerStats stats =
      RunOWithForcedFirstLoadAbort(FailAction::kAbortCapacity);
  EXPECT_EQ(stats.capacity_aborts, 1u);
  EXPECT_EQ(stats.backoff_events, 0u);
}

TEST(TuFastOModeBackoffTest, ConflictAbortStillPaysOneBackoff) {
  const SchedulerStats stats =
      RunOWithForcedFirstLoadAbort(FailAction::kAbortConflict);
  EXPECT_EQ(stats.conflict_aborts, 1u);
  EXPECT_EQ(stats.backoff_events, 1u);
}

// ---------------------------------------------------------------------
// Retry accounting: a commit after a failed hardware attempt reaches
// max_txn_aborts and the re-abort histogram on every HTM-first scheduler.

/// One transaction whose first hardware commit is forced to `action`; the
/// retry commits in class `cls`. A conflict abort retries in hardware; a
/// capacity abort sends H-TO straight to its TO fallback, whose retry loop
/// must still count the failed hardware attempt.
template <typename Scheduler>
void ExpectOneRetryRecorded(const char* name, FailAction action,
                            TxnClass cls) {
  SCOPED_TRACE(name);
  FaultyHtm htm;
  Scheduler tm(htm, 64);
  std::vector<TmWord> values(64, 0);
  FailpointPlan plan(FailpointPlan::Config{});
  plan.ForceAt(FailSite::kHtmCommit, /*slot=*/0, /*hit_index=*/0, action);
  FailpointScope scope(plan);
  const RunOutcome outcome = tm.Run(0, 2, [&](auto& txn) {
    txn.Write(3, &values[3], txn.Read(3, &values[3]) + 1);
  });
  EXPECT_TRUE(outcome.committed);
  EXPECT_EQ(outcome.cls, cls);
  EXPECT_EQ(outcome.aborts, 1u);
  EXPECT_EQ(values[3], 1u);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(action == FailAction::kAbortCapacity ? stats.capacity_aborts
                                                 : stats.conflict_aborts,
            1u);
  EXPECT_EQ(stats.max_txn_aborts, 1u);
  EXPECT_EQ(tm.AggregatedTelemetry().Snapshot().txn_abort_hist.count(), 1u);
}

TEST(RetryAccountingTest, HtmFirstSchedulersRecordRetriedCommits) {
  constexpr FailAction kConflict = FailAction::kAbortConflict;
  ExpectOneRetryRecorded<TuFastScheduler<FaultyHtm, EventTelemetry>>(
      "tufast", kConflict, TxnClass::kH);
  ExpectOneRetryRecorded<HsyncHybrid<FaultyHtm, EventTelemetry>>(
      "hsync", kConflict, TxnClass::kH);
  ExpectOneRetryRecorded<HtmTimestampOrdering<FaultyHtm, EventTelemetry>>(
      "hto", kConflict, TxnClass::kH);
  ExpectOneRetryRecorded<HtmTimestampOrdering<FaultyHtm, EventTelemetry>>(
      "hto capacity -> to", FailAction::kAbortCapacity, TxnClass::kO);
}

// ---------------------------------------------------------------------
// The starvation token pauses batch fusion.

TEST(TuFastStarvationTest, HeldTokenPausesFusion) {
  EmulatedHtm htm;
  constexpr VertexId kVertices = 256;
  {
    TuFastInstrumented tm(htm, kVertices);
    std::vector<TmWord> values(kVertices, 0);
    // Stage a foreign slot holding the token: RunBatch must route every
    // item per-item instead of opening fused regions.
    ASSERT_TRUE(tm.progress_guard().signals().TryAcquireToken(63));
    tm.RunBatch(
        0, 0, kVertices, [](uint64_t) { return uint64_t{1}; },
        [&](auto& txn, uint64_t i) {
          const VertexId v = static_cast<VertexId>(i);
          txn.Write(v, &values[v], txn.Read(v, &values[v]) + 1);
        });
    for (VertexId v = 0; v < kVertices; ++v) EXPECT_EQ(values[v], 1u);
    EXPECT_EQ(tm.AggregatedStats().fused_regions, 0u)
        << "fusion must pause while the starvation token is held";
    tm.progress_guard().signals().ReleaseToken(63);
  }
  {
    TuFastInstrumented tm(htm, kVertices);
    std::vector<TmWord> values(kVertices, 0);
    tm.RunBatch(
        0, 0, kVertices, [](uint64_t) { return uint64_t{1}; },
        [&](auto& txn, uint64_t i) {
          const VertexId v = static_cast<VertexId>(i);
          txn.Write(v, &values[v], txn.Read(v, &values[v]) + 1);
        });
    for (VertexId v = 0; v < kVertices; ++v) EXPECT_EQ(values[v], 1u);
    EXPECT_GT(tm.AggregatedStats().fused_regions, 0u)
        << "with the token free the same batch must fuse";
  }
}

// ---------------------------------------------------------------------
// Exception safety: a throwing transaction body must not leak locks.

struct BodyError : std::runtime_error {
  BodyError() : std::runtime_error("transaction body failure") {}
};

template <typename Htm, typename Tm>
void ExpectAllLocksFree(Tm& tm, VertexId vertices) {
  for (VertexId v = 0; v < vertices; ++v) {
    EXPECT_TRUE(LockTable<Htm>::Free(tm.lock_table().LoadWord(v)))
        << "lock word " << v << " leaked past the unwinding body";
  }
  // A leaked held count would turn lock elision off for good.
  EXPECT_EQ(tm.lock_table().HeldCount(), 0u)
      << "held count leaked past the unwinding body";
}

TEST(ExceptionSafetyTest, TuFastLockModeThrowReleasesLocks) {
  EmulatedHtm htm;
  constexpr VertexId kVertices = 64;
  TuFast tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  const uint64_t big = tm.config().o_hint_threshold + 1;
  EXPECT_THROW(tm.Run(0, big,
                      [&](auto& txn) {
                        // Take exclusive locks on several vertices, then
                        // die mid-body.
                        for (VertexId v = 1; v <= 3; ++v) {
                          txn.Write(v, &values[v],
                                    txn.ReadForUpdate(v, &values[v]) + 1);
                        }
                        throw BodyError();
                      }),
               BodyError);
  ExpectAllLocksFree<EmulatedHtm>(tm, kVertices);
  EXPECT_FALSE(tm.l_gate().Busy())
      << "the L gate leaked past the unwinding body";
  for (VertexId v = 1; v <= 3; ++v) {
    EXPECT_EQ(EmulatedHtm::NonTxLoad(&values[v]), 0u)
        << "the aborted body's writes must not be visible";
  }
  // The lock set is reusable: the same vertices commit afterwards, from
  // the same worker and from a different one.
  for (const int worker : {0, 1}) {
    const RunOutcome outcome = tm.Run(worker, big, [&](auto& txn) {
      for (VertexId v = 1; v <= 3; ++v) {
        txn.Write(v, &values[v], txn.ReadForUpdate(v, &values[v]) + 1);
      }
    });
    EXPECT_TRUE(outcome.committed);
  }
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&values[1]), 2u);
  EXPECT_FALSE(tm.progress_guard().signals().AnyStarved());
  EXPECT_FALSE(tm.progress_guard().signals().TokenHeld());
  EXPECT_FALSE(tm.l_gate().Busy());
}

TEST(ExceptionSafetyTest, TuFastOptimisticModeThrowReleasesEverything) {
  EmulatedHtm htm;
  constexpr VertexId kVertices = 64;
  TuFast tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  const uint64_t medium = tm.h_hint_threshold() + 1;
  EXPECT_THROW(tm.Run(0, medium,
                      [&](auto& txn) {
                        txn.Write(2, &values[2], txn.Read(2, &values[2]) + 1);
                        throw BodyError();
                      }),
               BodyError);
  ExpectAllLocksFree<EmulatedHtm>(tm, kVertices);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&values[2]), 0u);
  const RunOutcome outcome = tm.Run(0, medium, [&](auto& txn) {
    txn.Write(2, &values[2], txn.Read(2, &values[2]) + 1);
  });
  EXPECT_TRUE(outcome.committed);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&values[2]), 1u);
}

TEST(ExceptionSafetyTest, TuFastHardwareModeThrowReleasesEverything) {
  EmulatedHtm htm;
  constexpr VertexId kVertices = 64;
  TuFast tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  EXPECT_THROW(tm.Run(0, /*size_hint=*/2,
                      [&](auto& txn) {
                        txn.Write(2, &values[2], txn.Read(2, &values[2]) + 1);
                        throw BodyError();
                      }),
               BodyError);
  ExpectAllLocksFree<EmulatedHtm>(tm, kVertices);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&values[2]), 0u);
  const RunOutcome outcome = tm.Run(0, 2, [&](auto& txn) {
    txn.Write(2, &values[2], txn.Read(2, &values[2]) + 1);
  });
  EXPECT_EQ(outcome.cls, TxnClass::kH);
  EXPECT_EQ(tm.AggregatedStats().elided_attempts, 1u)
      << "the throw left no lock episode behind, so the next attempt "
         "elides";
}

TEST(ExceptionSafetyTest, TwoPhaseLockingThrowReleasesLocks) {
  EmulatedHtm htm;
  constexpr VertexId kVertices = 64;
  TwoPhaseLocking<EmulatedHtm> tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  EXPECT_THROW(tm.Run(0, 4,
                      [&](auto& txn) {
                        for (VertexId v = 1; v <= 3; ++v) {
                          txn.Write(v, &values[v],
                                    txn.ReadForUpdate(v, &values[v]) + 1);
                        }
                        throw BodyError();
                      }),
               BodyError);
  ExpectAllLocksFree<EmulatedHtm>(tm, kVertices);
  // Re-acquiring the same exclusive locks from a *different* worker slot
  // victimizes forever if the first body leaked them.
  for (const int worker : {1, 0}) {
    const RunOutcome outcome = tm.Run(worker, 4, [&](auto& txn) {
      for (VertexId v = 1; v <= 3; ++v) {
        txn.Write(v, &values[v], txn.ReadForUpdate(v, &values[v]) + 1);
      }
    });
    EXPECT_TRUE(outcome.committed);
  }
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&values[1]), 2u);
  EXPECT_FALSE(tm.progress_guard().signals().AnyStarved());
}

TEST(ExceptionSafetyTest, HsyncFallbackThrowReleasesTheGlobalLock) {
  FaultyHtm htm;
  HsyncHybrid<FaultyHtm> tm(htm, 64);
  std::vector<TmWord> values(64, 0);
  // Force every hardware attempt to abort so Run lands in the global-lock
  // fallback, whose body then throws.
  FailpointPlan::Config config;
  config.Arm(FailSite::kHtmLoad, 1.0, FailAction::kAbortConflict);
  FailpointPlan plan(config);
  {
    FailpointScope scope(plan);
    EXPECT_THROW(tm.Run(0, 1, [&](auto&) { throw BodyError(); }), BodyError);
    // Still under the failpoint plan: the next transaction must reach the
    // fallback again and take the global lock. If the throwing body had
    // leaked it, this acquire would spin forever.
    const RunOutcome outcome = tm.Run(0, 1, [&](auto& txn) {
      txn.Write(5, &values[5], txn.Read(5, &values[5]) + 1);
    });
    EXPECT_TRUE(outcome.committed);
    EXPECT_EQ(outcome.cls, TxnClass::kL);
  }
  EXPECT_EQ(FaultyHtm::NonTxLoad(&values[5]), 1u);
}

TEST(ExceptionSafetyTest, TinyStmThrowRollsBackEncounterTimeLocks) {
  EmulatedHtm htm;
  constexpr VertexId kVertices = 64;
  TinyStm<EmulatedHtm> tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  EXPECT_THROW(tm.Run(0, 4,
                      [&](auto& txn) {
                        // TinySTM takes its write locks at encounter
                        // time, so they are held when the body throws.
                        txn.Write(7, &values[7], 99);
                        txn.Write(8, &values[8], 99);
                        throw BodyError();
                      }),
               BodyError);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&values[7]), 0u)
      << "undo log must roll the encounter-time write back";
  // Both vertices are writable again from another worker slot.
  const RunOutcome outcome = tm.Run(1, 4, [&](auto& txn) {
    txn.Write(7, &values[7], txn.ReadForUpdate(7, &values[7]) + 1);
    txn.Write(8, &values[8], txn.ReadForUpdate(8, &values[8]) + 1);
  });
  EXPECT_TRUE(outcome.committed);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&values[7]), 1u);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&values[8]), 1u);
}

// ---------------------------------------------------------------------
// Stall watchdog + heartbeat counters.

TEST(StallWatchdogTest, FiresOnceOnTheRetryStormSignature) {
  std::atomic<uint64_t> attempts{0};
  std::atomic<int> fired{0};
  StallWatchdog::Config config;
  config.interval = std::chrono::milliseconds(2);
  config.stall_intervals = 3;
  StallWatchdog watchdog(
      config,
      [&] {
        // Attempts advance on every sample; commits stay frozen — the
        // signature of a livelocked retry storm.
        return StallWatchdog::Sample{attempts.fetch_add(1) + 1, 7};
      },
      [&] { fired.fetch_add(1); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!watchdog.stalled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(watchdog.stalled());
  watchdog.Stop();
  watchdog.Stop();  // Idempotent.
  EXPECT_EQ(fired.load(), 1) << "on_stall must fire exactly once";
}

TEST(StallWatchdogTest, StaysQuietWhileCommitsAdvance) {
  std::atomic<uint64_t> beat{0};
  StallWatchdog::Config config;
  config.interval = std::chrono::milliseconds(1);
  config.stall_intervals = 3;
  StallWatchdog watchdog(
      config,
      [&] {
        const uint64_t b = beat.fetch_add(1) + 1;
        return StallWatchdog::Sample{b, b};  // Commits keep pace.
      },
      [] { FAIL() << "no stall should be declared while commits advance"; });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  watchdog.Stop();
  EXPECT_FALSE(watchdog.stalled());
}

TEST(StallWatchdogTest, StaysQuietWhileIdle) {
  StallWatchdog::Config config;
  config.interval = std::chrono::milliseconds(1);
  config.stall_intervals = 3;
  StallWatchdog watchdog(
      config, [] { return StallWatchdog::Sample{12, 5}; },  // All frozen.
      [] { FAIL() << "an idle system is not a stall"; });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  watchdog.Stop();
  EXPECT_FALSE(watchdog.stalled());
}

TEST(HeartbeatTest, TuFastPublishesHeartbeatsTheWatchdogCanSample) {
  EmulatedHtm htm;
  TuFast tm(htm, 64);
  std::vector<TmWord> values(64, 0);
  constexpr uint64_t kTxns = 10;
  for (uint64_t t = 0; t < kTxns; ++t) {
    tm.Run(0, 2, [&](auto& txn) {
      txn.Write(1, &values[1], txn.Read(1, &values[1]) + 1);
    });
  }
  const auto hb = tm.Heartbeats();
  EXPECT_EQ(hb.commits, kTxns);
  EXPECT_GE(hb.attempts, hb.commits)
      << "every commit is preceded by at least one attempt beat";
  // The real wiring: a watchdog sampling the scheduler's own heartbeats
  // sees progress and stays quiet.
  StallWatchdog::Config config;
  config.interval = std::chrono::milliseconds(1);
  config.stall_intervals = 3;
  StallWatchdog watchdog(
      config,
      [&] {
        const auto now = tm.Heartbeats();
        return StallWatchdog::Sample{now.attempts, now.commits};
      },
      [] { FAIL() << "a finished workload must not look like a stall"; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watchdog.Stop();
  EXPECT_FALSE(watchdog.stalled());
}

}  // namespace
}  // namespace tufast
