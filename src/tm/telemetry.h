#ifndef TUFAST_TM_TELEMETRY_H_
#define TUFAST_TM_TELEMETRY_H_

#include <chrono>
#include <cstdint>

#include "common/histogram.h"
#include "tm/outcome.h"

namespace tufast {

/// Compile-time pluggable scheduler telemetry (DESIGN.md "Worker runtime
/// and telemetry"). Every scheduler threads a sink type through its
/// per-worker runtime; the sink receives typed events at the points the
/// adaptive-routing literature (DyAdHyTM, GTX) shows matter for steering
/// and for comparing concurrency-control variants:
///
///   TxnBegin            one logical Run() started;
///   EnterMode           the transaction is now executing under H/O/L
///                       machinery (the first call per txn sets the
///                       initial mode; later calls are the Fig. 10
///                       H->O->L transitions);
///   AttemptAbort        one execution attempt failed, with the reason;
///   PeriodChange        O mode is about to attempt with this `period`;
///   DeadlockVictim      the lock manager picked this worker as victim
///                       (cycle detection or wait-bound expiry);
///   TxnCommit           the txn committed in class `cls`;
///   TxnUserAbort        the body called txn.Abort() (final, no retry).
///
/// Sinks repeat no count SchedulerStats (outcome.h) holds: they add
/// clocks, distributions, the abort and transition matrices, the
/// deadlock-victim split and breaker transitions. The worker_runtime.h
/// helpers update both for an event that touches both. Sinks are
/// per-worker (no synchronization inside event handlers) and joined with
/// Merge(), exactly like SchedulerStats.

/// Coarse execution machinery a transaction is currently running under.
/// TxnClass (outcome.h) is the per-commit refinement of this.
enum class SchedMode : uint8_t { kHardware = 0, kOptimistic, kLock, kNumModes };

inline const char* SchedModeName(SchedMode m) {
  switch (m) {
    case SchedMode::kHardware: return "H";
    case SchedMode::kOptimistic: return "O";
    case SchedMode::kLock: return "L";
    default: return "?";
  }
}

inline constexpr SchedMode ModeOfClass(TxnClass cls) {
  switch (cls) {
    case TxnClass::kH: return SchedMode::kHardware;
    case TxnClass::kO:
    case TxnClass::kOPlus: return SchedMode::kOptimistic;
    default: return SchedMode::kLock;
  }
}

/// Why one execution attempt failed. Mirrors the SchedulerStats abort
/// counters one-for-one: each reason's row of the mode x reason matrix
/// sums to its counter.
enum class AbortReason : uint8_t {
  kConflict = 0,
  kCapacity,
  kValidation,
  kLockBusy,
  kDeadlock,
  kNumReasons
};

inline const char* AbortReasonName(AbortReason r) {
  switch (r) {
    case AbortReason::kConflict: return "conflict";
    case AbortReason::kCapacity: return "capacity";
    case AbortReason::kValidation: return "validation";
    case AbortReason::kLockBusy: return "lock_busy";
    case AbortReason::kDeadlock: return "deadlock";
    default: return "?";
  }
}

inline constexpr int kNumSchedModes = static_cast<int>(SchedMode::kNumModes);
inline constexpr int kNumAbortReasons =
    static_cast<int>(AbortReason::kNumReasons);
inline constexpr int kNumTxnClasses = static_cast<int>(TxnClass::kNumClasses);

/// The default sink: every handler is an empty inline function, so the
/// instrumentation compiles away entirely — a NullTelemetry scheduler
/// build is bit-identical in behavior to the pre-telemetry code (verified
/// by micro_ops_benchmark, see DESIGN.md). `kEnabled == false` also lets
/// call sites skip any *argument computation* that only feeds telemetry
/// (e.g. clock reads) via `if constexpr`.
struct NullTelemetry {
  static constexpr bool kEnabled = false;

  void TxnBegin() {}
  void EnterMode(SchedMode) {}
  void AttemptAbort(AbortReason) {}
  void PeriodChange(uint32_t) {}
  void DeadlockVictim(bool /*cycle*/) {}
  void TxnCommit(TxnClass) {}
  void TxnUserAbort(TxnClass) {}
  void FusedCommit(uint32_t /*width*/, uint32_t /*depth*/) {}
  void BackoffWait(uint64_t /*pauses*/) {}
  void BreakerTrip() {}
  void BreakerHalfOpen() {}
  void BreakerClose() {}
  void TxnRetries(uint64_t /*aborts*/) {}
  void ServeQueueDelay(uint64_t /*ns*/) {}
  void Merge(const NullTelemetry&) {}
};

/// Aggregated view of one EventTelemetry sink (or a Merge of several):
/// the clocks, distributions and breakdowns SchedulerStats does not hold.
/// Plain data so bench_support can serialize it (JSON) beside the stats
/// without depending on the sink internals.
struct TelemetrySnapshot {
  /// Deadlock victims split by how the lock manager picked them; the two
  /// sum to SchedulerStats::deadlock_aborts.
  uint64_t deadlock_cycle_victims = 0;
  uint64_t deadlock_timeout_victims = 0;

  /// Per-class commit latency in nanoseconds, from TxnBegin: one sample
  /// per routed (unfused) commit. Fused items count in
  /// SchedulerStats::class_count[kH] but add no sample here.
  LogHistogram commit_latency_ns[kNumTxnClasses];

  /// Wall nanoseconds spent executing under each mode's machinery,
  /// attributed by EnterMode/commit boundaries.
  uint64_t time_in_mode_ns[kNumSchedModes] = {};

  /// Failed attempts by (mode the attempt ran under, reason).
  uint64_t aborts[kNumSchedModes][kNumAbortReasons] = {};

  /// Mode-transition counts within single transactions (H->O, O->L, ...).
  uint64_t transitions[kNumSchedModes][kNumSchedModes] = {};

  /// O-mode `period` values attempted; `last_period` is the most recent
  /// (per-worker snapshots only — Merge keeps the other's if set).
  LogHistogram period_hist;
  uint32_t last_period = 0;

  /// Batch-executor shape: committed fused-region widths and the width
  /// halvings each paid before it committed.
  LogHistogram fusion_width_hist;
  LogHistogram bisection_depth_hist;

  /// Progress-guard breakdown (tm/progress_guard.h): total backoff
  /// pauses, abort-storm breaker state transitions, and the victim
  /// re-abort histogram (failed attempts per transaction that retried at
  /// least once).
  uint64_t backoff_pauses = 0;
  uint64_t breaker_trips = 0;
  uint64_t breaker_half_opens = 0;
  uint64_t breaker_closes = 0;
  LogHistogram txn_abort_hist;

  /// Serving front end (serving/server.h): time each executed request
  /// sat between its scheduled arrival and execution start.
  LogHistogram serve_queue_delay_hist;

  uint64_t TotalAborts(AbortReason reason) const {
    uint64_t total = 0;
    for (int m = 0; m < kNumSchedModes; ++m) {
      total += aborts[m][static_cast<int>(reason)];
    }
    return total;
  }
};

/// The instrumented sink: aggregates events into per-class latency
/// histograms, time-in-mode breakdowns, abort/transition matrices and the
/// O-mode period trace. Per-worker (no locks); reads the steady clock on
/// every event, so only instrumented builds pay for timing.
class EventTelemetry {
 public:
  static constexpr bool kEnabled = true;

  void TxnBegin() {
    const uint64_t now = Now();
    txn_start_ns_ = now;
    mode_start_ns_ = now;
    in_mode_ = false;
  }

  void EnterMode(SchedMode mode) {
    const uint64_t now = Now();
    if (in_mode_) {
      snap_.time_in_mode_ns[static_cast<int>(mode_)] += now - mode_start_ns_;
      ++snap_.transitions[static_cast<int>(mode_)][static_cast<int>(mode)];
    }
    mode_ = mode;
    mode_start_ns_ = now;
    in_mode_ = true;
  }

  void AttemptAbort(AbortReason reason) {
    ++snap_.aborts[static_cast<int>(mode_)][static_cast<int>(reason)];
  }

  void PeriodChange(uint32_t period) {
    snap_.period_hist.Add(period);
    snap_.last_period = period;
  }

  void DeadlockVictim(bool cycle) {
    if (cycle) {
      ++snap_.deadlock_cycle_victims;
    } else {
      ++snap_.deadlock_timeout_victims;
    }
  }

  void TxnCommit(TxnClass cls) {
    const uint64_t now = Now();
    snap_.commit_latency_ns[static_cast<int>(cls)].Add(now - txn_start_ns_);
    CloseMode(now);
  }

  void TxnUserAbort(TxnClass /*cls*/) { CloseMode(Now()); }

  /// One fused H-mode region of `width` items committed after `depth`
  /// abort-driven width halvings.
  void FusedCommit(uint32_t width, uint32_t depth) {
    const uint64_t now = Now();
    snap_.fusion_width_hist.Add(width);
    snap_.bisection_depth_hist.Add(depth);
    // The scheduler brackets fused attempts with EnterMode(kHardware);
    // closing here attributes the region's wall time to H mode.
    CloseMode(now);
  }

  /// One randomized-backoff wait of `pauses` spin/yield pauses between
  /// conflict retries (all three retry loops report here).
  void BackoffWait(uint64_t pauses) { snap_.backoff_pauses += pauses; }

  void BreakerTrip() { ++snap_.breaker_trips; }
  void BreakerHalfOpen() { ++snap_.breaker_half_opens; }
  void BreakerClose() { ++snap_.breaker_closes; }

  /// A transaction finished having failed `aborts` attempts; feeds the
  /// victim re-abort histogram (transactions that never retried stay out
  /// of the histogram so its count reads "retried transactions").
  void TxnRetries(uint64_t aborts) {
    if (aborts != 0) snap_.txn_abort_hist.Add(aborts);
  }

  /// One serving request entered execution after `ns` nanoseconds in the
  /// run queue (measured from its scheduled open-loop arrival).
  void ServeQueueDelay(uint64_t ns) { snap_.serve_queue_delay_hist.Add(ns); }

  void Merge(const EventTelemetry& other) {
    const TelemetrySnapshot& o = other.snap_;
    snap_.deadlock_cycle_victims += o.deadlock_cycle_victims;
    snap_.deadlock_timeout_victims += o.deadlock_timeout_victims;
    for (int c = 0; c < kNumTxnClasses; ++c) {
      snap_.commit_latency_ns[c].Merge(o.commit_latency_ns[c]);
    }
    for (int m = 0; m < kNumSchedModes; ++m) {
      snap_.time_in_mode_ns[m] += o.time_in_mode_ns[m];
      for (int r = 0; r < kNumAbortReasons; ++r) {
        snap_.aborts[m][r] += o.aborts[m][r];
      }
      for (int n = 0; n < kNumSchedModes; ++n) {
        snap_.transitions[m][n] += o.transitions[m][n];
      }
    }
    snap_.period_hist.Merge(o.period_hist);
    if (o.last_period != 0) snap_.last_period = o.last_period;
    snap_.fusion_width_hist.Merge(o.fusion_width_hist);
    snap_.bisection_depth_hist.Merge(o.bisection_depth_hist);
    snap_.backoff_pauses += o.backoff_pauses;
    snap_.breaker_trips += o.breaker_trips;
    snap_.breaker_half_opens += o.breaker_half_opens;
    snap_.breaker_closes += o.breaker_closes;
    snap_.txn_abort_hist.Merge(o.txn_abort_hist);
    snap_.serve_queue_delay_hist.Merge(o.serve_queue_delay_hist);
  }

  /// Copy of the aggregate so far. Call only while no transaction is in
  /// flight on this worker (same contract as SchedulerStats). Returns by
  /// value: the common call shape `tm.AggregatedTelemetry().Snapshot()`
  /// invokes it on a temporary, and a reference into that temporary
  /// would dangle as soon as the full expression ends.
  TelemetrySnapshot Snapshot() const { return snap_; }

 private:
  static uint64_t Now() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void CloseMode(uint64_t now) {
    if (in_mode_) {
      snap_.time_in_mode_ns[static_cast<int>(mode_)] += now - mode_start_ns_;
      in_mode_ = false;
    }
  }

  TelemetrySnapshot snap_;
  uint64_t txn_start_ns_ = 0;
  uint64_t mode_start_ns_ = 0;
  SchedMode mode_ = SchedMode::kHardware;
  bool in_mode_ = false;
};

}  // namespace tufast

#endif  // TUFAST_TM_TELEMETRY_H_
