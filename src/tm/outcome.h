#ifndef TUFAST_TM_OUTCOME_H_
#define TUFAST_TM_OUTCOME_H_

#include <cstdint>

namespace tufast {

/// Which execution class a committed TuFast transaction fell into,
/// matching the paper's Fig. 15 breakdown exactly:
///   H   - committed inside a single hardware transaction;
///   O   - committed by the optimistic mode on its first attempt;
///   OPlus - committed by O mode after one or more `period` adjustments;
///   O2L - O mode gave up, committed under locks;
///   L   - routed to lock mode directly (size hint too large for H/O).
enum class TxnClass : uint8_t { kH = 0, kO, kOPlus, kO2L, kL, kNumClasses };

inline const char* TxnClassName(TxnClass c) {
  switch (c) {
    case TxnClass::kH: return "H";
    case TxnClass::kO: return "O";
    case TxnClass::kOPlus: return "O+";
    case TxnClass::kO2L: return "O2L";
    case TxnClass::kL: return "L";
    default: return "?";
  }
}

/// Result of one Run() call on any scheduler.
struct RunOutcome {
  /// False only when the user called Txn::Abort() (no retry, by design).
  bool committed = false;
  /// Execution class of the commit (TuFast; baselines report kL/kO etc.
  /// loosely or leave the default).
  TxnClass cls = TxnClass::kH;
  /// READ/WRITE operations performed by the committed execution.
  uint64_t ops = 0;
  /// Failed attempts this call paid before the outcome above (0 for a
  /// first-try commit). MVCC snapshot reads (RunReadOnly) are 0 by
  /// construction; the streaming bench's reader-abort gate keys off
  /// this.
  uint64_t aborts = 0;
};

/// Per-worker counters common to every scheduler in this repository, and
/// the one place each count lives: telemetry sinks (tm/telemetry.h) add
/// clocks, distributions and breakdowns but repeat none of these. Merge
/// per-worker copies for global numbers; never shared across threads
/// without merging.
struct SchedulerStats {
  uint64_t commits = 0;
  uint64_t user_aborts = 0;
  uint64_t ops_committed = 0;

  // Failed attempts by reason (a transaction may fail several times
  // before committing; each failed attempt counts once).
  uint64_t conflict_aborts = 0;
  uint64_t capacity_aborts = 0;
  uint64_t validation_aborts = 0;
  uint64_t lock_busy_aborts = 0;
  uint64_t deadlock_aborts = 0;

  // Fig. 15: committed-transaction counts and op totals per class.
  uint64_t class_count[static_cast<int>(TxnClass::kNumClasses)] = {};
  uint64_t class_ops[static_cast<int>(TxnClass::kNumClasses)] = {};

  // Batch-executor (group-commit fusion) counters. A fused region that
  // commits counts each of its items as a normal H-class commit above,
  // so the class totals stay comparable across fusion on/off; these
  // record how the commits were packaged.
  uint64_t fused_regions = 0;      // committed fused regions (width >= 2)
  uint64_t fused_items = 0;        // items committed inside those regions
  uint64_t fusion_aborts = 0;      // fused-region attempts that aborted
  uint64_t fusion_bisections = 0;  // abort-driven width halvings

  // Lock elision (DESIGN.md "Lock elision"): hardware transactions — H
  // attempts, fused windows, O segments — that subscribed the lock
  // table's held word instead of per-vertex lock words.
  uint64_t elided_attempts = 0;

  // Progress-guard counters (tm/progress_guard.h).
  uint64_t backoff_events = 0;          // retry backoffs paid
  uint64_t starvation_escalations = 0;  // priority-aging escalations
  uint64_t starvation_tokens = 0;       // global-token acquisitions
  uint64_t breaker_bypass = 0;          // txns routed to L by the breaker
  uint64_t max_txn_aborts = 0;          // worst per-txn failed attempts

  // Serving front end (serving/server.h): per-worker queue-delay
  // accounting, recorded exactly once per executed request via
  // TuFastScheduler::NoteQueueDelay, so serve-side SLO accounting works
  // in NullTelemetry builds without a side channel.
  uint64_t serve_requests = 0;
  uint64_t serve_queue_delay_ns = 0;
  uint64_t serve_max_queue_delay_ns = 0;

  // Durability (enable_wal / EnableWal): committed WAL records and
  // payload bytes attributed to this worker's transactions.
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;

  void RecordCommit(TxnClass cls, uint64_t ops) {
    ++commits;
    ops_committed += ops;
    ++class_count[static_cast<int>(cls)];
    class_ops[static_cast<int>(cls)] += ops;
  }

  /// Commit of one fused H-mode region covering `items` per-vertex
  /// transactions totalling `total_ops` operations. Counts every item as
  /// an H-class commit (Fig. 15 parity with the unfused path) plus the
  /// fusion packaging counters.
  void RecordFusedCommit(uint64_t items, uint64_t total_ops) {
    commits += items;
    ops_committed += total_ops;
    class_count[static_cast<int>(TxnClass::kH)] += items;
    class_ops[static_cast<int>(TxnClass::kH)] += total_ops;
    if (items >= 2) {
      ++fused_regions;
      fused_items += items;
    }
  }

  uint64_t TotalFailedAttempts() const {
    return conflict_aborts + capacity_aborts + validation_aborts +
           lock_busy_aborts + deadlock_aborts;
  }

  void Merge(const SchedulerStats& other) {
    commits += other.commits;
    user_aborts += other.user_aborts;
    ops_committed += other.ops_committed;
    conflict_aborts += other.conflict_aborts;
    capacity_aborts += other.capacity_aborts;
    validation_aborts += other.validation_aborts;
    lock_busy_aborts += other.lock_busy_aborts;
    deadlock_aborts += other.deadlock_aborts;
    for (int i = 0; i < static_cast<int>(TxnClass::kNumClasses); ++i) {
      class_count[i] += other.class_count[i];
      class_ops[i] += other.class_ops[i];
    }
    fused_regions += other.fused_regions;
    fused_items += other.fused_items;
    fusion_aborts += other.fusion_aborts;
    fusion_bisections += other.fusion_bisections;
    elided_attempts += other.elided_attempts;
    backoff_events += other.backoff_events;
    starvation_escalations += other.starvation_escalations;
    starvation_tokens += other.starvation_tokens;
    breaker_bypass += other.breaker_bypass;
    if (other.max_txn_aborts > max_txn_aborts) {
      max_txn_aborts = other.max_txn_aborts;
    }
    serve_requests += other.serve_requests;
    serve_queue_delay_ns += other.serve_queue_delay_ns;
    if (other.serve_max_queue_delay_ns > serve_max_queue_delay_ns) {
      serve_max_queue_delay_ns = other.serve_max_queue_delay_ns;
    }
    wal_records += other.wal_records;
    wal_bytes += other.wal_bytes;
  }
};

/// Explicit-abort user codes shared between the modes and the router.
inline constexpr uint8_t kAbortCodeUser = 1;
inline constexpr uint8_t kAbortCodeLockBusy = 2;

/// Internal signal for a user-requested ABORT() outside hardware
/// transactions (O validation phase, L mode). Caught by the router.
struct UserAbortSignal {};

/// Internal signal for an L-mode deadlock-victim restart.
struct DeadlockVictimSignal {};

/// Internal signal for an O-mode software abort (lock busy / validation
/// failure) raised outside the hardware segment.
struct OModeFailSignal {};

}  // namespace tufast

#endif  // TUFAST_TM_OUTCOME_H_
