#ifndef TUFAST_TM_WORKER_RUNTIME_H_
#define TUFAST_TM_WORKER_RUNTIME_H_

#include <array>
#include <atomic>
#include <memory>

#include "common/compiler.h"
#include "common/failpoints.h"
#include "common/rng.h"
#include "common/spin.h"
#include "durability/wal.h"
#include "htm/abort.h"
#include "htm/htm_config.h"
#include "mvcc/version_store.h"
#include "tm/outcome.h"
#include "tm/progress_guard.h"
#include "tm/telemetry.h"

namespace tufast {

/// Shared per-worker runtime core for every scheduler in the repository
/// (TuFast + the six baselines). Owns the lazily-constructed per-worker
/// slots — scheduler-specific transaction state, SchedulerStats, RNG and
/// the pluggable telemetry sink — plus the aggregation/reset machinery
/// and the retry-loop scaffolding the schedulers used to hand-roll.
///
/// `State` is the scheduler's own per-worker payload (mode contexts, HTM
/// handles, contention monitor, ...) and must be constructible as
/// `State(parent, slot)` where `parent` is whatever the scheduler passes
/// to GetWorker. `Telemetry` is NullTelemetry (default, zero overhead) or
/// EventTelemetry (tm/telemetry.h).
///
/// Thread model: worker ids in [0, kMaxHtmThreads) map 1:1 to OS threads;
/// a slot's contents are only ever touched by its owning thread, so
/// stats/telemetry mutate without synchronization and Aggregated*() may
/// only run while no transaction is in flight.
template <typename State, typename Telemetry = NullTelemetry>
class WorkerRuntime {
 public:
  struct Worker {
    template <typename Parent>
    Worker(Parent& parent, int slot, uint64_t seed)
        : state(parent, slot), rng(seed) {}

    State state;
    SchedulerStats stats;
    Telemetry telemetry;
    Rng rng;

    /// Stall-watchdog heartbeats (tm/stall_watchdog.h): relaxed atomics
    /// because the watchdog thread samples them while the worker runs —
    /// everything else in the slot stays single-threaded and plain. Only
    /// the owning worker writes them (BeatAttempt/BeatCommit).
    std::atomic<uint64_t> attempt_beat{0};
    std::atomic<uint64_t> commit_beat{0};
  };

  /// `seed_base` keeps per-scheduler RNG streams distinct and every run
  /// reproducible; worker `i` draws from seed_base + i * golden-ratio.
  explicit WorkerRuntime(uint64_t seed_base) : seed_base_(seed_base) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(WorkerRuntime);

  template <typename Parent>
  Worker& GetWorker(int worker_id, Parent& parent) {
    TUFAST_CHECK(worker_id >= 0 && worker_id < kMaxHtmThreads);
    auto& slot = workers_[worker_id];
    if (slot == nullptr) {
      slot = std::make_unique<Worker>(
          parent, worker_id,
          seed_base_ + static_cast<uint64_t>(worker_id) * 0x9e3779b9u);
    }
    return *slot;
  }

  /// Worker access without construction (introspection; may be null).
  Worker* worker(int worker_id) {
    return workers_[worker_id] ? workers_[worker_id].get() : nullptr;
  }
  const Worker* worker(int worker_id) const {
    return workers_[worker_id] ? workers_[worker_id].get() : nullptr;
  }

  SchedulerStats AggregatedStats() const {
    SchedulerStats total;
    for (const auto& w : workers_) {
      if (w != nullptr) total.Merge(w->stats);
    }
    return total;
  }

  Telemetry AggregatedTelemetry() const {
    Telemetry total;
    for (const auto& w : workers_) {
      if (w != nullptr) total.Merge(w->telemetry);
    }
    return total;
  }

  const Telemetry* TelemetryForWorker(int worker_id) const {
    return workers_[worker_id] ? &workers_[worker_id]->telemetry : nullptr;
  }

  void ResetStats() {
    ResetStats([](State&) {});
  }

  /// Reset with a per-state hook for scheduler-owned counters that live
  /// inside State (e.g. the HTM handle's HtmStats).
  template <typename StateFn>
  void ResetStats(StateFn&& per_state) {
    for (auto& w : workers_) {
      if (w != nullptr) {
        w->stats = SchedulerStats{};
        w->telemetry = Telemetry{};
        w->attempt_beat.store(0, std::memory_order_relaxed);
        w->commit_beat.store(0, std::memory_order_relaxed);
        per_state(w->state);
      }
    }
  }

  /// Heartbeat totals across all workers. Safe to call from a watchdog
  /// thread while workers run — the only runtime accessor with that
  /// property — provided every participating slot already exists (lazy
  /// construction in GetWorker is not synchronized, so harnesses run one
  /// warmup pass before attaching the watchdog).
  struct HeartbeatTotals {
    uint64_t attempts = 0;
    uint64_t commits = 0;
  };
  HeartbeatTotals Heartbeats() const {
    HeartbeatTotals totals;
    for (const auto& w : workers_) {
      if (w != nullptr) {
        totals.attempts += w->attempt_beat.load(std::memory_order_relaxed);
        totals.commits += w->commit_beat.load(std::memory_order_relaxed);
      }
    }
    return totals;
  }

  template <typename Fn>
  void ForEachWorker(Fn&& fn) const {
    for (const auto& w : workers_) {
      if (w != nullptr) fn(*w);
    }
  }

 private:
  const uint64_t seed_base_;
  std::array<std::unique_ptr<Worker>, kMaxHtmThreads> workers_;
};

/// Short randomized backoff between software retry attempts (the loop
/// pacing Silo/TO/TinySTM shared by copy before the runtime existed).
template <typename RngT>
inline void RetryBackoff(RngT& rng) {
  Backoff backoff;
  const uint64_t pauses = 2 + rng.NextBounded(14);
  for (uint64_t i = 0; i < pauses; ++i) backoff.Pause();
}

/// Stall-watchdog heartbeats: one beat per execution attempt / commit.
/// A relaxed load and store, not a locked RMW: only the owning worker
/// writes the counter, ResetStats runs with no transaction in flight, and
/// the watchdog only needs eventual monotone counters.
template <typename Worker>
TUFAST_ALWAYS_INLINE void BeatAttempt(Worker& w) {
  w.attempt_beat.store(w.attempt_beat.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
}
template <typename Worker>
TUFAST_ALWAYS_INLINE void BeatCommit(Worker& w) {
  w.commit_beat.store(w.commit_beat.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
}

/// Event accounting. Counts live in SchedulerStats, clocks and
/// distributions in the telemetry sink; each event that touches both
/// goes through one helper here, so no scheduler decides on its own
/// which counters an event updates.

/// End-of-transaction retry accounting: feeds the victim re-abort
/// histogram and the worst-case bound the starvation stress asserts on.
template <typename Worker>
inline void RecordTxnRetries(Worker& w, uint64_t aborts) {
  w.telemetry.TxnRetries(aborts);
  if (aborts > w.stats.max_txn_aborts) w.stats.max_txn_aborts = aborts;
}

/// A transaction committed in class `cls` with `ops` operations after
/// `aborts` failed attempts; returns the caller's RunOutcome. Forced
/// inline like the heartbeats: it sits on every scheduler's commit path.
template <typename Worker>
TUFAST_ALWAYS_INLINE RunOutcome RecordTxnCommit(Worker& w, TxnClass cls,
                                                uint64_t ops, uint32_t aborts) {
  BeatCommit(w);
  w.stats.RecordCommit(cls, ops);
  w.telemetry.TxnCommit(cls);
  RecordTxnRetries(w, aborts);
  return RunOutcome{true, cls, ops, aborts};
}

/// The body called txn.Abort() (final) after `aborts` failed attempts;
/// returns the caller's RunOutcome.
template <typename Worker>
TUFAST_ALWAYS_INLINE RunOutcome RecordTxnUserAbort(Worker& w, TxnClass cls,
                                                   uint32_t aborts) {
  ++w.stats.user_aborts;
  w.telemetry.TxnUserAbort(cls);
  RecordTxnRetries(w, aborts);
  return RunOutcome{false, cls, 0, aborts};
}

/// One failed execution attempt: its SchedulerStats counter and its cell
/// of the mode x reason matrix.
template <typename Worker>
TUFAST_ALWAYS_INLINE void RecordAttemptAbort(Worker& w, AbortReason reason) {
  switch (reason) {
    case AbortReason::kConflict: ++w.stats.conflict_aborts; break;
    case AbortReason::kCapacity: ++w.stats.capacity_aborts; break;
    case AbortReason::kValidation: ++w.stats.validation_aborts; break;
    case AbortReason::kLockBusy: ++w.stats.lock_busy_aborts; break;
    case AbortReason::kDeadlock: ++w.stats.deadlock_aborts; break;
    case AbortReason::kNumReasons: break;
  }
  w.telemetry.AttemptAbort(reason);
}

/// One step up the progress guard's escalation ladder.
template <typename Worker>
inline void RecordEscalation(Worker& w, ProgressGuard::Escalation step) {
  switch (step) {
    case ProgressGuard::Escalation::kStarved:
      ++w.stats.starvation_escalations;
      break;
    case ProgressGuard::Escalation::kToken:
      ++w.stats.starvation_tokens;
      break;
    case ProgressGuard::Escalation::kNone:
      break;
  }
}

/// One serving request started executing after `ns` nanoseconds in the
/// run queue.
template <typename Worker>
inline void RecordQueueDelay(Worker& w, uint64_t ns) {
  ++w.stats.serve_requests;
  w.stats.serve_queue_delay_ns += ns;
  if (ns > w.stats.serve_max_queue_delay_ns) {
    w.stats.serve_max_queue_delay_ns = ns;
  }
  w.telemetry.ServeQueueDelay(ns);
}

/// Pays one progress-guard backoff and records it.
template <typename Worker>
inline void PayBackoff(Worker& w, uint32_t attempt) {
  const uint64_t pauses = ConflictBackoff(w.rng, attempt);
  ++w.stats.backoff_events;
  w.telemetry.BackoffWait(pauses);
}

/// Releases an LTxn-style lock set on every scope exit not explicitly
/// dismissed — the fix for lock leaks when a transaction body throws a
/// foreign (non-TM) exception through the retry loop. Relies on
/// ReleaseAll() being idempotent (LTxn clears its held set).
template <typename LockTxn>
class LockReleaseGuard {
 public:
  explicit LockReleaseGuard(LockTxn& txn) : txn_(&txn) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(LockReleaseGuard);
  ~LockReleaseGuard() {
    if (txn_ != nullptr) txn_->ReleaseAll();
  }
  void Dismiss() { txn_ = nullptr; }

 private:
  LockTxn* txn_;
};

/// How one failed hardware attempt should be handled by the retry loop.
enum class HtmAttemptVerdict {
  kUserAbort,  // body called Abort(): final, return to caller
  kCapacity,   // deterministic repeat: leave the loop for the fallback
  kRetryable,  // conflict / lock-busy: retry or fall through on budget
};

/// Classifies and records a failed AbortStatus. Shared by every
/// HTM-first retry loop (TuFast H mode, HSync, H-TO).
template <typename Worker>
inline HtmAttemptVerdict RecordHtmAbort(Worker& w, const AbortStatus& status) {
  if (status.cause == AbortCause::kExplicit &&
      status.user_code == kAbortCodeUser) {
    return HtmAttemptVerdict::kUserAbort;
  }
  if (status.cause == AbortCause::kCapacity) {
    RecordAttemptAbort(w, AbortReason::kCapacity);
    return HtmAttemptVerdict::kCapacity;
  }
  if (status.cause == AbortCause::kExplicit) {
    RecordAttemptAbort(w, AbortReason::kLockBusy);
  } else {
    RecordAttemptAbort(w, AbortReason::kConflict);
  }
  return HtmAttemptVerdict::kRetryable;
}

/// One fused hardware attempt for the batch executor (tm/batch_executor.h):
/// runs the bodies of items [lo, hi) back-to-back inside a *single* HTM
/// region on `htxn`, so the whole window shares one BEGIN/COMMIT and one
/// set of lock subscriptions — the held word alone when `may_elide` holds
/// and no vertex lock is held (HTxn::BeginAttempt). Returns the region's
/// AbortStatus and the operation count of the (possibly partial)
/// execution.
struct FusedAttemptResult {
  AbortStatus status;
  uint64_t ops = 0;
};

template <typename Tx, typename HTxnT, typename BodyFn>
inline FusedAttemptResult RunFusedHtmAttempt(Tx& htx, HTxnT& htxn, uint64_t lo,
                                             uint64_t hi, BodyFn& body,
                                             bool may_elide) {
  htxn.BeginAttempt(may_elide);
  const AbortStatus status = htx.Execute([&] {
    for (uint64_t k = lo; k < hi; ++k) body(htxn, k);
  });
  return FusedAttemptResult{status, htxn.ops()};
}

/// Accounting for a committed fused region: every item counts as one
/// H-class commit (Fig. 15 parity with the per-item path) plus the
/// fusion packaging counters and the width / depth histograms.
template <typename Worker>
inline void RecordFusedCommit(Worker& w, uint32_t width, uint32_t depth,
                              uint64_t ops) {
  w.stats.RecordFusedCommit(width, ops);
  w.telemetry.FusedCommit(width, depth);
}

/// Accounting for an aborted fused region that is about to be bisected:
/// one fusion abort + one bisection, with the abort *reason* classified
/// through the same RecordHtmAbort path the per-item loops use.
template <typename Worker>
inline HtmAttemptVerdict RecordFusedAbort(Worker& w,
                                          const AbortStatus& status) {
  ++w.stats.fusion_aborts;
  ++w.stats.fusion_bisections;
  return RecordHtmAbort(w, status);
}

/// Scope guard releasing a progress guard's per-slot escalation state
/// (starved bit, token) on every exit from the L retry loop — including
/// a foreign exception unwinding out mid-escalation.
class ProgressDoneGuard {
 public:
  ProgressDoneGuard(ProgressGuard* guard, int slot)
      : guard_(guard), slot_(slot) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(ProgressDoneGuard);
  ~ProgressDoneGuard() {
    if (guard_ != nullptr) guard_->OnTxnDone(slot_);
  }

 private:
  ProgressGuard* guard_;
  const int slot_;
};

/// Holds a TicketGate from construction until Release() or scope exit
/// (null gate: no-op), so a user abort or a foreign exception unwinding
/// out of the L retry loop cannot leak it.
class GateHold {
 public:
  explicit GateHold(TicketGate* gate) : gate_(gate) {
    if (gate_ != nullptr) gate_->Enter();
  }
  TUFAST_DISALLOW_COPY_AND_MOVE(GateHold);
  ~GateHold() { Release(); }
  void Release() {
    if (gate_ != nullptr) gate_->Leave();
    gate_ = nullptr;
  }

 private:
  TicketGate* gate_;
};

/// One victim abort in the L retry loop: escalate through the progress
/// guard's ladder (recording what happened) and pay the retry backoff.
/// Must run after the victim released its lock set.
template <typename Worker>
inline void OnLockVictimAbort(Worker& w, const ProgressContext& ctx,
                              uint32_t aborts) {
  if (ctx.guard != nullptr) {
    RecordEscalation(w, ctx.guard->OnAbort(ctx.slot, aborts));
  }
  PayBackoff(w, aborts - 1);
}

/// Group-commit acknowledgment + stats drain for one committed TuFast
/// transaction that published WAL records (null `wal` = durability off,
/// returns at once). Runs after every lock / ownership release but
/// before Run() returns: the fsync is the slow part, and group commit
/// exists precisely so contending workers never serialize on it —
/// Commit() returns immediately when another worker's flush already
/// covered this sequence number.
template <typename Worker>
inline void AccountWalCommit(Worker& w, WalRecorder* wal) {
  if (wal == nullptr || wal->published_records == 0) return;
  if (wal->sink() != nullptr) wal->sink()->Commit(wal->last_seq);
  w.stats.wal_records += wal->published_records;
  w.stats.wal_bytes += wal->published_bytes;
  wal->published_records = 0;
  wal->published_bytes = 0;
}

/// Two-phase-locking retry loop shared by TuFast's L mode and the 2PL
/// baseline: run the body on `ltxn`, commit-and-release, restart with
/// randomized exponential backoff when picked as a deadlock victim,
/// escalating through the progress guard (ctx.guard) so every
/// transaction keeps a bounded path to commit. With ctx.gate (TuFast)
/// the loop first waits its turn at the gate, holding no locks, and
/// keeps it across victim retries; the wait counts as L time.
///
/// Exception safety: ANY exception leaving the body — not just the TM
/// control signals — releases the whole lock set (LockReleaseGuard),
/// drops escalation state (ProgressDoneGuard) and then leaves the gate
/// (GateHold) before propagating.
///
/// `FailpointsT` threads the fault-injection policy in for the forced
/// re-victimization site (kVictimReabort); pass the scheduler's policy
/// explicitly — the default NullFailpoints keeps legacy call sites
/// injection-free.
template <typename FailpointsT = NullFailpoints, typename Worker,
          typename LockTxn, typename Fn>
RunOutcome RunLockTxnLoop(Worker& w, LockTxn& ltxn, Fn& fn, TxnClass cls,
                          ProgressContext ctx = {}) {
  w.telemetry.EnterMode(SchedMode::kLock);
  GateHold gate(ctx.gate);
  uint32_t aborts = ctx.prior_aborts;
  ProgressDoneGuard done(ctx.guard, ctx.slot);
  while (true) {
    BeatAttempt(w);
    if constexpr (FailpointsT::kEnabled) {
      // Forced extra victim abort (stress: adversarial re-victimization)
      // — protected slots are immune, exactly like real victim selection.
      if ((ctx.guard == nullptr || !ctx.guard->Protected(ctx.slot)) &&
          FailpointsT::Hit(FailSite::kVictimReabort, ctx.slot) ==
              FailAction::kFail) {
        RecordAttemptAbort(w, AbortReason::kDeadlock);
        OnLockVictimAbort(w, ctx, ++aborts);
        continue;
      }
      // Forced escalation straight to the top of the ladder.
      if (ctx.guard != nullptr &&
          FailpointsT::Hit(FailSite::kStarvationToken, ctx.slot) ==
              FailAction::kFail) {
        RecordEscalation(w, ctx.guard->ForceEscalate(ctx.slot));
      }
    }
    ltxn.Reset();
    LockReleaseGuard<LockTxn> release(ltxn);
    try {
      fn(ltxn);
      ltxn.CommitApplyAndRelease();
      release.Dismiss();  // Commit already released everything.
      // Leave the gate before the durability wait, so the next L
      // transaction's commit can share this one's fsync.
      gate.Release();
      // Ack barrier: no locks held. A null recorder (WAL off, and always
      // on 2PL) returns at once.
      AccountWalCommit(w, ltxn.wal_recorder());
      return RecordTxnCommit(w, cls, ltxn.ops(), aborts);
    } catch (const UserAbortSignal&) {
      // LockReleaseGuard frees the lock set on unwind.
      return RecordTxnUserAbort(w, cls, aborts);
    } catch (const DeadlockVictimSignal&) {
      // Free the lock set NOW — escalation and backoff must run with no
      // locks held (the guard dtor would only fire at scope end).
      ltxn.ReleaseAll();
      RecordAttemptAbort(w, AbortReason::kDeadlock);
      OnLockVictimAbort(w, ctx, ++aborts);
    }
  }
}

/// Whether an HTM backend's Tx exposes the commit hooks TuFast's H-mode
/// MVCC install and WAL publish need (EmulatedHtm does; a native backend
/// without hooks still runs every configuration with both layers off).
template <typename Htm>
inline constexpr bool kHtmTxHasCommitHooks =
    requires(typename Htm::Tx& tx) { tx.SetHooks(typename Htm::Tx::Hooks{}); };

/// HTM-path commit plumbing for TuFast's H mode (fused windows included),
/// the one hardware path with MVCC and WAL support; O and L commits
/// publish through PublishBufferedWrites (tm/modes.h) instead. Two
/// independent consumers hang off the same three hook points:
///
///  - MVCC (store + recorder non-null): the hardware context records
///    (vertex, addr) on every Write and pre_publish turns the recording
///    into version-chain nodes — pre-images are read from live memory
///    between pre_publish and the write-back flush, when the region is
///    doomed-checked but not yet published.
///  - WAL (wal non-null): transaction bodies Note() their graph
///    mutations and post_publish appends them to the log's group-commit
///    buffer as one record — after the write-back flush (so waiting on
///    the log mutex never widens the window where a committed
///    transaction's values are still buffered and invisible to software
///    peers) but still inside the ownership window (conflicting
///    transactions wait for the full release), so log order matches
///    commit order. The recorder's hw_armed flag scopes this to hardware
///    transactions: O mode shares the same Tx for its segment commits,
///    and those must neither clear nor publish the software
///    transaction's staged notes.
///
/// on_begin clears residue from aborted attempts; the empty checks make
/// commits that wrote nothing free. Hooks are installed only when at
/// least one consumer is on, so the off-configuration stays bit-identical
/// to a build with no hooks at all.
template <typename Store>
struct CommitHookCtx {
  Store* store = nullptr;           // MVCC: null = off
  MvccRecorder* recorder = nullptr; // non-null iff store is
  WalRecorder* wal = nullptr;       // WAL: null = off
  int slot = 0;
};

template <typename Tx, typename Store>
inline void InstallCommitHooks(Tx& htx, CommitHookCtx<Store>& ctx) {
  typename Tx::Hooks hooks;
  hooks.on_begin = [](void* c) {
    auto* h = static_cast<CommitHookCtx<Store>*>(c);
    if (h->recorder != nullptr) h->recorder->Clear();
    if (h->wal != nullptr && h->wal->hw_armed) h->wal->Clear();
  };
  hooks.pre_publish = [](void* c) {
    auto* h = static_cast<CommitHookCtx<Store>*>(c);
    if (h->store != nullptr && !h->recorder->empty()) {
      h->store->BeginInstall(h->slot, h->recorder->writes(),
                             [](const MvccWrite& w) { return w; });
    }
  };
  hooks.post_publish = [](void* c) {
    auto* h = static_cast<CommitHookCtx<Store>*>(c);
    if (h->store != nullptr) {
      h->store->EndInstall(h->slot);
      h->recorder->Clear();
    }
    if (h->wal != nullptr && h->wal->hw_armed && !h->wal->empty()) {
      h->wal->Publish();
    }
  };
  hooks.ctx = &ctx;
  htx.SetHooks(hooks);
}

/// MVCC read-only runner behind TuFastScheduler::RunReadOnly() once its
/// version store exists: executes `fn` against an abort-free
/// snapshot transaction with heartbeat accounting (MvccCounters count
/// the snapshots and their reads).
/// `outcome.aborts` is 0 by construction — snapshot reads never enter
/// the conflict space.
template <typename Store, typename Worker, typename Fn>
RunOutcome RunSnapshotReadOnly(Store& store, Worker& w, int slot, Fn& fn) {
  BeatAttempt(w);
  BasicMvccSnapshotTxn<Store> txn(store, slot);
  try {
    fn(txn);
  } catch (const UserAbortSignal&) {
    // The only way out without committing; the txn destructor has
    // already unpinned the snapshot.
    ++w.stats.user_aborts;
    return RunOutcome{false, TxnClass::kH, 0};
  }
  const uint64_t ops = txn.ops();
  txn.Finish();
  BeatCommit(w);
  return RunOutcome{true, TxnClass::kH, ops};
}

/// Software-optimistic retry loop shared by the Silo, TO and TinySTM
/// baselines: reset, run the body, validate/commit; on a scheduler abort
/// signal roll back and retry after a short randomized backoff.
///
/// `AbortSignal` is the scheduler's internal conflict exception.
/// `reset(txn)` prepares one attempt (e.g. draws a fresh timestamp);
/// `try_commit(txn)` returns commit success; `rollback(txn)` undoes
/// encounter-time side effects (no-op for most). `prior_aborts` counts
/// attempts the transaction already failed on another path (H-TO's
/// hardware attempts), so its one retry sample covers them.
template <typename AbortSignal, typename Worker, typename Txn, typename Fn,
          typename ResetFn, typename CommitFn, typename RollbackFn>
RunOutcome RunOptimisticRetryLoop(Worker& w, Txn& txn, Fn& fn, ResetFn reset,
                                  CommitFn try_commit, RollbackFn rollback,
                                  uint32_t prior_aborts = 0) {
  w.telemetry.EnterMode(SchedMode::kOptimistic);
  uint32_t aborts = prior_aborts;
  while (true) {
    BeatAttempt(w);
    reset(txn);
    try {
      fn(txn);
      if (try_commit(txn)) {
        return RecordTxnCommit(w, TxnClass::kO, txn.ops(), aborts);
      }
      RecordAttemptAbort(w, AbortReason::kValidation);
    } catch (const UserAbortSignal&) {
      rollback(txn);
      return RecordTxnUserAbort(w, TxnClass::kO, aborts);
    } catch (const AbortSignal&) {
      rollback(txn);
      RecordAttemptAbort(w, AbortReason::kConflict);
    } catch (...) {
      // Foreign exception from the body: undo encounter-time side
      // effects (TinySTM holds write locks mid-body) before propagating.
      rollback(txn);
      throw;
    }
    ++aborts;
    RetryBackoff(w.rng);
  }
}

}  // namespace tufast

#endif  // TUFAST_TM_WORKER_RUNTIME_H_
