#ifndef TUFAST_SYNC_LOCK_MANAGER_H_
#define TUFAST_SYNC_LOCK_MANAGER_H_

#include "common/failpoints.h"
#include "common/spin.h"
#include "common/types.h"
#include "sync/deadlock_graph.h"
#include "sync/lock_table.h"
#include "sync/progress_signals.h"

namespace tufast {

/// How L mode avoids deadlocks (paper §IV-E).
enum class DeadlockPolicy {
  /// Waits-for-graph cycle detection; the waiter that closes a cycle
  /// aborts. Safe for arbitrary access patterns (the default). Right for
  /// TuFast's L mode, whose transactions are rare and huge, so the
  /// per-acquire bookkeeping amortizes.
  kDetection,
  /// No detection: the user guarantees every transaction acquires vertices
  /// in one global order (e.g. ascending id over a neighbor scan), so
  /// cycles cannot form and the bookkeeping cost is saved.
  kPrevention,
  /// No bookkeeping; a wait that exceeds a short bound aborts the waiter
  /// (deadlock recovery by timeout). Right for 2PL over millions of tiny
  /// transactions, where per-acquire graph maintenance would dominate.
  kTimeout,
};

/// Blocking lock acquisition for L-mode transactions, on top of the
/// shared try-lock LockTable. Returns false from Acquire* when the caller
/// was picked as a deadlock victim (or a liveness bound expired): the
/// caller must release everything it holds and restart the transaction.
template <typename Htm>
class LockManager {
 public:
  using Failpoints = HtmFailpoints<Htm>;

  LockManager(LockTable<Htm>& table,
              DeadlockPolicy policy = DeadlockPolicy::kDetection)
      : table_(table), policy_(policy) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(LockManager);

  LockTable<Htm>& table() { return table_; }
  DeadlockPolicy policy() const { return policy_; }

  /// Telemetry callback fired on the victim's own thread whenever an
  /// Acquire*/Upgrade picks the caller as deadlock victim: `cycle` is
  /// true when waits-for cycle detection fired, false when a liveness
  /// wait bound expired (timeout recovery). Cold path only — the check
  /// sits behind lock-acquisition failure, so registering no callback (the
  /// NullTelemetry build) costs one untaken branch per victim abort.
  using VictimCallback = void (*)(void* ctx, int slot, VertexId vertex,
                                  bool cycle);
  void SetVictimCallback(VictimCallback callback, void* ctx) {
    victim_callback_ = callback;
    victim_ctx_ = ctx;
  }

  /// Wires the progress-guard starvation signals (DESIGN.md "Progress
  /// guard") into victim selection. Optional: with no signals installed
  /// (or none raised) every path below behaves exactly as before.
  ///
  /// A *protected* slot (starved past the first escalation threshold, or
  /// holding the global starvation token) ages wound-wait-style: it is
  /// skipped by injected victim failpoints, and the single slot with
  /// cycle priority (ProgressSignals::HasCyclePriority — token holder,
  /// else lowest-id starved slot) does not self-victimize when its wait
  /// edge would close a cycle; it keeps the edge, and the other parties
  /// find the cycle on their periodic re-checks and abort. While the
  /// token is held by another slot, waiters get a short deferral bound
  /// so they abort early, release their lock sets, and let the token
  /// holder (whose own bound is extended) drain the conflict.
  void SetProgressSignals(const ProgressSignals* signals) {
    progress_ = signals;
  }

  bool AcquireShared(int slot, VertexId v) {
    return AcquireLoop(slot, v, [&] { return table_.TryLockShared(v); },
                       /*exclusive=*/false);
  }

  bool AcquireExclusive(int slot, VertexId v) {
    return AcquireLoop(slot, v, [&] { return table_.TryLockExclusive(v); },
                       /*exclusive=*/true);
  }

  /// Upgrades a held shared lock to exclusive. On success the shared
  /// registration is replaced by an exclusive one. On failure (deadlock
  /// victim) the shared lock is STILL HELD; the caller releases it during
  /// transaction abort as usual.
  bool Upgrade(int slot, VertexId v) {
    if constexpr (Failpoints::kEnabled) {
      // Forced victim before any state change: the shared registration is
      // untouched, exactly the "shared lock still held" failure contract.
      // Protected (starved/token-holding) slots are immune to injection —
      // that immunity is what bounds a transaction's injected re-aborts.
      if (!Protected(slot) &&
          Failpoints::Hit(FailSite::kLockUpgrade, slot) ==
              FailAction::kFail) {
        NotifyVictim(slot, v, /*cycle=*/false);
        return false;
      }
    }
    const auto try_upgrade = [&] { return table_.TryUpgrade(v); };
    if (!try_upgrade() && !WaitFor(slot, v, try_upgrade)) return false;
    SwapHolderRegistration(slot, v);
    return true;
  }

  void ReleaseShared(int slot, VertexId v) {
    if (policy_ == DeadlockPolicy::kDetection) {
      graph_.RemoveHolder(v, slot, /*exclusive=*/false);
    }
    table_.UnlockShared(v);
  }

  void ReleaseExclusive(int slot, VertexId v) {
    if (policy_ == DeadlockPolicy::kDetection) {
      graph_.RemoveHolder(v, slot, /*exclusive=*/true);
    }
    table_.UnlockExclusive(v);
  }

 private:
  // Liveness bound: a stuck wait eventually turns into a victim abort
  // instead of hanging the worker forever (the transaction then retries).
  static constexpr uint64_t kMaxWaitIterations = 1u << 20;
  // kTimeout policy: short bound, since a timeout is the *only* deadlock
  // recovery there (roughly a few ms of yielding).
  static constexpr uint64_t kTimeoutWaitIterations = 3000;
  // Starvation-token holder: extended safety-net bound. The holder is
  // supposed to win every wait (other parties defer), so this only fires
  // if the progress machinery itself is wedged.
  static constexpr uint64_t kProtectedWaitIterations = 1u << 22;
  // Wait bound while another slot holds the starvation token: abort
  // early (timeout victim), release the lock set, back off — this is
  // what guarantees the token holder's next attempt runs against a
  // draining lock table.
  static constexpr uint64_t kDeferralWaitIterations = 2000;
  // Detection policy: how often a waiter re-checks its wait edge for a
  // cycle. Backoff yields from its 11th pause on, so a waiter in a cycle
  // leaves after a few dozen yields instead of the 2^20-pause bound.
  static constexpr uint64_t kCycleRecheckPauses = 16;

  uint64_t WaitBound() const {
    return policy_ == DeadlockPolicy::kTimeout ? kTimeoutWaitIterations
                                               : kMaxWaitIterations;
  }

  bool Protected(int slot) const {
    return progress_ != nullptr && progress_->IsProtected(slot);
  }

  // Cycle-closure immunity is narrower than injection immunity: only one
  // slot system-wide (token holder, else lowest-id starved slot) may
  // out-wait a cycle. Two mutually-immune waiters would each roll back
  // their wait edge — leaving no visible cycle and no victim — and then
  // re-collide after their full wait bounds in lockstep, a livelock.
  bool CyclePriority(int slot) const {
    return progress_ != nullptr && progress_->HasCyclePriority(slot);
  }

  uint64_t WaitBoundFor(int slot) const {
    if (progress_ != nullptr) {
      if (progress_->TokenHolder() == slot) return kProtectedWaitIterations;
      if (!progress_->IsStarved(slot) &&
          progress_->TokenHeldElsewhere(slot)) {
        const uint64_t bound = WaitBound();
        return bound < kDeferralWaitIterations ? bound
                                               : kDeferralWaitIterations;
      }
    }
    return WaitBound();
  }

  template <typename TryFn>
  bool AcquireLoop(int slot, VertexId v, TryFn&& try_lock, bool exclusive) {
    if constexpr (Failpoints::kEnabled) {
      // Forced victim before any acquisition: the caller must release its
      // whole lock set and restart, the same contract as a real victim.
      // Protected slots are immune (see SetProgressSignals): injection
      // cannot re-victimize a transaction past its escalation threshold.
      if (!Protected(slot) &&
          Failpoints::Hit(exclusive ? FailSite::kLockAcquireExclusive
                                    : FailSite::kLockAcquireShared,
                          slot) == FailAction::kFail) {
        NotifyVictim(slot, v, /*cycle=*/false);
        return false;
      }
    }
    if (!try_lock() && !WaitFor(slot, v, try_lock)) return false;
    if (policy_ == DeadlockPolicy::kDetection) {
      graph_.AddHolder(v, slot, exclusive);
    }
    return true;
  }

  /// Waits for the lock on `v` that `try_lock` just failed to take; false
  /// (victim hook fired) when the slot is picked as victim or its bound
  /// expires. Under detection the slot's wait edge stays registered for
  /// the whole wait. An edge that closes a cycle makes the slot the
  /// victim, unless it holds cycle priority: then it keeps the edge and
  /// out-waits the cycle, and the other parties, which re-check their own
  /// edges every kCycleRecheckPauses pauses, find it and leave as victims.
  template <typename TryFn>
  bool WaitFor(int slot, VertexId v, TryFn&& try_lock) {
    const bool detect = policy_ == DeadlockPolicy::kDetection;
    if (detect && graph_.SetWaitingAndCheck(
                      slot, v, /*keep_on_cycle=*/CyclePriority(slot))) {
      NotifyVictim(slot, v, /*cycle=*/true);
      return false;  // Waiting would close a cycle: we are the victim.
    }
    Backoff backoff;
    uint64_t waited = 0;
    const uint64_t bound = WaitBoundFor(slot);
    while (!try_lock()) {
      if (++waited > bound) {
        if (detect) graph_.ClearWaiting(slot);
        NotifyVictim(slot, v, /*cycle=*/false);
        return false;
      }
      if (detect && waited % kCycleRecheckPauses == 0 &&
          !CyclePriority(slot) && graph_.RecheckWaiting(slot)) {
        NotifyVictim(slot, v, /*cycle=*/true);
        return false;
      }
      backoff.Pause();
    }
    if (detect) graph_.ClearWaiting(slot);
    return true;
  }

  void SwapHolderRegistration(int slot, VertexId v) {
    if (policy_ == DeadlockPolicy::kDetection) {
      graph_.RemoveHolder(v, slot, /*exclusive=*/false);
      graph_.AddHolder(v, slot, /*exclusive=*/true);
    }
  }

  void NotifyVictim(int slot, VertexId v, bool cycle) {
    if (victim_callback_ != nullptr) {
      victim_callback_(victim_ctx_, slot, v, cycle);
    }
  }

  LockTable<Htm>& table_;
  const DeadlockPolicy policy_;
  DeadlockGraph graph_;
  VictimCallback victim_callback_ = nullptr;
  void* victim_ctx_ = nullptr;
  const ProgressSignals* progress_ = nullptr;
};

}  // namespace tufast

#endif  // TUFAST_SYNC_LOCK_MANAGER_H_
