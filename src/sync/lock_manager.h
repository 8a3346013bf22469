#ifndef TUFAST_SYNC_LOCK_MANAGER_H_
#define TUFAST_SYNC_LOCK_MANAGER_H_

#include "common/failpoints.h"
#include "common/spin.h"
#include "common/types.h"
#include "sync/lock_table.h"
#include "sync/progress_signals.h"

namespace tufast {

/// Blocking lock acquisition for L-mode transactions, on top of the
/// shared try-lock LockTable. One rule resolves deadlocks for both users
/// (TuFast's L mode and the 2PL baseline): a wait longer than a short
/// bound makes the waiter a timeout victim. Acquire* then returns false,
/// and the caller must release everything it holds and restart the
/// transaction. TuFast's L mode cannot deadlock at all (its L gate admits
/// one transaction at a time; H and O never wait), so there the bound
/// only ends an overlong wait on an O commit window.
template <typename Htm>
class LockManager {
 public:
  using Failpoints = HtmFailpoints<Htm>;

  explicit LockManager(LockTable<Htm>& table) : table_(table) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(LockManager);

  LockTable<Htm>& table() { return table_; }

  /// Telemetry callback fired on the victim's own thread whenever an
  /// Acquire*/Upgrade picks the caller as victim (its wait bound expired,
  /// or a failpoint forced it). Cold path only — the check sits behind
  /// lock-acquisition failure, so registering no callback (the
  /// NullTelemetry build) costs one untaken branch per victim abort.
  using VictimCallback = void (*)(void* ctx, int slot, VertexId vertex);
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
  /// skipped by injected victim failpoints. While the token is held by
  /// another slot, waiters get a short deferral bound so they abort
  /// early, release their lock sets, and let the token holder (whose own
  /// bound is extended) drain the conflict.
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

  /// Upgrades a held shared lock to exclusive. On failure (victim) the
  /// shared lock is STILL HELD; the caller releases it during transaction
  /// abort as usual.
  bool Upgrade(int slot, VertexId v) {
    if constexpr (Failpoints::kEnabled) {
      // Forced victim before any state change: the shared registration is
      // untouched, exactly the "shared lock still held" failure contract.
      // Protected (starved/token-holding) slots are immune to injection —
      // that immunity is what bounds a transaction's injected re-aborts.
      if (!Protected(slot) &&
          Failpoints::Hit(FailSite::kLockUpgrade, slot) ==
              FailAction::kFail) {
        NotifyVictim(slot, v);
        return false;
      }
    }
    const auto try_upgrade = [&] { return table_.TryUpgrade(v); };
    return try_upgrade() || WaitFor(slot, v, try_upgrade);
  }

  void ReleaseShared(VertexId v) { table_.UnlockShared(v); }
  void ReleaseExclusive(VertexId v) { table_.UnlockExclusive(v); }

 private:
  // Deadlock recovery by timeout: a waiter past this many pauses (a few
  // ms of yielding) aborts as victim and its transaction retries.
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

  bool Protected(int slot) const {
    return progress_ != nullptr && progress_->IsProtected(slot);
  }

  uint64_t WaitBoundFor(int slot) const {
    if (progress_ != nullptr) {
      if (progress_->TokenHolder() == slot) return kProtectedWaitIterations;
      if (!progress_->IsStarved(slot) &&
          progress_->TokenHeldElsewhere(slot)) {
        return kDeferralWaitIterations;
      }
    }
    return kTimeoutWaitIterations;
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
        NotifyVictim(slot, v);
        return false;
      }
    }
    return try_lock() || WaitFor(slot, v, try_lock);
  }

  /// Waits for the lock on `v` that `try_lock` just failed to take; false
  /// (victim hook fired) when the slot's wait bound expires.
  template <typename TryFn>
  bool WaitFor(int slot, VertexId v, TryFn&& try_lock) {
    Backoff backoff;
    uint64_t waited = 0;
    const uint64_t bound = WaitBoundFor(slot);
    while (!try_lock()) {
      if (++waited > bound) {
        NotifyVictim(slot, v);
        return false;
      }
      backoff.Pause();
    }
    return true;
  }

  void NotifyVictim(int slot, VertexId v) {
    if (victim_callback_ != nullptr) victim_callback_(victim_ctx_, slot, v);
  }

  LockTable<Htm>& table_;
  VictimCallback victim_callback_ = nullptr;
  void* victim_ctx_ = nullptr;
  const ProgressSignals* progress_ = nullptr;
};

}  // namespace tufast

#endif  // TUFAST_SYNC_LOCK_MANAGER_H_
