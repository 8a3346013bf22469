#ifndef TUFAST_SYNC_LOCK_MANAGER_H_
#define TUFAST_SYNC_LOCK_MANAGER_H_

#include "common/failpoints.h"
#include "common/spin.h"
#include "common/types.h"
#include "sync/lock_table.h"

namespace tufast {

/// Blocking lock acquisition for L-mode transactions, on top of the
/// shared try-lock LockTable. One rule resolves deadlocks for both users
/// (TuFast's L mode and the 2PL baseline): a waiter past
/// kTimeoutWaitIterations pauses is a timeout victim. Acquire* then
/// returns false, and the caller must release everything it holds and
/// restart the transaction. TuFast's L mode cannot deadlock at all (its
/// L gate admits one transaction at a time; H and O never wait), so there
/// the bound only ends an overlong wait on an O commit window.
template <typename Htm>
class LockManager {
 public:
  using Failpoints = HtmFailpoints<Htm>;

  explicit LockManager(LockTable<Htm>& table) : table_(table) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(LockManager);

  LockTable<Htm>& table() { return table_; }

  bool AcquireShared(int slot, VertexId v) {
    return AcquireLoop(slot, [&] { return table_.TryLockShared(v); },
                       FailSite::kLockAcquireShared);
  }

  bool AcquireExclusive(int slot, VertexId v) {
    return AcquireLoop(slot, [&] { return table_.TryLockExclusive(v); },
                       FailSite::kLockAcquireExclusive);
  }

  /// Upgrades a held shared lock to exclusive. On failure (victim) the
  /// shared lock is STILL HELD; the caller releases it during transaction
  /// abort as usual.
  bool Upgrade(int slot, VertexId v) {
    if constexpr (Failpoints::kEnabled) {
      // Forced victim before any state change: the shared registration is
      // untouched, exactly the "shared lock still held" failure contract.
      if (Failpoints::Hit(FailSite::kLockUpgrade, slot) == FailAction::kFail) {
        return false;
      }
    }
    const auto try_upgrade = [&] { return table_.TryUpgrade(v); };
    return try_upgrade() || WaitFor(try_upgrade);
  }

  void ReleaseShared(VertexId v) { table_.UnlockShared(v); }
  void ReleaseExclusive(VertexId v) { table_.UnlockExclusive(v); }

 private:
  // Deadlock recovery by timeout: a waiter past this many pauses (a few
  // ms of yielding) aborts as victim and its transaction retries.
  static constexpr uint64_t kTimeoutWaitIterations = 3000;

  template <typename TryFn>
  bool AcquireLoop(int slot, TryFn&& try_lock, FailSite site) {
    if constexpr (Failpoints::kEnabled) {
      // Forced victim before any acquisition: the caller must release its
      // whole lock set and restart, the same contract as a real victim.
      if (Failpoints::Hit(site, slot) == FailAction::kFail) return false;
    }
    return try_lock() || WaitFor(try_lock);
  }

  /// Waits for the lock that `try_lock` just failed to take; false (the
  /// caller is a timeout victim) when the wait bound expires.
  template <typename TryFn>
  static bool WaitFor(TryFn&& try_lock) {
    Backoff backoff;
    uint64_t waited = 0;
    while (!try_lock()) {
      if (++waited > kTimeoutWaitIterations) return false;
      backoff.Pause();
    }
    return true;
  }

  LockTable<Htm>& table_;
};

}  // namespace tufast

#endif  // TUFAST_SYNC_LOCK_MANAGER_H_
