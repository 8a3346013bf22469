#ifndef TUFAST_SYNC_PROGRESS_SIGNALS_H_
#define TUFAST_SYNC_PROGRESS_SIGNALS_H_

#include <atomic>
#include <cstdint>

#include "htm/htm_config.h"

namespace tufast {

/// Cross-worker starvation flags shared between the TM-layer progress
/// guard (tm/progress_guard.h) and the lock substrate. Lives in sync/ so
/// LockManager can consult it for victim selection and wait bounds
/// without depending on the scheduler layer.
///
/// Two signals, both advisory and both only ever set by the worker they
/// describe (the guard escalates a transaction strictly while it holds
/// no locks, so reading them under the lock manager's wait loops cannot
/// deadlock with their publication):
///
///  * starved bit — the slot's current transaction crossed the first
///    escalation threshold. A starved slot is never picked as a forced
///    (injected) victim: wound-wait-style aging.
///  * starvation token — a single global slot id past the second
///    threshold. The holder is guaranteed to commit: every other waiter
///    gets a short deferral wait bound (abort early, release, back off),
///    and the batch executor pauses new fusion windows while the token
///    is held. At most one holder at a time, so the extra serialization
///    is bounded by the (rare) escalations, not by throughput.
class ProgressSignals {
 public:
  ProgressSignals() = default;

  void SetStarved(int slot) {
    starved_mask_.fetch_or(Bit(slot), std::memory_order_release);
  }
  void ClearStarved(int slot) {
    starved_mask_.fetch_and(~Bit(slot), std::memory_order_release);
  }
  bool IsStarved(int slot) const {
    return (starved_mask_.load(std::memory_order_acquire) & Bit(slot)) != 0;
  }
  bool AnyStarved() const {
    return starved_mask_.load(std::memory_order_acquire) != 0;
  }

  /// Claims the global token for `slot`. Returns true only on a fresh
  /// acquisition; false when any slot (including `slot`) already holds
  /// it, so callers can count acquisitions without double counting.
  bool TryAcquireToken(int slot) {
    int expected = kNoHolder;
    return token_slot_.compare_exchange_strong(expected, slot,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire);
  }

  /// Releases the token iff `slot` holds it (idempotent otherwise).
  void ReleaseToken(int slot) {
    int expected = slot;
    token_slot_.compare_exchange_strong(expected, kNoHolder,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
  }

  int TokenHolder() const {
    return token_slot_.load(std::memory_order_acquire);
  }
  bool TokenHeld() const { return TokenHolder() != kNoHolder; }
  bool TokenHeldElsewhere(int slot) const {
    const int holder = TokenHolder();
    return holder != kNoHolder && holder != slot;
  }

  /// A protected slot keeps its aged priority: it is skipped by injected
  /// victim failpoints.
  bool IsProtected(int slot) const {
    return IsStarved(slot) || TokenHolder() == slot;
  }

 private:
  static constexpr int kNoHolder = -1;
  static constexpr uint64_t Bit(int slot) {
    return uint64_t{1} << (slot & (kMaxHtmThreads - 1));
  }

  std::atomic<uint64_t> starved_mask_{0};
  std::atomic<int> token_slot_{kNoHolder};
};

}  // namespace tufast

#endif  // TUFAST_SYNC_PROGRESS_SIGNALS_H_
