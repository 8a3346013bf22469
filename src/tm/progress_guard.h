#ifndef TUFAST_TM_PROGRESS_GUARD_H_
#define TUFAST_TM_PROGRESS_GUARD_H_

#include <cstdint>

#include "common/spin.h"
#include "sync/progress_signals.h"

namespace tufast {

/// Progress-guard escalation ladder (DESIGN.md "Progress guard"). The
/// TM layer guarantees *safety* on any interleaving; this layer adds a
/// bounded path to commit for every transaction, per "Progressive
/// Transactional Memory in Time and Space" (Kuznetsov & Ravi):
///
///   aborts < priority_threshold   plain randomized exponential backoff;
///   aborts >= priority_threshold  the slot's starved bit ages its
///                                 priority: never an injected victim,
///                                 never a cycle-closure victim
///                                 (wound-wait-style, sync/lock_manager.h);
///   aborts >= token_threshold     the slot takes the global starvation
///                                 token: other waiters defer (short
///                                 wait bounds), new batch fusion pauses,
///                                 and the holder commits next attempt.
///
/// Retry bound argument: H attempts are bounded by the configured retry
/// budget, O attempts by log2(max_period) halvings, and L-mode victim
/// retries by token_threshold plus the bounded interference a token
/// holder can still see (waiters already inside their wait loops, at
/// most one per peer slot before the deferral bounds kick in) — so every
/// transaction's total failed attempts are bounded by a constant that
/// depends only on configuration, not on the adversary's schedule.
///
/// Escalation state transitions run strictly while the escalating worker
/// holds no locks (the L retry loop escalates after the victim released
/// its lock set), so the lock manager can read the signals from inside
/// its wait loops without ordering hazards.
class ProgressGuard {
 public:
  struct Config {
    /// Victim aborts after which the transaction's priority is aged
    /// (starved bit set).
    uint32_t priority_threshold = 3;
    /// Victim aborts after which the transaction takes the global
    /// starvation token.
    uint32_t token_threshold = 8;
    /// Master switch: disabled, every hook is a no-op and the signals
    /// stay clear forever.
    bool enabled = true;
  };

  explicit ProgressGuard(Config config) : config_(config) {}
  ProgressGuard() : ProgressGuard(Config{}) {}

  ProgressSignals& signals() { return signals_; }
  const ProgressSignals& signals() const { return signals_; }
  const Config& config() const { return config_; }

  bool Protected(int slot) const {
    return config_.enabled && signals_.IsProtected(slot);
  }

  /// What one escalation step did (callers record stats/telemetry).
  enum class Escalation : uint8_t { kNone = 0, kStarved, kToken };

  /// One victim abort for `slot`'s transaction, which has now failed
  /// `aborts` times total. Must be called while the slot holds no locks.
  Escalation OnAbort(int slot, uint32_t aborts) {
    if (!config_.enabled) return Escalation::kNone;
    if (aborts >= config_.token_threshold &&
        signals_.TryAcquireToken(slot)) {
      signals_.SetStarved(slot);
      return Escalation::kToken;
    }
    if (aborts == config_.priority_threshold) {
      signals_.SetStarved(slot);
      return Escalation::kStarved;
    }
    return Escalation::kNone;
  }

  /// Immediate escalation to the top of the ladder (the kStarvationToken
  /// failpoint; also exercised directly by tests).
  Escalation ForceEscalate(int slot) {
    if (!config_.enabled) return Escalation::kNone;
    const bool fresh_token = signals_.TryAcquireToken(slot);
    signals_.SetStarved(slot);
    return fresh_token ? Escalation::kToken : Escalation::kStarved;
  }

  /// The slot's transaction finished (commit, user abort, or a foreign
  /// exception unwinding out): drop any aged priority and the token.
  void OnTxnDone(int slot) {
    if (!config_.enabled) return;
    signals_.ClearStarved(slot);
    signals_.ReleaseToken(slot);
  }

 private:
  Config config_;
  ProgressSignals signals_;
};

/// Randomized exponential backoff between conflict retries, shared by
/// all three retry loops (H attempts, O period halvings, L victim
/// restarts). `attempt` is the number of failed attempts so far; the
/// window doubles with it up to 8 << 10 pauses. Returns the drawn pause
/// count so callers can feed the backoff telemetry counters. Determinism:
/// the only entropy is the worker's own seeded Rng, so a fixed seed
/// replays the exact pause sequence (TUFAST_STRESS_SEED).
template <typename RngT>
inline uint64_t ConflictBackoff(RngT& rng, uint32_t attempt) {
  const uint32_t shift = attempt < 10 ? attempt : 10;
  const uint64_t window = uint64_t{8} << shift;
  const uint64_t pauses = 1 + rng.NextBounded(window);
  Backoff backoff;
  for (uint64_t i = 0; i < pauses; ++i) backoff.Pause();
  return pauses;
}

/// Progress-guard context threaded into RunLockTxnLoop by the schedulers
/// that own a guard (TuFast's L mode, the 2PL baseline). The default
/// (guard == nullptr) runs the loop without escalation or failpoint-
/// driven re-victimization; victim retries always pay ConflictBackoff.
struct ProgressContext {
  ProgressGuard* guard = nullptr;
  /// Lock-manager slot of the worker (== worker id everywhere).
  int slot = 0;
  /// Failed attempts the transaction already accumulated in earlier
  /// modes (H/O), so the escalation ladder sees the whole transaction.
  uint32_t prior_aborts = 0;
};

}  // namespace tufast

#endif  // TUFAST_TM_PROGRESS_GUARD_H_
