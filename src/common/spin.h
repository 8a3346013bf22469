#ifndef TUFAST_COMMON_SPIN_H_
#define TUFAST_COMMON_SPIN_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/compiler.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tufast {

/// One CPU "pause"/relax hint for busy-wait loops.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Exponential-ish backoff for spin loops. Crucial on oversubscribed
/// machines (this host has a single core): after a few pause iterations
/// we must yield the timeslice or lock holders never run.
class Backoff {
 public:
  Backoff() = default;

  void Pause() {
    if (spins_ < kSpinsBeforeYield) {
      ++spins_;
      for (int i = 0; i < (1 << (spins_ < 6 ? spins_ : 6)); ++i) CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }

  void Reset() { spins_ = 0; }

  /// Number of Pause() calls so far; callers use this to bound waits.
  uint64_t count() const { return spins_; }

 private:
  static constexpr uint64_t kSpinsBeforeYield = 10;
  uint64_t spins_ = 0;
};

/// Tiny test-and-test-and-set spinlock with yield-aware backoff.
/// Used for short critical sections only (line-table entries, stats).
class SpinLock {
 public:
  SpinLock() = default;
  TUFAST_DISALLOW_COPY_AND_MOVE(SpinLock);

  void Lock() {
    Backoff backoff;
    while (true) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      while (locked_.load(std::memory_order_relaxed)) backoff.Pause();
    }
  }

  bool TryLock() {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void Unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

/// RAII guard for SpinLock.
class SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& lock) : lock_(lock) { lock_.Lock(); }
  ~SpinLockGuard() { lock_.Unlock(); }
  TUFAST_DISALLOW_COPY_AND_MOVE(SpinLockGuard);

 private:
  SpinLock& lock_;
};

/// FIFO ticket gate admitting one holder at a time: Enter() draws the
/// next ticket and waits for its turn, Leave() serves the next ticket.
/// TuFast puts every L-mode transaction behind one (DESIGN.md "L mode").
/// Waiters are served in arrival order, so none starves; the holder's
/// Leave() is a plain store, since only the holder advances `serving_`.
class TicketGate {
 public:
  TicketGate() = default;
  TUFAST_DISALLOW_COPY_AND_MOVE(TicketGate);

  void Enter() {
    const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    Backoff backoff;
    while (serving_.load(std::memory_order_acquire) != ticket) {
      backoff.Pause();
    }
  }

  void Leave() {
    serving_.store(serving_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  }

  /// True while a holder is inside or a waiter is queued (tests).
  bool Busy() const {
    return next_.load(std::memory_order_acquire) !=
           serving_.load(std::memory_order_acquire);
  }

 private:
  alignas(64) std::atomic<uint64_t> next_{0};
  alignas(64) std::atomic<uint64_t> serving_{0};
};

}  // namespace tufast

#endif  // TUFAST_COMMON_SPIN_H_
