#ifndef TUFAST_HTM_NATIVE_HTM_H_
#define TUFAST_HTM_NATIVE_HTM_H_

#include <atomic>
#include <cstdint>

#include "common/compiler.h"
#include "common/failpoints.h"
#include "htm/abort.h"
#include "htm/htm_config.h"

#if defined(TUFAST_HAVE_RTM)
#include <immintrin.h>
#endif

namespace tufast {

/// Real Intel RTM backend with the same surface as EmulatedHtm, so every
/// scheduler is instantiable on either. Conflict detection, buffering and
/// capacity limits are provided by hardware; Load/Store degrade to plain
/// memory accesses inside the transaction.
///
/// Use NativeHtm::Supported() before instantiating transactions: it
/// verifies both compile-time (-mrtm) and runtime (CPUID RTM bit,
/// transaction actually commits) support — many CPUs report RTM but have
/// it microcode-disabled, in which case every transaction aborts.
class NativeHtm {
 public:
  /// No software failpoints on real hardware: aborts come from the CPU.
  using Failpoints = NullFailpoints;

  explicit NativeHtm(HtmConfig config = {}) : config_(config) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(NativeHtm);

  class Tx;

  const HtmConfig& config() const { return config_; }

  /// True when RTM transactions can actually commit on this machine.
  /// Probes once (runs a trial transaction) and caches the answer.
  static bool Supported();

  void NonTxStore(TmWord* addr, TmWord value) {
    __atomic_store_n(addr, value, __ATOMIC_RELEASE);
  }

  /// Hardware handles the dooming via cache coherence; nothing to do.
  void NotifyNonTxWrite(const void* addr) { (void)addr; }
  /// The writer's RMW already aborted every reader of the line.
  void NotifySubscribers(const TmWord* addr) { (void)addr; }

  static TmWord NonTxLoad(const TmWord* addr) {
    return __atomic_load_n(addr, __ATOMIC_ACQUIRE);
  }

  /// A real XEND is atomic — no window where a committed transaction is
  /// still flushing — so the emulated backend's drain degenerates to a
  /// plain load here.
  TmWord DrainLoad(const TmWord* addr) { return NonTxLoad(addr); }

 private:
  HtmConfig config_;
};

class NativeHtm::Tx {
 public:
  Tx(NativeHtm& htm, int slot) : htm_(htm), slot_(slot) { (void)htm_; }
  TUFAST_DISALLOW_COPY_AND_MOVE(Tx);

  /// Runs `body` inside one RTM transaction. On abort the hardware rolls
  /// registers and memory back to the XBEGIN point and this returns the
  /// translated abort status. See EmulatedHtm::Tx::Execute for contract.
  template <typename Body>
  AbortStatus Execute(Body&& body) {
#if defined(TUFAST_HAVE_RTM)
    ++stats_.begins;
    const unsigned status = _xbegin();
    if (status == _XBEGIN_STARTED) {
      active_ = true;
      try {
        body();
      } catch (const TxAbortSignal& signal) {
        // Thrown only by SegmentBoundary after a hardware abort already
        // ended transactional execution, so unwinding here is safe.
        active_ = false;
        stats_.RecordAbort(signal.status);
        return signal.status;
      }
      if (active_) {
        _xend();
        active_ = false;
      }
      ++stats_.commits;
      return AbortStatus::Ok();
    }
    active_ = false;
    const AbortStatus translated = Translate(status);
    stats_.RecordAbort(translated);
    return translated;
#else
    (void)body;
    TUFAST_CHECK(false && "native RTM backend not compiled in");
#endif
  }

  TUFAST_ALWAYS_INLINE TmWord Load(const TmWord* addr) { return *addr; }
  /// A transactional read is already tracked in this core's own L1.
  TUFAST_ALWAYS_INLINE TmWord Subscribe(const TmWord* addr) { return *addr; }
  TUFAST_ALWAYS_INLINE void Store(TmWord* addr, TmWord value) {
    *addr = value;
  }

  void SegmentBoundary() {
#if defined(TUFAST_HAVE_RTM)
    _xend();
    active_ = false;
    ++stats_.begins;
    const unsigned status = _xbegin();
    if (status == _XBEGIN_STARTED) {
      active_ = true;
      return;
    }
    // The new segment aborted (control resumed here, outside any
    // transaction): unwind out of the body via the abort signal.
    throw TxAbortSignal{Translate(status)};
#endif
  }

  template <uint8_t kCode>
  [[noreturn]] void ExplicitAbort() {
#if defined(TUFAST_HAVE_RTM)
    _xabort(kCode);  // Rolls back to the XBEGIN when inside a transaction.
    // XABORT outside a transaction is a no-op; surface the abort anyway so
    // callers never fall through (Execute catches this).
    throw TxAbortSignal{AbortStatus::Explicit(kCode)};
#else
    TUFAST_CHECK(false && "native RTM backend not compiled in");
#endif
  }

  bool InTx() const { return active_; }
  int slot() const { return slot_; }
  const HtmStats& stats() const { return stats_; }
  void ResetStats() { stats_ = HtmStats{}; }
  uint32_t FootprintLines() const { return 0; }  // Hardware-internal.

 private:
#if defined(TUFAST_HAVE_RTM)
  static AbortStatus Translate(unsigned status) {
    if (status & _XABORT_CAPACITY) return AbortStatus::Capacity();
    if (status & _XABORT_EXPLICIT) {
      return AbortStatus::Explicit(_XABORT_CODE(status));
    }
    if (status & _XABORT_CONFLICT) return AbortStatus::Conflict();
    AbortStatus other = AbortStatus::Other();
    other.may_retry = (status & _XABORT_RETRY) != 0;
    return other;
  }
#endif

  NativeHtm& htm_;
  const int slot_;
  bool active_ = false;
  HtmStats stats_;
};

}  // namespace tufast

#endif  // TUFAST_HTM_NATIVE_HTM_H_
