#ifndef TUFAST_SYNC_LOCK_TABLE_H_
#define TUFAST_SYNC_LOCK_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/compiler.h"
#include "common/failpoints.h"
#include "common/types.h"
#include "htm/htm_config.h"

namespace tufast {

/// Per-vertex reader-writer lock words shared by all three TuFast modes
/// (paper §IV-A: the sub-schedulers are integrated into one HyTM by
/// sharing the same locks and metadata).
///
/// Word layout: bit 31 = exclusive flag, bits 0..30 = shared-holder count.
/// The words are plain TmWords so H/O-mode transactions can *subscribe*
/// to them with a transactional load (lock elision): every successful
/// acquisition then dooms subscribed hardware transactions via
/// Htm::NotifyNonTxWrite — with the native backend the CAS itself does
/// this through cache coherence.
///
/// Only try-lock acquisition lives here; blocking waits and deadlock
/// handling are LockManager's job (L mode only — H/O never wait, which is
/// why they need no deadlock detection, paper §IV-E).
///
/// Layout: dense by default (8 lock words per cache line — fused batch
/// windows that touch neighboring vertices then subscribe 8 words with
/// one line). `padded = true` spreads the words one per cache line,
/// trading 8x footprint for zero false sharing between adjacent
/// vertices' acquisitions — the right call for scattered high-contention
/// access patterns (see DESIGN.md "Batch executor").
template <typename Htm>
class LockTable {
 public:
  using Failpoints = HtmFailpoints<Htm>;

  static constexpr TmWord kExclusiveBit = TmWord{1} << 31;
  /// log2(lock words per cache line): padded mode strides by this.
  static constexpr unsigned kPadShift = 3;
  static_assert((sizeof(TmWord) << kPadShift) == kCacheLineBytes);

  LockTable(Htm& htm, size_t num_vertices, bool padded = false)
      : htm_(htm),
        shift_(padded ? kPadShift : 0),
        num_vertices_(num_vertices),
        words_(num_vertices << shift_, 0) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(LockTable);

  size_t size() const { return num_vertices_; }

  /// Address of the lock word, for transactional subscription.
  const TmWord* WordAddr(VertexId v) const { return &words_[Idx(v)]; }

  /// Compatibility predicates over a subscribed word value.
  static bool SharedCompatible(TmWord word) {
    return (word & kExclusiveBit) == 0;
  }
  static bool Free(TmWord word) { return word == 0; }

  bool TryLockShared(VertexId v) {
    TmWord expected = __atomic_load_n(&words_[Idx(v)], __ATOMIC_RELAXED);
    while (SharedCompatible(expected)) {
      if (__atomic_compare_exchange_n(&words_[Idx(v)], &expected, expected + 1,
                                      /*weak=*/false, __ATOMIC_ACQUIRE,
                                      __ATOMIC_RELAXED)) {
        htm_.NotifyNonTxWrite(&words_[Idx(v)]);
        return true;
      }
    }
    return false;
  }

  bool TryLockExclusive(VertexId v) {
    if constexpr (Failpoints::kEnabled) {
      // Synthesized contention: report "busy" without touching the word.
      // Exercises O-mode commit lock-busy retries and L-mode wait loops.
      if (Failpoints::Hit(FailSite::kLockTryExclusive, /*slot=*/-1) ==
          FailAction::kFail) {
        return false;
      }
    }
    TmWord expected = 0;
    if (__atomic_compare_exchange_n(&words_[Idx(v)], &expected, kExclusiveBit,
                                    /*weak=*/false, __ATOMIC_ACQUIRE,
                                    __ATOMIC_RELAXED)) {
      htm_.NotifyNonTxWrite(&words_[Idx(v)]);
      return true;
    }
    return false;
  }

  /// Shared -> exclusive upgrade; succeeds only for a sole shared holder.
  bool TryUpgrade(VertexId v) {
    if constexpr (Failpoints::kEnabled) {
      // Synthesized upgrade contention: behaves exactly like a second
      // shared holder showing up, the hard case of the upgrade protocol.
      if (Failpoints::Hit(FailSite::kLockTryUpgrade, /*slot=*/-1) ==
          FailAction::kFail) {
        return false;
      }
    }
    TmWord expected = 1;
    if (__atomic_compare_exchange_n(&words_[Idx(v)], &expected, kExclusiveBit,
                                    /*weak=*/false, __ATOMIC_ACQUIRE,
                                    __ATOMIC_RELAXED)) {
      htm_.NotifyNonTxWrite(&words_[Idx(v)]);
      return true;
    }
    return false;
  }

  void UnlockShared(VertexId v) {
    const TmWord prev = __atomic_fetch_sub(&words_[Idx(v)], 1, __ATOMIC_RELEASE);
    TUFAST_DCHECK((prev & kExclusiveBit) == 0 && (prev & ~kExclusiveBit) > 0);
    htm_.NotifyNonTxWrite(&words_[Idx(v)]);
  }

  void UnlockExclusive(VertexId v) {
    TUFAST_DCHECK(__atomic_load_n(&words_[Idx(v)], __ATOMIC_RELAXED) ==
                  kExclusiveBit);
    __atomic_store_n(&words_[Idx(v)], 0, __ATOMIC_RELEASE);
    htm_.NotifyNonTxWrite(&words_[Idx(v)]);
  }

  /// Current raw word (non-transactional): for O-mode validation.
  TmWord LoadWord(VertexId v) const {
    return __atomic_load_n(&words_[Idx(v)], __ATOMIC_ACQUIRE);
  }

 private:
  size_t Idx(VertexId v) const { return size_t{v} << shift_; }

  Htm& htm_;
  const unsigned shift_;
  const size_t num_vertices_;
  std::vector<TmWord> words_;
};

}  // namespace tufast

#endif  // TUFAST_SYNC_LOCK_TABLE_H_
