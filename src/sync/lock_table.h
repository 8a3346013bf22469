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
/// to them with a transactional load: every successful acquisition then
/// dooms subscribed hardware transactions via Htm::NotifyNonTxWrite —
/// with the native backend the CAS itself does this through cache
/// coherence. Dense layout: 8 lock words per cache line, so a fused
/// batch window that touches neighboring vertices subscribes 8 words
/// with one line.
///
/// Held word (DESIGN.md "Lock elision"): one more TmWord, alone on its
/// cache line, counts the vertex locks held across the whole table —
/// each shared holder and each exclusive holder counts one. While the
/// count is 0 an H or O hardware transaction subscribes this one word
/// (SubscribeNoneHeld, through Tx::Subscribe; a 0→1 step notifies with
/// Htm::NotifySubscribers) instead of one lock word per vertex. Every lock
/// operation below keeps the count, so no caller can take a lock the
/// count misses: acquisitions count before the CAS that makes the lock
/// visible, releases uncount after the word is released and notified.
/// Layout: bits 0..30 = held count, bit 31 = the notify of the current
/// episode is still in flight, bits 32..63 = lock episodes started (0→1
/// steps of the count).
///
/// Only try-lock acquisition lives here; blocking waits and victim
/// selection are LockManager's job (L mode only — H/O never wait, paper
/// §IV-E).
template <typename Htm>
class LockTable {
 public:
  using Failpoints = HtmFailpoints<Htm>;

  static constexpr TmWord kExclusiveBit = TmWord{1} << 31;
  static constexpr TmWord kHeldCountMask = (TmWord{1} << 31) - 1;
  static constexpr TmWord kHeldNotifying = TmWord{1} << 31;
  static constexpr TmWord kHeldEpisode = TmWord{1} << 32;

  LockTable(Htm& htm, size_t num_vertices)
      : htm_(htm), words_(num_vertices, 0) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(LockTable);

  size_t size() const { return words_.size(); }

  /// Address of the lock word, for transactional subscription.
  const TmWord* WordAddr(VertexId v) const { return &words_[v]; }

  /// Compatibility predicates over a subscribed word value.
  static bool SharedCompatible(TmWord word) {
    return (word & kExclusiveBit) == 0;
  }
  static bool Free(TmWord word) { return word == 0; }

  bool TryLockShared(VertexId v) {
    TmWord expected = __atomic_load_n(&words_[v], __ATOMIC_RELAXED);
    if (!SharedCompatible(expected)) return false;
    CountHeld();
    while (SharedCompatible(expected)) {
      if (__atomic_compare_exchange_n(&words_[v], &expected, expected + 1,
                                      /*weak=*/false, __ATOMIC_ACQUIRE,
                                      __ATOMIC_RELAXED)) {
        htm_.NotifyNonTxWrite(&words_[v]);
        return true;
      }
    }
    UncountHeld();
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
    if (!Free(__atomic_load_n(&words_[v], __ATOMIC_RELAXED))) return false;
    CountHeld();
    TmWord expected = 0;
    if (__atomic_compare_exchange_n(&words_[v], &expected, kExclusiveBit,
                                    /*weak=*/false, __ATOMIC_ACQUIRE,
                                    __ATOMIC_RELAXED)) {
      htm_.NotifyNonTxWrite(&words_[v]);
      return true;
    }
    UncountHeld();
    return false;
  }

  /// Shared -> exclusive upgrade; succeeds only for a sole shared holder.
  /// The holder keeps its one count.
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
    if (__atomic_compare_exchange_n(&words_[v], &expected, kExclusiveBit,
                                    /*weak=*/false, __ATOMIC_ACQUIRE,
                                    __ATOMIC_RELAXED)) {
      htm_.NotifyNonTxWrite(&words_[v]);
      return true;
    }
    return false;
  }

  void UnlockShared(VertexId v) {
    const TmWord prev = __atomic_fetch_sub(&words_[v], 1, __ATOMIC_RELEASE);
    TUFAST_DCHECK((prev & kExclusiveBit) == 0 && (prev & ~kExclusiveBit) > 0);
    htm_.NotifyNonTxWrite(&words_[v]);
    UncountHeld();
  }

  void UnlockExclusive(VertexId v) {
    TUFAST_DCHECK(__atomic_load_n(&words_[v], __ATOMIC_RELAXED) ==
                  kExclusiveBit);
    __atomic_store_n(&words_[v], 0, __ATOMIC_RELEASE);
    htm_.NotifyNonTxWrite(&words_[v]);
    UncountHeld();
  }

  /// Current raw word (non-transactional): for O-mode validation.
  TmWord LoadWord(VertexId v) const {
    return __atomic_load_n(&words_[v], __ATOMIC_ACQUIRE);
  }

  /// The held word (non-transactional): the router compares it across a
  /// worker's attempts to see foreign lock episodes.
  TmWord HeldWord() const {
    return __atomic_load_n(&held_.word, __ATOMIC_ACQUIRE);
  }
  uint32_t HeldCount() const {
    return static_cast<uint32_t>(HeldWord() & kHeldCountMask);
  }
  const TmWord* HeldWordAddr() const { return &held_.word; }

  /// Lock elision for the hardware transaction `htx` is in: true only if
  /// both a plain load and a subscription (Tx::Subscribe) of the held
  /// word read a count of 0. Then `htx` has subscribed the held word, the
  /// next lock episode dooms it before any lock becomes visible, and the
  /// caller may skip its per-vertex lock-word loads. The plain load first
  /// keeps a busy table from costing a subscription.
  template <typename Tx>
  bool SubscribeNoneHeld(Tx& htx) const {
    if ((HeldWord() & kHeldCountMask) != 0) return false;
    return (htx.Subscribe(&held_.word) & kHeldCountMask) == 0;
  }

 private:
  /// Counts one more held lock, before the caller's CAS makes it visible.
  /// A 0→1 step starts an episode: it bumps the episode bits and dooms
  /// every transaction subscribed to the held word. Until that notify is
  /// done, kHeldNotifying stays set and any locker that counts in the
  /// meantime notifies too, so no lock can become visible while a
  /// subscriber that read a count of 0 is still alive.
  void CountHeld() {
    TmWord seen = __atomic_load_n(&held_.word, __ATOMIC_RELAXED);
    TmWord next;
    do {
      next = (seen & kHeldCountMask) == 0
                 ? seen + 1 + kHeldNotifying + kHeldEpisode
                 : seen + 1;
    } while (!__atomic_compare_exchange_n(&held_.word, &seen, next,
                                          /*weak=*/true, __ATOMIC_SEQ_CST,
                                          __ATOMIC_RELAXED));
    if ((next & kHeldNotifying) == 0) return;
    htm_.NotifySubscribers(&held_.word);
    if ((seen & kHeldCountMask) == 0) {
      __atomic_fetch_sub(&held_.word, kHeldNotifying, __ATOMIC_SEQ_CST);
    }
  }

  /// A subscriber that read a non-zero count took the per-vertex path,
  /// so a decrement needs no notify.
  void UncountHeld() {
    const TmWord prev = __atomic_fetch_sub(&held_.word, 1, __ATOMIC_RELEASE);
    TUFAST_DCHECK((prev & kHeldCountMask) > 0);
  }

  struct alignas(kCacheLineBytes) HeldLine {
    TmWord word = 0;
  };

  Htm& htm_;
  std::vector<TmWord> words_;
  HeldLine held_;
};

}  // namespace tufast

#endif  // TUFAST_SYNC_LOCK_TABLE_H_
