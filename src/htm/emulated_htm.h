#ifndef TUFAST_HTM_EMULATED_HTM_H_
#define TUFAST_HTM_EMULATED_HTM_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/compiler.h"
#include "common/failpoints.h"
#include "common/spin.h"
#include "htm/abort.h"
#include "htm/htm_config.h"

namespace tufast {

namespace htm_internal {

inline uint64_t NextPow2(uint64_t x) {
  return x <= 1 ? 1 : uint64_t{1} << (64 - std::countl_zero(x - 1));
}

inline uintptr_t LineOf(const void* addr) {
  return reinterpret_cast<uintptr_t>(addr) >> 6;
}

}  // namespace htm_internal

/// Software emulation of Intel RTM with the semantics TuFast depends on:
///
///  * conflict detection at 64-byte cache-line granularity, asymmetric
///    ("requester wins"): touching a line inside another live transaction's
///    footprint dooms that transaction;
///  * buffered transactional writes, atomically published at commit;
///  * capacity aborts from a set-associative L1 model (HtmConfig);
///  * non-transactional stores abort transactions subscribed to the line —
///    the property that makes lock subscription (H/O mode) correct;
///  * Intel-style abort status (AbortStatus) with conflict/capacity/
///    explicit causes and a may-retry hint.
///
/// All shared state that transactions touch must be read/written through
/// Tx::Load / Tx::Store while inside Tx::Execute, and through
/// NonTxStore / NonTxLoad outside transactions. This matches the TuFast
/// programming model where every shared access goes through READ/WRITE.
///
/// Thread model: up to kMaxHtmThreads worker threads, each owning one
/// `Tx` handle constructed with a distinct slot id in [0, kMaxHtmThreads).
///
/// Serializability: every write conflict (W-R, R-W, W-W at line
/// granularity) dooms the transaction that would break serial order, and
/// a committing transaction re-checks its doomed flag at its commit point
/// (seq_cst), so two committed transactions can never both have observed
/// state that contradicts a serial order (see DESIGN.md for the argument).
///
/// `FailpointsT` is the fault-injection policy (common/failpoints.h):
/// NullFailpoints by default (zero cost — `EmulatedHtm` below), or
/// StressFailpoints for the deterministic stress harness (`FaultyHtm`,
/// src/testing/failpoints.h), which can synthesize conflict/capacity
/// aborts at chosen operation indices and perturb thread schedules.
template <typename FailpointsT = NullFailpoints>
class BasicEmulatedHtm {
 public:
  using Failpoints = FailpointsT;

  explicit BasicEmulatedHtm(HtmConfig config = {}) : config_(config) {
    TUFAST_CHECK(std::has_single_bit(config_.num_sets));
    TUFAST_CHECK(config_.num_ways >= 1);
    const uint64_t table_size = uint64_t{1} << config_.table_bits;
    table_mask_ = table_size - 1;
    table_ = std::vector<LineEntry>(table_size);
  }
  TUFAST_DISALLOW_COPY_AND_MOVE(BasicEmulatedHtm);

  class Tx;

  const HtmConfig& config() const { return config_; }

  /// Non-transactional store visible to (and dooming) transactions that
  /// have the line in their footprint. Use for all shared writes made
  /// outside transactions (lock releases, O/L-mode commit writes).
  void NonTxStore(TmWord* addr, TmWord value) {
    LineEntry& e = EntryFor(htm_internal::LineOf(addr));
    Backoff backoff;
    while (true) {
      LockEntry(e);
      if (ClearForeignOwners(e, /*self_slot=*/-1)) {
        __atomic_store_n(addr, value, __ATOMIC_RELEASE);
        UnlockEntry(e);
        return;
      }
      const int16_t writer = e.writer.load(std::memory_order_relaxed);
      UnlockEntry(e);
      // Wait (yielding) for the doomed writer to abort or finish flushing.
      while (e.writer.load(std::memory_order_acquire) == writer) {
        backoff.Pause();
      }
    }
  }

  /// Dooms transactions subscribed to addr's line without storing. Call
  /// after mutating a shared word through some other atomic operation
  /// (e.g. a lock-word CAS).
  void NotifyNonTxWrite(const void* addr) {
    LineEntry& e = EntryFor(htm_internal::LineOf(addr));
    Backoff backoff;
    while (true) {
      LockEntry(e);
      if (ClearForeignOwners(e, /*self_slot=*/-1)) {
        UnlockEntry(e);
        return;
      }
      const int16_t writer = e.writer.load(std::memory_order_relaxed);
      UnlockEntry(e);
      while (e.writer.load(std::memory_order_acquire) == writer) {
        backoff.Pause();
      }
    }
  }

  /// Plain non-transactional load.
  static TmWord NonTxLoad(const TmWord* addr) {
    return __atomic_load_n(addr, __ATOMIC_ACQUIRE);
  }

  /// Non-transactional load that serializes with transactional WRITERS
  /// of addr's line: a writer past its commit point (it may already be
  /// flushing buffered values) is waited out so the load observes its
  /// write-back, and a writer before its commit point is doomed
  /// (requester-wins) so the value returned here can never be silently
  /// overwritten by an already-validated commit. Readers of the line are
  /// left untouched — this is the read-side counterpart of NonTxStore,
  /// for lock/metadata words that hardware paths write transactionally.
  /// The native backend uses a plain load (a real XEND is atomic; there
  /// is no window where a committed transaction is still flushing).
  TmWord DrainLoad(const TmWord* addr) {
    LineEntry& e = EntryFor(htm_internal::LineOf(addr));
    Backoff backoff;
    while (true) {
      LockEntry(e);
      const int16_t writer = e.writer.load(std::memory_order_relaxed);
      if (writer < 0 || !DoomWriterMustWait(writer)) {
        // No writer, or one doomed before its commit point: its buffered
        // write can never land, so current memory is committed state.
        const TmWord value = __atomic_load_n(addr, __ATOMIC_ACQUIRE);
        UnlockEntry(e);
        return value;
      }
      UnlockEntry(e);
      // Committing writer: wait (yielding) for its write-back to drain.
      while (e.writer.load(std::memory_order_acquire) == writer) {
        backoff.Pause();
      }
    }
  }

  /// Test seam: the writer slot (-1 for none) and reader bitmap of the
  /// line-table entry that `addr`'s line hashes to, read under its lock.
  std::pair<int16_t, uint64_t> LineOwnersForTest(const void* addr) const {
    const LineEntry& e =
        table_[HashLine(htm_internal::LineOf(addr)) & table_mask_];
    LockEntry(e);
    const std::pair<int16_t, uint64_t> owners{
        e.writer.load(std::memory_order_relaxed), e.readers};
    UnlockEntry(e);
    return owners;
  }

 private:
  friend class Tx;

  /// One conflict-table entry: which transaction slots currently have the
  /// (hashed) line in their read set, and which single slot owns it for
  /// writing. Both fields change only under the spin bit, so `readers` is
  /// a plain word; `writer` is atomic only because the drain-wait loops
  /// poll it without the lock. Critical sections are a few ns.
  struct alignas(16) LineEntry {
    mutable std::atomic<bool> lock{false};
    std::atomic<int16_t> writer{-1};
    uint64_t readers = 0;
  };

  /// Per-worker doom flag plus commit-progress marker, padded to avoid
  /// false sharing between slots. `progress` and `doomed` form a Dekker
  /// pair (both seq_cst): a committing transaction publishes kCommitting
  /// before checking doomed, and a doomer dooms before checking progress,
  /// so at least one side observes the other — a doomer therefore only
  /// waits for writers that might already be flushing, and safely
  /// displaces ones that are guaranteed to abort.
  struct alignas(kCacheLineBytes) TxSlot {
    static constexpr uint8_t kActive = 0;
    static constexpr uint8_t kCommitting = 1;
    std::atomic<bool> doomed{false};
    std::atomic<uint8_t> progress{kActive};
  };

  /// Dooms `writer` and reports whether the caller must wait for its line
  /// ownership to drain (true) or may displace it immediately (false).
  bool DoomWriterMustWait(int16_t writer) {
    // Requester wins: doom the owner. If it already published kCommitting
    // it may be flushing its buffer, so the caller must wait for the
    // ownership to drain; otherwise the Dekker handshake guarantees it
    // will observe the doom at its commit point and abort, so it can be
    // displaced now.
    slots_[writer].doomed.store(true, std::memory_order_seq_cst);
    return slots_[writer].progress.load(std::memory_order_seq_cst) ==
           TxSlot::kCommitting;
  }

  LineEntry& EntryFor(uintptr_t line) {
    return table_[HashLine(line) & table_mask_];
  }

  static uint64_t HashLine(uintptr_t line) {
    uint64_t z = static_cast<uint64_t>(line) * 0x9e3779b97f4a7c15ULL;
    return z ^ (z >> 29);
  }

  static void LockEntry(const LineEntry& e) {
    Backoff backoff;
    while (true) {
      if (!e.lock.exchange(true, std::memory_order_acquire)) return;
      while (e.lock.load(std::memory_order_relaxed)) backoff.Pause();
    }
  }
  static void UnlockEntry(const LineEntry& e) {
    e.lock.store(false, std::memory_order_release);
  }

  /// Dooms the writer (if foreign) and all foreign readers of a locked
  /// entry; returns false (entry unlocked) if a foreign writer must first
  /// drain, true (entry still locked) when the line is clear.
  bool ClearForeignOwners(LineEntry& e, int self_slot) {
    const int16_t writer = e.writer.load(std::memory_order_relaxed);
    if (writer >= 0 && writer != self_slot) {
      if (DoomWriterMustWait(writer)) return false;
      e.writer.store(int16_t{-1}, std::memory_order_relaxed);  // Displace.
    }
    const uint64_t self_bit =
        self_slot >= 0 ? uint64_t{1} << self_slot : uint64_t{0};
    uint64_t foreign = e.readers & ~self_bit;
    while (foreign != 0) {
      const int slot = std::countr_zero(foreign);
      slots_[slot].doomed.store(true, std::memory_order_seq_cst);
      foreign &= foreign - 1;
    }
    e.readers &= self_bit;
    return true;
  }

  HtmConfig config_;
  uint64_t table_mask_;
  std::vector<LineEntry> table_;
  TxSlot slots_[kMaxHtmThreads];
};

/// Per-thread transaction handle. Reusable across transactions; all
/// buffers are pre-allocated at construction, the hot path is
/// allocation-free.
template <typename FailpointsT>
class BasicEmulatedHtm<FailpointsT>::Tx {
 public:
  /// `slot` must be unique among concurrently active Tx handles.
  Tx(BasicEmulatedHtm& htm, int slot) : htm_(htm), slot_(slot) {
    TUFAST_CHECK(slot >= 0 && slot < kMaxHtmThreads);
    const HtmConfig& cfg = htm_.config_;
    const uint64_t rec_cap =
        htm_internal::NextPow2(uint64_t{cfg.MaxLines()} * 4);
    rec_mask_ = rec_cap - 1;
    rec_keys_.assign(rec_cap, kEmptyKey);
    rec_index_.assign(rec_cap, 0);
    rec_store_.reserve(cfg.MaxLines() + 1);
    rec_list_.reserve(cfg.MaxLines() + 1);
    set_counts_.assign(cfg.num_sets, 0);
    const uint64_t wb_cap =
        htm_internal::NextPow2(uint64_t{cfg.MaxLines()} * 16);
    wb_mask_ = wb_cap - 1;
    wb_keys_.assign(wb_cap, kEmptyKey);
    wb_vals_.assign(wb_cap, 0);
    wb_list_.reserve(cfg.MaxLines() * 8);
  }
  TUFAST_DISALLOW_COPY_AND_MOVE(Tx);

  /// Two-phase commit hook (MVCC version installation). `pre_publish`
  /// runs once the commit is guaranteed (doom check passed) but before
  /// the write-back buffer is flushed — live memory still holds the
  /// pre-images of every written word; `post_publish` runs after the
  /// flush while line ownership is still held; `on_begin` runs at every
  /// (re)begin, including segment boundaries, so per-attempt recorder
  /// state can be reset. Hooks must not throw. Null members are skipped,
  /// and the default (all null) leaves Commit() bit-identical.
  struct Hooks {
    void (*on_begin)(void* ctx) = nullptr;
    void (*pre_publish)(void* ctx) = nullptr;
    void (*post_publish)(void* ctx) = nullptr;
    void* ctx = nullptr;
  };
  void SetHooks(const Hooks& hooks) { hooks_ = hooks; }

  /// Runs `body` as one hardware transaction: either it commits (returns
  /// Ok) or the body's effects are discarded and the abort status is
  /// returned. `body` may only touch shared state via Load/Store and may
  /// be re-executed by callers; it must be idempotent on private state.
  template <typename Body>
  AbortStatus Execute(Body&& body) {
    Begin();
    try {
      body();
      Commit();
      return AbortStatus::Ok();
    } catch (const TxAbortSignal& signal) {
      return signal.status;
    } catch (...) {
      // Foreign (user) exception unwinding through an active hardware
      // transaction: discard the speculative state exactly like an abort
      // before propagating — leaking the line ownerships would doom or
      // deadlock every later transaction touching those lines. Mirrors
      // real HTM, where any trap/exception aborts the transaction.
      if (active_) {
        ReleaseAndReset();
        active_ = false;
        stats_.RecordAbort(AbortStatus::Other());
      }
      throw;
    }
  }

  /// Transactional load of one shared word. Only valid inside Execute.
  TmWord Load(const TmWord* addr) {
    TUFAST_CHECK(active_);
    CheckDoom();
    if constexpr (Failpoints::kEnabled) {
      InterpretHtmAction(Failpoints::Hit(FailSite::kHtmLoad, slot_));
    }
    const uintptr_t line = htm_internal::LineOf(addr);
    Record& rec = FindOrInsertRecord(line);
    if ((rec.flags & (kReadFlag | kWriteFlag)) == 0) {
      AcquireForRead(htm_.EntryFor(line));
      rec.flags |= kReadFlag;
    }
    if (rec.flags & kWriteFlag) {
      if (const TmWord* buffered =
              WriteBufferFind(reinterpret_cast<uintptr_t>(addr))) {
        return *buffered;
      }
    }
    return __atomic_load_n(addr, __ATOMIC_ACQUIRE);
  }

  /// Transactional (buffered) store of one shared word.
  void Store(TmWord* addr, TmWord value) {
    TUFAST_CHECK(active_);
    CheckDoom();
    if constexpr (Failpoints::kEnabled) {
      InterpretHtmAction(Failpoints::Hit(FailSite::kHtmStore, slot_));
    }
    const uintptr_t line = htm_internal::LineOf(addr);
    Record& rec = FindOrInsertRecord(line);
    if ((rec.flags & kWriteFlag) == 0) {
      AcquireForWrite(htm_.EntryFor(line));
      rec.flags |= kWriteFlag;
    }
    WriteBufferPut(reinterpret_cast<uintptr_t>(addr), value);
  }

  /// Commits the current hardware transaction and immediately starts a
  /// new one. Used by O mode every `period` operations (paper Fig. 9).
  /// Read/write subscriptions of the finished segment are released.
  void SegmentBoundary() {
    Commit();  // Throws TxAbortSignal if this segment was doomed.
    Begin();
  }

  /// Aborts with AbortCause::kExplicit carrying `kCode`. Does not return.
  /// (Template mirrors native XABORT, whose code is an immediate.)
  template <uint8_t kCode>
  [[noreturn]] void ExplicitAbort() {
    DoExplicitAbort(kCode);
  }

  bool InTx() const { return active_; }
  int slot() const { return slot_; }
  const HtmStats& stats() const { return stats_; }
  void ResetStats() { stats_ = HtmStats{}; }

  /// Distinct cache lines touched by the current transaction so far.
  uint32_t FootprintLines() const {
    return static_cast<uint32_t>(rec_list_.size());
  }

 private:
  struct Record {
    uintptr_t line;
    uint8_t flags;  // kReadFlag | kWriteFlag
  };
  static constexpr uint8_t kReadFlag = 1;
  static constexpr uint8_t kWriteFlag = 2;
  static constexpr uintptr_t kEmptyKey = ~uintptr_t{0};

  void Begin() {
    TUFAST_CHECK(!active_);
    htm_.slots_[slot_].progress.store(TxSlot::kActive,
                                      std::memory_order_seq_cst);
    htm_.slots_[slot_].doomed.store(false, std::memory_order_seq_cst);
    active_ = true;
    ++stats_.begins;
    if (TUFAST_UNLIKELY(hooks_.on_begin != nullptr)) {
      hooks_.on_begin(hooks_.ctx);
    }
  }

  void Commit() {
    TUFAST_CHECK(active_);
    if constexpr (Failpoints::kEnabled) {
      // Injected before the commit point: models a conflict that dooms us
      // in the window between the body's last access and XEND.
      InterpretHtmAction(Failpoints::Hit(FailSite::kHtmCommit, slot_));
    }
    // Commit point: publish kCommitting *before* checking doomed (Dekker
    // handshake with DoomWriterMustWait). Any doom sequenced before the
    // check forces an abort; a doom after it means the conflicting
    // transaction either waits for our flush (writers) or serializes
    // after us (readers). See DESIGN.md.
    htm_.slots_[slot_].progress.store(TxSlot::kCommitting,
                                      std::memory_order_seq_cst);
    if (htm_.slots_[slot_].doomed.load(std::memory_order_seq_cst)) {
      ThrowAbort(AbortStatus::Conflict());
    }
    // The commit is now guaranteed; live memory still holds pre-images.
    if (TUFAST_UNLIKELY(hooks_.pre_publish != nullptr)) {
      hooks_.pre_publish(hooks_.ctx);
    }
    // Publish buffered writes. All written lines are exclusively owned,
    // and conflicting accessors wait for ownership to drain, so this is
    // atomic with respect to every transactional reader.
    for (uint32_t pos : wb_list_) {
      __atomic_store_n(reinterpret_cast<TmWord*>(wb_keys_[pos]),
                       wb_vals_[pos], __ATOMIC_RELEASE);
    }
    if (TUFAST_UNLIKELY(hooks_.post_publish != nullptr)) {
      hooks_.post_publish(hooks_.ctx);
    }
    ReleaseAndReset();
    active_ = false;
    ++stats_.commits;
  }

  [[noreturn]] void DoExplicitAbort(uint8_t code) {
    TUFAST_CHECK(active_);
    ThrowAbort(AbortStatus::Explicit(code));
  }

  [[noreturn]] void ThrowAbort(AbortStatus status) {
    ReleaseAndReset();
    active_ = false;
    stats_.RecordAbort(status);
    throw TxAbortSignal{status};
  }

  void ReleaseAndReset() {
    for (uint32_t key_pos : rec_list_) {
      const Record& rec = rec_store_[rec_index_[key_pos]];
      LineEntry& e = htm_.EntryFor(rec.line);
      LockEntry(e);
      // A writer displaced by a requester no longer owns the line, so
      // only clear the slot if it is still ours. The unlock publishes it.
      if ((rec.flags & kWriteFlag) &&
          e.writer.load(std::memory_order_relaxed) == slot_) {
        e.writer.store(int16_t{-1}, std::memory_order_relaxed);
      }
      if (rec.flags & kReadFlag) e.readers &= ~(uint64_t{1} << slot_);
      UnlockEntry(e);
      rec_keys_[key_pos] = kEmptyKey;
      set_counts_[rec.line & (htm_.config_.num_sets - 1)] = 0;
    }
    // set_counts_ entries were zeroed above only for touched sets;
    // decrement semantics are unnecessary because we fully reset per
    // transaction.
    rec_list_.clear();
    rec_store_.clear();
    for (uint32_t pos : wb_list_) wb_keys_[pos] = kEmptyKey;
    wb_list_.clear();
  }

  /// Throws on doom (conflict) — the emulated equivalent of the hardware
  /// asynchronously aborting us.
  void CheckDoom() {
    if (TUFAST_UNLIKELY(
            htm_.slots_[slot_].doomed.load(std::memory_order_seq_cst))) {
      ThrowAbort(AbortStatus::Conflict());
    }
  }

  /// Maps an injected failpoint action onto the hardware abort it models.
  void InterpretHtmAction(FailAction action) {
    switch (action) {
      case FailAction::kAbortConflict:
        ThrowAbort(AbortStatus::Conflict());
      case FailAction::kAbortCapacity:
        ThrowAbort(AbortStatus::Capacity());
      default:
        break;
    }
  }

  Record& FindOrInsertRecord(uintptr_t line) {
    uint64_t pos = HashLine(line) & rec_mask_;
    while (true) {
      const uintptr_t key = rec_keys_[pos];
      if (key == line) return rec_store_[rec_index_[pos]];
      if (key == kEmptyKey) break;
      pos = (pos + 1) & rec_mask_;
    }
    // New line: charge it against the modeled L1 set before admitting it.
    const HtmConfig& cfg = htm_.config_;
    const uint32_t set = static_cast<uint32_t>(line) & (cfg.num_sets - 1);
    if (TUFAST_UNLIKELY(set_counts_[set] >= cfg.num_ways)) {
      ThrowAbort(AbortStatus::Capacity());
    }
    ++set_counts_[set];
    rec_keys_[pos] = line;
    rec_index_[pos] = static_cast<uint32_t>(rec_store_.size());
    rec_store_.push_back(Record{line, 0});
    rec_list_.push_back(static_cast<uint32_t>(pos));
    return rec_store_.back();
  }

  void AcquireForRead(LineEntry& entry) {
    Backoff backoff;
    uint32_t spins = 0;
    while (true) {
      LockEntry(entry);
      const int16_t writer = entry.writer.load(std::memory_order_relaxed);
      if (writer < 0 || writer == slot_ ||
          !htm_.DoomWriterMustWait(writer)) {
        if (writer >= 0 && writer != slot_) {
          entry.writer.store(int16_t{-1}, std::memory_order_relaxed);
        }
        entry.readers |= uint64_t{1} << slot_;
        UnlockEntry(entry);
        return;
      }
      UnlockEntry(entry);
      while (entry.writer.load(std::memory_order_acquire) == writer) {
        CheckDoom();
        if (++spins > htm_.config_.max_conflict_spins) {
          ThrowAbort(AbortStatus::Conflict());
        }
        backoff.Pause();
      }
    }
  }

  void AcquireForWrite(LineEntry& entry) {
    Backoff backoff;
    uint32_t spins = 0;
    while (true) {
      LockEntry(entry);
      if (htm_.ClearForeignOwners(entry, slot_)) {
        entry.writer.store(static_cast<int16_t>(slot_),
                           std::memory_order_relaxed);
        UnlockEntry(entry);
        return;
      }
      const int16_t writer = entry.writer.load(std::memory_order_relaxed);
      UnlockEntry(entry);
      while (entry.writer.load(std::memory_order_acquire) == writer) {
        CheckDoom();
        if (++spins > htm_.config_.max_conflict_spins) {
          ThrowAbort(AbortStatus::Conflict());
        }
        backoff.Pause();
      }
    }
  }

  TmWord* WriteBufferFind(uintptr_t word_addr) {
    uint64_t pos = HashLine(word_addr) & wb_mask_;
    while (true) {
      const uintptr_t key = wb_keys_[pos];
      if (key == word_addr) return &wb_vals_[pos];
      if (key == kEmptyKey) return nullptr;
      pos = (pos + 1) & wb_mask_;
    }
  }

  void WriteBufferPut(uintptr_t word_addr, TmWord value) {
    uint64_t pos = HashLine(word_addr) & wb_mask_;
    while (true) {
      const uintptr_t key = wb_keys_[pos];
      if (key == word_addr) {
        wb_vals_[pos] = value;
        return;
      }
      if (key == kEmptyKey) {
        wb_keys_[pos] = word_addr;
        wb_vals_[pos] = value;
        wb_list_.push_back(static_cast<uint32_t>(pos));
        return;
      }
      pos = (pos + 1) & wb_mask_;
    }
  }

  BasicEmulatedHtm& htm_;
  const int slot_;
  bool active_ = false;
  HtmStats stats_;
  Hooks hooks_;

  // Open-addressed line-record map (line id -> index into rec_store_).
  std::vector<uintptr_t> rec_keys_;
  std::vector<uint32_t> rec_index_;
  std::vector<Record> rec_store_;
  std::vector<uint32_t> rec_list_;  // used key-slot positions, for reset
  uint64_t rec_mask_;

  // Modeled L1: distinct lines currently mapped into each set.
  std::vector<uint16_t> set_counts_;

  // Word-granularity write buffer (open-addressed).
  std::vector<uintptr_t> wb_keys_;
  std::vector<TmWord> wb_vals_;
  std::vector<uint32_t> wb_list_;
  uint64_t wb_mask_;
};

/// The production instantiation: no failpoints, zero instrumentation
/// cost. Pre-instantiated in emulated_htm.cc so most translation units
/// only pay for the template once.
using EmulatedHtm = BasicEmulatedHtm<NullFailpoints>;

extern template class BasicEmulatedHtm<NullFailpoints>;

}  // namespace tufast

#endif  // TUFAST_HTM_EMULATED_HTM_H_
