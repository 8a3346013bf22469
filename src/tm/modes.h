#ifndef TUFAST_TM_MODES_H_
#define TUFAST_TM_MODES_H_

#include <algorithm>
#include <bit>
#include <vector>

#include "common/compiler.h"
#include "common/failpoints.h"
#include "common/types.h"
#include "durability/wal.h"
#include "htm/htm_config.h"
#include "mvcc/version_store.h"
#include "sync/lock_manager.h"
#include "sync/lock_table.h"
#include "tm/addr_map.h"
#include "tm/outcome.h"

namespace tufast {

/// The three TuFast sub-schedulers (paper §IV-A), as transaction-context
/// types handed to the user's transaction body. All share the same
/// per-vertex LockTable, which is what integrates them into one HyTM:
///
///  * HTxn — paper Algorithm 1: the body runs in one hardware
///    transaction; every op transactionally *subscribes* the vertex lock
///    word and checks compatibility (see DESIGN.md for why subscription
///    replaces the pseudo-code's in-HTM acquisition) — or, while no
///    vertex lock is held anywhere, the transaction subscribes the lock
///    table's one held word instead (LockCheck, DESIGN.md "Lock
///    elision").
///  * OTxn — paper Algorithm 2 / Fig. 9: reads run inside consecutive
///    hardware segments of `period` ops for early conflict detection,
///    with the same lock check as H mode; writes are buffered; commit
///    locks the write vertices, value-validates the read log, publishes,
///    releases.
///  * LTxn — two-phase locking through LockManager, one L transaction at
///    a time behind TuFast's L gate (a waiter past the wait bound is a
///    timeout victim); writes are buffered and applied at commit under
///    exclusive locks, so aborts never need undo.
///
/// User bodies take `auto& txn` so one generic lambda works across modes.

/// The H/O per-operation lock check (paper Algorithm 1), shared by
/// HTxn and OTxn::Read. Decided once per hardware transaction, at its
/// first check: if the router allowed elision and no vertex lock is held
/// (LockTable::SubscribeNoneHeld), the transaction has subscribed the
/// held word and every later check is free; otherwise each check loads
/// the vertex's lock word transactionally and aborts lock-busy unless it
/// admits the access. An O segment boundary re-arms the decision, since
/// it drops the read set.
template <typename Htm>
class LockCheck {
 public:
  explicit LockCheck(const LockTable<Htm>& locks) : locks_(locks) {}

  /// Starts an attempt. `may_elide` comes from the router's adaptive
  /// rule (DESIGN.md "Lock elision"); false keeps paper Algorithm 1.
  void Begin(bool may_elide) {
    may_elide_ = may_elide;
    elided_ = 0;
    NewSegment();
  }
  void NewSegment() {
    state_ = may_elide_ ? State::kUndecided : State::kPerVertex;
  }

  /// Write checks (and write-intent reads) need a free lock, reads only
  /// the absence of an exclusive holder.
  template <bool kWrite>
  TUFAST_ALWAYS_INLINE void Check(typename Htm::Tx& htx, VertexId v) {
    if (TUFAST_LIKELY(state_ == State::kElided)) return;
    if (state_ == State::kUndecided) {
      if (locks_.SubscribeNoneHeld(htx)) {
        state_ = State::kElided;
        ++elided_;
        return;
      }
      state_ = State::kPerVertex;
    }
    const TmWord word = htx.Load(locks_.WordAddr(v));
    if (TUFAST_UNLIKELY(kWrite ? !LockTable<Htm>::Free(word)
                               : !LockTable<Htm>::SharedCompatible(word))) {
      htx.template ExplicitAbort<kAbortCodeLockBusy>();
    }
  }

  /// Hardware transactions of this attempt that elided their checks.
  uint32_t elided() const { return elided_; }

 private:
  enum class State : uint8_t { kUndecided, kElided, kPerVertex };

  const LockTable<Htm>& locks_;
  State state_ = State::kPerVertex;
  bool may_elide_ = false;
  uint32_t elided_ = 0;
};

template <typename Htm>
class HTxn {
 public:
  /// `recorder` (optional, MVCC builds) collects (vertex, addr) for every
  /// Write so the HTM commit hook can install pre-image versions. `wal`
  /// (optional, durable builds) stages logical graph mutations; arming it
  /// scopes the shared Tx commit hooks to this hardware transaction.
  HTxn(typename Htm::Tx& htx, const LockTable<Htm>& locks,
       MvccRecorder* recorder = nullptr, WalRecorder* wal = nullptr)
      : htx_(htx), check_(locks), recorder_(recorder), wal_(wal) {
    if (TUFAST_UNLIKELY(wal_ != nullptr)) wal_->hw_armed = true;
  }

  TUFAST_ALWAYS_INLINE TmWord Read(VertexId v, const TmWord* addr) {
    ++ops_;
    check_.template Check</*kWrite=*/false>(htx_, v);
    return htx_.Load(addr);
  }

  TUFAST_ALWAYS_INLINE void Write(VertexId v, TmWord* addr, TmWord value) {
    ++ops_;
    check_.template Check</*kWrite=*/true>(htx_, v);
    if (TUFAST_UNLIKELY(recorder_ != nullptr)) recorder_->Record(v, addr);
    htx_.Store(addr, value);
  }

  /// Write-intent read: H mode checks the stricter (free) compatibility
  /// up front so it aborts as early as a write would.
  TmWord ReadForUpdate(VertexId v, const TmWord* addr) {
    ++ops_;
    check_.template Check</*kWrite=*/true>(htx_, v);
    return htx_.Load(addr);
  }

  double ReadDouble(VertexId v, const double* addr) {
    return std::bit_cast<double>(
        Read(v, reinterpret_cast<const TmWord*>(addr)));
  }
  void WriteDouble(VertexId v, double* addr, double value) {
    Write(v, reinterpret_cast<TmWord*>(addr), std::bit_cast<TmWord>(value));
  }

  /// User-requested abort (paper Table I): no retry.
  [[noreturn]] void Abort() {
    htx_.template ExplicitAbort<kAbortCodeUser>();
  }

  /// Starts one hardware attempt (see LockCheck::Begin).
  void BeginAttempt(bool may_elide) {
    ops_ = 0;
    check_.Begin(may_elide);
  }
  uint64_t ops() const { return ops_; }
  uint32_t elided() const { return check_.elided(); }

  /// Durable builds: stage one logical mutation for the WAL. The commit
  /// hook publishes the staged batch as a single record at pre_publish.
  void WalNote(const EdgeUpdate& up) {
    if (TUFAST_UNLIKELY(wal_ != nullptr)) wal_->Note(up);
  }
  WalRecorder* wal_recorder() const { return wal_; }

 private:
  typename Htm::Tx& htx_;
  LockCheck<Htm> check_;
  MvccRecorder* recorder_;
  WalRecorder* wal_ = nullptr;
  uint64_t ops_ = 0;
};

/// Outcome of OTxn's software commit phase.
enum class OCommitResult { kOk, kLockBusy, kValidationFail };

/// One buffered software write (O and L mode write logs).
struct BufferedWrite {
  TmWord* addr;
  TmWord value;
  VertexId vertex;
};

/// The software publish step shared by O-mode (OTxn::CommitSoftware) and
/// L-mode (LTxn::CommitApplyAndRelease) commits. The caller holds every
/// written vertex exclusively and has decided the commit. In order:
/// install the MVCC pre-images while live memory still holds them, append
/// the WAL record (log order matches publication order; the fsync waits
/// for the group-commit barrier after release, AccountWalCommit), store
/// the writes non-transactionally (dooming subscribed hardware
/// transactions), end the install. Null `mvcc` / `wal` = layer off. H-mode
/// commits run the same steps through InstallCommitHooks.
template <typename Htm>
TUFAST_ALWAYS_INLINE void PublishBufferedWrites(
    Htm& htm, BasicMvccStore<HtmFailpoints<Htm>>* mvcc, WalRecorder* wal,
    int slot, const std::vector<BufferedWrite>& writes) {
  if (TUFAST_UNLIKELY(mvcc != nullptr)) {
    mvcc->BeginInstall(slot, writes, [](const BufferedWrite& w) {
      return MvccWrite{w.vertex, w.addr};
    });
  }
  if (TUFAST_UNLIKELY(wal != nullptr) && !wal->empty()) wal->Publish();
  for (const BufferedWrite& w : writes) htm.NonTxStore(w.addr, w.value);
  if (TUFAST_UNLIKELY(mvcc != nullptr)) mvcc->EndInstall(slot);
}

template <typename Htm>
class OTxn {
 public:
  /// `expected_max_ops` pre-sizes the read/write logs: growing a vector
  /// inside a hardware segment calls malloc, which aborts real HTM.
  OTxn(Htm& htm, typename Htm::Tx& htx, LockTable<Htm>& locks,
       size_t expected_max_ops = 1 << 14)
      : htm_(htm),
        htx_(htx),
        locks_(locks),
        check_(locks),
        write_map_(expected_max_ops) {
    reads_.reserve(expected_max_ops);
    writes_.reserve(expected_max_ops);
    write_vertices_.reserve(expected_max_ops);
  }
  TUFAST_DISALLOW_COPY_AND_MOVE(OTxn);

  using Mvcc = BasicMvccStore<HtmFailpoints<Htm>>;

  /// Opts this context into MVCC version installation at commit
  /// (Config::enable_mvcc). Call before the first Run.
  void SetMvcc(Mvcc* mvcc) { mvcc_ = mvcc; }

  /// Opts this context into WAL staging (Config::enable_wal).
  void SetWal(WalRecorder* wal) { wal_ = wal; }

  /// Prepares for one attempt with the given hardware-segment length;
  /// `may_elide` as for LockCheck::Begin.
  void Reset(uint32_t period, bool may_elide) {
    check_.Begin(may_elide);
    period_ = period;
    segment_ops_ = 0;
    ops_ = 0;
    reads_.clear();
    writes_.clear();
    write_map_.Clear();
    if (TUFAST_UNLIKELY(wal_ != nullptr)) {
      // Disarm the shared hardware recorder: O-mode segment commits fire
      // the same Tx hooks, and they must not clear or publish this
      // software transaction's staged notes.
      wal_->hw_armed = false;
      wal_->Clear();
    }
  }

  TUFAST_ALWAYS_INLINE TmWord Read(VertexId v, const TmWord* addr) {
    ++ops_;
    if (!writes_.empty()) {  // Read own buffered write?
      if (uint32_t* idx =
              write_map_.Find(reinterpret_cast<uintptr_t>(addr))) {
        return writes_[*idx].value;
      }
    }
    MaybeSegmentBoundary();
    check_.template Check</*kWrite=*/false>(htx_, v);
    const TmWord value = htx_.Load(addr);
    reads_.push_back(ReadEntry{addr, value, v});
    return value;
  }

  /// Optimistic mode takes no locks before commit; intent is a no-op.
  TmWord ReadForUpdate(VertexId v, const TmWord* addr) {
    return Read(v, addr);
  }

  void Write(VertexId v, TmWord* addr, TmWord value) {
    ++ops_;
    bool inserted;
    uint32_t* idx = write_map_.FindOrInsert(
        reinterpret_cast<uintptr_t>(addr),
        static_cast<uint32_t>(writes_.size()), &inserted);
    if (inserted) {
      writes_.push_back(BufferedWrite{addr, value, v});
    } else {
      writes_[*idx].value = value;
    }
  }

  double ReadDouble(VertexId v, const double* addr) {
    return std::bit_cast<double>(
        Read(v, reinterpret_cast<const TmWord*>(addr)));
  }
  void WriteDouble(VertexId v, double* addr, double value) {
    Write(v, reinterpret_cast<TmWord*>(addr), std::bit_cast<TmWord>(value));
  }

  [[noreturn]] void Abort() {
    if (htx_.InTx()) htx_.template ExplicitAbort<kAbortCodeUser>();
    throw UserAbortSignal{};
  }

  /// Validation + publication (runs after the last hardware segment
  /// committed): lock write vertices, value-validate the read log,
  /// publish buffered writes non-transactionally (dooming subscribed
  /// hardware transactions), release.
  OCommitResult CommitSoftware() {
    write_vertices_.clear();
    for (const BufferedWrite& w : writes_) write_vertices_.push_back(w.vertex);
    std::sort(write_vertices_.begin(), write_vertices_.end());
    write_vertices_.erase(
        std::unique(write_vertices_.begin(), write_vertices_.end()),
        write_vertices_.end());

    size_t locked = 0;
    for (; locked < write_vertices_.size(); ++locked) {
      if (!locks_.TryLockExclusive(write_vertices_[locked])) break;
    }
    if (locked < write_vertices_.size()) {
      ReleaseExclusive(locked);
      return OCommitResult::kLockBusy;
    }

    // DrainLoad, not a plain load: an H transaction past its commit point
    // may still be flushing a write to a line we read. Its lock
    // subscription (per vertex or the held word) can no longer be doomed
    // by our locking, so a plain load could validate against the
    // pre-image and lose its update.
    for (const ReadEntry& r : reads_) {
      if (htm_.DrainLoad(r.addr) != r.value || !ReadVertexStillValid(r.vertex)) {
        ReleaseExclusive(write_vertices_.size());
        return OCommitResult::kValidationFail;
      }
    }

    // Validated: the commit is decided and the written vertices stay
    // exclusively locked until the publish is done.
    PublishBufferedWrites(htm_, mvcc_, wal_, htx_.slot(), writes_);
    ReleaseExclusive(write_vertices_.size());
    return OCommitResult::kOk;
  }

  /// Durable builds: stage one logical mutation for the WAL.
  void WalNote(const EdgeUpdate& up) {
    if (TUFAST_UNLIKELY(wal_ != nullptr)) wal_->Note(up);
  }
  WalRecorder* wal_recorder() const { return wal_; }

  uint64_t ops() const { return ops_; }
  uint32_t period() const { return period_; }
  /// Segments of this attempt that elided their lock checks.
  uint32_t elided() const { return check_.elided(); }

 private:
  struct ReadEntry {
    const TmWord* addr;
    TmWord value;
    VertexId vertex;
  };

  void MaybeSegmentBoundary() {
    if (++segment_ops_ >= period_) {
      segment_ops_ = 0;
      htx_.SegmentBoundary();
      check_.NewSegment();
    }
  }

  /// Paper Algorithm 2 line 45: a read vertex may not be exclusively
  /// locked by anyone else (shared holders are readers — compatible).
  bool ReadVertexStillValid(VertexId v) const {
    const TmWord word = locks_.LoadWord(v);
    if ((word & LockTable<Htm>::kExclusiveBit) == 0) return true;
    return std::binary_search(write_vertices_.begin(), write_vertices_.end(),
                              v);  // Exclusively locked — by us?
  }

  void ReleaseExclusive(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      locks_.UnlockExclusive(write_vertices_[i]);
    }
  }

  Htm& htm_;
  typename Htm::Tx& htx_;
  LockTable<Htm>& locks_;
  LockCheck<Htm> check_;
  Mvcc* mvcc_ = nullptr;
  WalRecorder* wal_ = nullptr;
  uint32_t period_ = 1000;
  uint32_t segment_ops_ = 0;
  uint64_t ops_ = 0;
  std::vector<ReadEntry> reads_;
  std::vector<BufferedWrite> writes_;
  std::vector<VertexId> write_vertices_;
  AddrMap write_map_;
};

template <typename Htm>
class LTxn {
 public:
  LTxn(Htm& htm, int slot, LockManager<Htm>& manager)
      : htm_(htm), slot_(slot), manager_(manager) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(LTxn);

  using Mvcc = BasicMvccStore<HtmFailpoints<Htm>>;

  /// Opts this context into MVCC version installation at commit.
  void SetMvcc(Mvcc* mvcc) { mvcc_ = mvcc; }

  /// Opts this context into WAL staging (Config::enable_wal).
  void SetWal(WalRecorder* wal) { wal_ = wal; }

  void Reset() {
    ops_ = 0;
    held_.clear();
    held_map_.Clear();
    writes_.clear();
    write_map_.Clear();
    if (TUFAST_UNLIKELY(wal_ != nullptr)) {
      wal_->hw_armed = false;  // See OTxn::Reset: shared Tx hook scoping.
      wal_->Clear();
    }
  }

  TmWord Read(VertexId v, const TmWord* addr) {
    ++ops_;
    if (uint32_t* idx = write_map_.Find(reinterpret_cast<uintptr_t>(addr))) {
      return writes_[*idx].value;
    }
    EnsureAtLeastShared(v);
    // DrainLoad: taking the lock dooms only hardware transactions that
    // have not reached their commit point; one already flushing a write
    // to this line must be waited out, or we read its pre-image.
    return htm_.DrainLoad(addr);
  }

  /// Read with declared write intent (SELECT ... FOR UPDATE): takes the
  /// exclusive lock immediately, avoiding the classic shared->exclusive
  /// upgrade deadlock when the vertex will be written later.
  TmWord ReadForUpdate(VertexId v, const TmWord* addr) {
    ++ops_;
    if (uint32_t* idx = write_map_.Find(reinterpret_cast<uintptr_t>(addr))) {
      return writes_[*idx].value;
    }
    EnsureExclusive(v);
    return htm_.DrainLoad(addr);  // See Read().
  }

  void Write(VertexId v, TmWord* addr, TmWord value) {
    ++ops_;
    EnsureExclusive(v);
    bool inserted;
    uint32_t* idx = write_map_.FindOrInsert(
        reinterpret_cast<uintptr_t>(addr),
        static_cast<uint32_t>(writes_.size()), &inserted);
    if (inserted) {
      writes_.push_back(BufferedWrite{addr, value, v});
    } else {
      writes_[*idx].value = value;
    }
  }

  double ReadDouble(VertexId v, const double* addr) {
    return std::bit_cast<double>(
        Read(v, reinterpret_cast<const TmWord*>(addr)));
  }
  void WriteDouble(VertexId v, double* addr, double value) {
    Write(v, reinterpret_cast<TmWord*>(addr), std::bit_cast<TmWord>(value));
  }

  [[noreturn]] void Abort() { throw UserAbortSignal{}; }

  /// Strict 2PL commit: publish buffered writes (all their vertices are
  /// exclusively held), then release everything.
  void CommitApplyAndRelease() {
    PublishBufferedWrites(htm_, mvcc_, wal_, slot_, writes_);
    ReleaseAll();
  }

  /// Durable builds: stage one logical mutation for the WAL.
  void WalNote(const EdgeUpdate& up) {
    if (TUFAST_UNLIKELY(wal_ != nullptr)) wal_->Note(up);
  }
  WalRecorder* wal_recorder() const { return wal_; }

  /// Releases the whole held set. Idempotent: a second call (the
  /// RunLockTxnLoop RAII guard unwinding after an explicit release on
  /// the victim path) sees an empty held set and does nothing. The
  /// exception-safety tests rely on every unwind path out of a lock
  /// transaction funnelling through here.
  void ReleaseAll() {
    for (const Held& h : held_) {
      if (h.exclusive) {
        manager_.ReleaseExclusive(h.vertex);
      } else {
        manager_.ReleaseShared(h.vertex);
      }
    }
    held_.clear();
    held_map_.Clear();
  }

  uint64_t ops() const { return ops_; }

 private:
  struct Held {
    VertexId vertex;
    bool exclusive;
  };

  void EnsureAtLeastShared(VertexId v) {
    if (held_map_.Find(uintptr_t{v} + 1) != nullptr) return;
    if (!manager_.AcquireShared(slot_, v)) throw DeadlockVictimSignal{};
    RecordHeld(v, /*exclusive=*/false);
  }

  void EnsureExclusive(VertexId v) {
    if (uint32_t* idx = held_map_.Find(uintptr_t{v} + 1)) {
      Held& held = held_[*idx];
      if (held.exclusive) return;
      if (!manager_.Upgrade(slot_, v)) throw DeadlockVictimSignal{};
      held.exclusive = true;
      return;
    }
    if (!manager_.AcquireExclusive(slot_, v)) throw DeadlockVictimSignal{};
    RecordHeld(v, /*exclusive=*/true);
  }

  void RecordHeld(VertexId v, bool exclusive) {
    bool inserted;
    uint32_t* idx = held_map_.FindOrInsert(
        uintptr_t{v} + 1, static_cast<uint32_t>(held_.size()), &inserted);
    TUFAST_DCHECK(inserted);
    (void)idx;
    held_.push_back(Held{v, exclusive});
  }

  Htm& htm_;
  const int slot_;
  LockManager<Htm>& manager_;
  Mvcc* mvcc_ = nullptr;
  WalRecorder* wal_ = nullptr;
  uint64_t ops_ = 0;
  std::vector<Held> held_;
  AddrMap held_map_;
  std::vector<BufferedWrite> writes_;
  AddrMap write_map_;
};

}  // namespace tufast

#endif  // TUFAST_TM_MODES_H_
