#ifndef TUFAST_TM_SCHEDULER_HSYNC_H_
#define TUFAST_TM_SCHEDULER_HSYNC_H_

#include <bit>
#include <memory>
#include <vector>

#include "common/spin.h"
#include "common/types.h"
#include "htm/htm_config.h"
#include "mvcc/version_store.h"
#include "tm/outcome.h"
#include "tm/telemetry.h"
#include "tm/worker_runtime.h"

namespace tufast {

/// Baseline scheduler: classic HTM + global-fallback-lock hybrid ("HSync"
/// in paper Fig. 13/14). Every transaction first tries to run entirely in
/// one hardware transaction that *subscribes* the global fallback lock;
/// after a bounded number of aborts it acquires the global lock and runs
/// non-transactionally (which dooms all concurrent hardware attempts).
/// Unlike TuFast it is degree-oblivious: one policy for every size, and a
/// single global lock that serializes all fallbacks.
template <typename Htm, typename Telemetry = NullTelemetry>
class HsyncHybrid {
 public:
  struct Config {
    int htm_retries = 8;
  };

  using Mvcc = BasicMvccStore<HtmFailpoints<Htm>>;

  HsyncHybrid(Htm& htm, VertexId num_vertices = 0, Config config = {})
      : htm_(htm), num_vertices_(num_vertices), config_(config),
        runtime_(0x45c0u) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(HsyncHybrid);

  /// Hardware-path transaction context.
  class HwTxn {
   public:
    HwTxn(typename Htm::Tx& htx, const TmWord* global_lock,
          MvccRecorder* recorder = nullptr, WalRecorder* wal = nullptr)
        : htx_(htx), global_lock_(global_lock), recorder_(recorder),
          wal_(wal) {
      // Hardware-path publishes ride the Tx commit hooks; arm them.
      if (TUFAST_UNLIKELY(wal_ != nullptr)) wal_->hw_armed = true;
    }

    TmWord Read(VertexId /*v*/, const TmWord* addr) {
      ++ops_;
      return htx_.Load(addr);
    }
    TmWord ReadForUpdate(VertexId v, const TmWord* addr) {
      return Read(v, addr);  // Optimistic/timestamped: no early locking.
    }

    void Write(VertexId v, TmWord* addr, TmWord value) {
      ++ops_;
      if (TUFAST_UNLIKELY(recorder_ != nullptr)) recorder_->Record(v, addr);
      htx_.Store(addr, value);
    }
    double ReadDouble(VertexId v, const double* addr) {
      return std::bit_cast<double>(
          Read(v, reinterpret_cast<const TmWord*>(addr)));
    }
    void WriteDouble(VertexId v, double* addr, double value) {
      Write(v, reinterpret_cast<TmWord*>(addr), std::bit_cast<TmWord>(value));
    }
    [[noreturn]] void Abort() {
      htx_.template ExplicitAbort<kAbortCodeUser>();
    }

    /// Subscribes the fallback lock; aborts if a fallback is running.
    void SubscribeGlobalLock() {
      if (htx_.Load(global_lock_) != 0) {
        htx_.template ExplicitAbort<kAbortCodeLockBusy>();
      }
    }

    uint64_t ops() const { return ops_; }
    void ResetOps() { ops_ = 0; }

    /// Durable builds: stage one logical mutation for the WAL.
    void WalNote(const EdgeUpdate& up) {
      if (TUFAST_UNLIKELY(wal_ != nullptr)) wal_->Note(up);
    }
    WalRecorder* wal_recorder() const { return wal_; }

   private:
    typename Htm::Tx& htx_;
    const TmWord* global_lock_;
    MvccRecorder* recorder_;
    WalRecorder* wal_;
    uint64_t ops_ = 0;
  };

  /// Fallback-path context: runs under the global lock, plain accesses.
  class FallbackTxn {
   public:
    explicit FallbackTxn(Htm& htm) : htm_(htm) {}

    TmWord Read(VertexId /*v*/, const TmWord* addr) {
      ++ops_;
      if (const TmWord* p = FindPending(addr)) return *p;
      // DrainLoad: taking the global lock dooms only hardware
      // transactions that have not reached their commit point; one
      // already flushing a write to this line must be waited out, or we
      // read its pre-image and our publish overwrites the commit.
      return htm_.DrainLoad(addr);
    }
    TmWord ReadForUpdate(VertexId v, const TmWord* addr) {
      return Read(v, addr);  // Optimistic/timestamped: no early locking.
    }

    void Write(VertexId v, TmWord* addr, TmWord value) {
      ++ops_;
      pending_.push_back({addr, value, v});
    }
    double ReadDouble(VertexId v, const double* addr) {
      return std::bit_cast<double>(
          Read(v, reinterpret_cast<const TmWord*>(addr)));
    }
    void WriteDouble(VertexId v, double* addr, double value) {
      Write(v, reinterpret_cast<TmWord*>(addr), std::bit_cast<TmWord>(value));
    }
    [[noreturn]] void Abort() { throw UserAbortSignal{}; }

    uint64_t ops() const { return ops_; }

    /// Durable builds: stage one logical mutation for the WAL.
    void WalNote(const EdgeUpdate& up) {
      if (TUFAST_UNLIKELY(wal_ != nullptr)) wal_->Note(up);
    }
    WalRecorder* wal_recorder() const { return wal_; }

   private:
    friend class HsyncHybrid;
    struct Pending {
      TmWord* addr;
      TmWord value;
      VertexId vertex;  // MVCC version-chain owner (unused otherwise).
    };
    Htm& htm_;
    WalRecorder* wal_ = nullptr;
    uint64_t ops_ = 0;
    std::vector<Pending> pending_;

    TmWord* FindPending(const TmWord* addr) {
      for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
        if (it->addr == addr) return &it->value;
      }
      return nullptr;
    }
  };

  template <typename Fn>
  RunOutcome Run(int worker_id, uint64_t /*size_hint*/, Fn&& fn) {
    Worker& w = runtime_.GetWorker(worker_id, *this);
    w.telemetry.TxnBegin();
    w.telemetry.EnterMode(SchedMode::kHardware);
    WalRecorder* wal =
        wal_sink_ != nullptr ? &w.state.wal_recorder : nullptr;
    HwTxn hw(w.state.htx, &global_lock_,
             mvcc_ != nullptr ? &w.state.recorder : nullptr, wal);
    uint32_t txn_aborts = 0;
    for (int attempt = 0; attempt <= config_.htm_retries; ++attempt) {
      BeatAttempt(w);
      hw.ResetOps();
      const AbortStatus status = w.state.htx.Execute([&] {
        hw.SubscribeGlobalLock();
        fn(hw);
      });
      if (status.ok()) {
        AccountWalCommit(w, wal);  // Ack barrier: HW commit done.
        w.stats.RecordCommit(TxnClass::kH, hw.ops());
        w.telemetry.TxnCommit(TxnClass::kH, hw.ops());
        BeatCommit(w);
        return RunOutcome{true, TxnClass::kH, hw.ops(), txn_aborts};
      }
      const HtmAttemptVerdict verdict = RecordHtmAbort(w, status);
      if (verdict == HtmAttemptVerdict::kUserAbort) {
        ++w.stats.user_aborts;
        w.telemetry.TxnUserAbort(TxnClass::kH);
        return RunOutcome{false, TxnClass::kH, 0, txn_aborts};
      }
      ++txn_aborts;
      if (verdict == HtmAttemptVerdict::kCapacity) {
        break;  // Deterministic: go to the fallback immediately.
      }
    }

    // Global-lock fallback: serialize, run plain, publish with dooming
    // stores so concurrent hardware attempts stay correct. The body can
    // throw anything (user aborts, foreign exceptions): every unwind
    // path must drop the global lock or all fallbacks deadlock forever.
    w.telemetry.EnterMode(SchedMode::kLock);
    BeatAttempt(w);
    AcquireGlobalLock();
    FallbackTxn fb(htm_);
    if (TUFAST_UNLIKELY(wal != nullptr)) {
      // Drop residue from the failed hardware attempts and route staged
      // notes through the software publish below, not the Tx hooks.
      wal->hw_armed = false;
      wal->Clear();
      fb.wal_ = wal;
    }
    try {
      fn(fb);
    } catch (const UserAbortSignal&) {
      ReleaseGlobalLock();
      ++w.stats.user_aborts;
      w.telemetry.TxnUserAbort(TxnClass::kL);
      return RunOutcome{false, TxnClass::kL, 0, txn_aborts};
    } catch (...) {
      ReleaseGlobalLock();
      throw;
    }
    // MVCC: the global lock (which every hardware attempt subscribes)
    // is exclusive ownership of the whole conflict space; pre-images
    // are captured before the pending writes land. Duplicates in the
    // pending log are fine — they capture identical pre-images.
    if (TUFAST_UNLIKELY(mvcc_ != nullptr)) {
      mvcc_->BeginInstall(worker_id, fb.pending_,
                          [](const typename FallbackTxn::Pending& p) {
                            return MvccWrite{p.vertex, p.addr};
                          });
    }
    // WAL record lands under the global lock (exclusive window), so log
    // order matches commit order; the fsync waits for the group-commit
    // barrier after the lock is released.
    if (TUFAST_UNLIKELY(wal != nullptr) && !wal->empty()) {
      wal->Publish();
    }
    for (const auto& p : fb.pending_) htm_.NonTxStore(p.addr, p.value);
    if (TUFAST_UNLIKELY(mvcc_ != nullptr)) mvcc_->EndInstall(worker_id);
    ReleaseGlobalLock();
    AccountWalCommit(w, wal);  // Ack barrier: global lock released.
    w.stats.RecordCommit(TxnClass::kL, fb.ops());
    w.telemetry.TxnCommit(TxnClass::kL, fb.ops());
    BeatCommit(w);
    return RunOutcome{true, TxnClass::kL, fb.ops(), txn_aborts};
  }

  /// Attaches an MVCC version store (DESIGN.md "MVCC snapshot reads"):
  /// commits install pre-image versions and RunReadOnly() becomes an
  /// abort-free snapshot read. Requires the graph-sized constructor
  /// (num_vertices > 0); call before the first transaction.
  void EnableMvcc() {
    TUFAST_CHECK(num_vertices_ > 0);
    if (mvcc_ == nullptr) {
      // The hardware path installs through Tx commit hooks; a hook-less
      // backend would hand snapshot readers torn history.
      TUFAST_CHECK(kHtmTxHasCommitHooks<Htm>);
      mvcc_ = std::make_unique<Mvcc>(num_vertices_);
    }
  }
  Mvcc* mvcc_store() { return mvcc_.get(); }

  /// Attaches a WAL sink (durability/wal.h): commits publish their
  /// staged mutations as checksummed records and Run() acks only after
  /// the group commit made them durable. The hardware path publishes
  /// through Tx commit hooks; call before the first transaction.
  void EnableWal(WalSink* sink) {
    TUFAST_CHECK(kHtmTxHasCommitHooks<Htm>);
    wal_sink_ = sink;
  }

  /// Read-only transaction: an abort-free snapshot read once EnableMvcc
  /// was called, an ordinary hybrid Run() otherwise.
  template <typename Fn>
  RunOutcome RunReadOnly(int worker_id, uint64_t size_hint, Fn&& fn) {
    if (mvcc_ == nullptr) return Run(worker_id, size_hint, fn);
    Worker& w = runtime_.GetWorker(worker_id, *this);
    return RunSnapshotReadOnly(*mvcc_, w, worker_id, fn);
  }

  SchedulerStats AggregatedStats() const { return runtime_.AggregatedStats(); }
  Telemetry AggregatedTelemetry() const {
    return runtime_.AggregatedTelemetry();
  }
  const Telemetry* TelemetryForWorker(int worker_id) const {
    return runtime_.TelemetryForWorker(worker_id);
  }
  void ResetStats() { runtime_.ResetStats(); }

 private:
  struct State {
    State(HsyncHybrid& parent, int slot) : htx(parent.htm_, slot) {
      hook_ctx.slot = slot;
      if (parent.mvcc_ != nullptr) {
        hook_ctx.store = parent.mvcc_.get();
        hook_ctx.recorder = &recorder;
      }
      if (parent.wal_sink_ != nullptr) {
        wal_recorder.SetSink(parent.wal_sink_);
        hook_ctx.wal = &wal_recorder;
      }
      if (parent.mvcc_ != nullptr || parent.wal_sink_ != nullptr) {
        if constexpr (kHtmTxHasCommitHooks<Htm>) {
          InstallCommitHooks(htx, hook_ctx);
        }
      }
    }
    typename Htm::Tx htx;
    MvccRecorder recorder;
    WalRecorder wal_recorder;
    CommitHookCtx<Mvcc> hook_ctx;
  };
  using Runtime = WorkerRuntime<State, Telemetry>;
  using Worker = typename Runtime::Worker;

  void AcquireGlobalLock() {
    Backoff backoff;
    while (true) {
      TmWord expected = 0;
      if (__atomic_compare_exchange_n(&global_lock_, &expected, 1,
                                      /*weak=*/false, __ATOMIC_ACQUIRE,
                                      __ATOMIC_RELAXED)) {
        htm_.NotifyNonTxWrite(&global_lock_);
        return;
      }
      backoff.Pause();
    }
  }

  void ReleaseGlobalLock() {
    __atomic_store_n(&global_lock_, 0, __ATOMIC_RELEASE);
    htm_.NotifyNonTxWrite(&global_lock_);
  }

  Htm& htm_;
  const VertexId num_vertices_;
  const Config config_;
  std::unique_ptr<Mvcc> mvcc_;
  WalSink* wal_sink_ = nullptr;
  alignas(kCacheLineBytes) TmWord global_lock_ = 0;
  Runtime runtime_;
};

}  // namespace tufast

#endif  // TUFAST_TM_SCHEDULER_HSYNC_H_
