#ifndef TUFAST_TM_SCHEDULER_HSYNC_H_
#define TUFAST_TM_SCHEDULER_HSYNC_H_

#include <bit>
#include <vector>

#include "common/spin.h"
#include "common/types.h"
#include "htm/htm_config.h"
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

  HsyncHybrid(Htm& htm, VertexId /*num_vertices*/ = 0, Config config = {})
      : htm_(htm), config_(config), runtime_(0x45c0u) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(HsyncHybrid);

  /// Hardware-path transaction context.
  class HwTxn {
   public:
    HwTxn(typename Htm::Tx& htx, const TmWord* global_lock)
        : htx_(htx), global_lock_(global_lock) {}

    TmWord Read(VertexId /*v*/, const TmWord* addr) {
      ++ops_;
      return htx_.Load(addr);
    }
    TmWord ReadForUpdate(VertexId v, const TmWord* addr) {
      return Read(v, addr);  // Optimistic/timestamped: no early locking.
    }

    void Write(VertexId /*v*/, TmWord* addr, TmWord value) {
      ++ops_;
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
      if (htx_.Subscribe(global_lock_) != 0) {
        htx_.template ExplicitAbort<kAbortCodeLockBusy>();
      }
    }

    uint64_t ops() const { return ops_; }
    void ResetOps() { ops_ = 0; }

   private:
    typename Htm::Tx& htx_;
    const TmWord* global_lock_;
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

    void Write(VertexId /*v*/, TmWord* addr, TmWord value) {
      ++ops_;
      pending_.push_back({addr, value});
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

   private:
    friend class HsyncHybrid;
    struct Pending {
      TmWord* addr;
      TmWord value;
    };
    Htm& htm_;
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
    HwTxn hw(w.state.htx, &global_lock_);
    uint32_t txn_aborts = 0;
    for (int attempt = 0; attempt <= config_.htm_retries; ++attempt) {
      BeatAttempt(w);
      hw.ResetOps();
      const AbortStatus status = w.state.htx.Execute([&] {
        hw.SubscribeGlobalLock();
        fn(hw);
      });
      if (status.ok()) {
        return RecordTxnCommit(w, TxnClass::kH, hw.ops(), txn_aborts);
      }
      const HtmAttemptVerdict verdict = RecordHtmAbort(w, status);
      if (verdict == HtmAttemptVerdict::kUserAbort) {
        return RecordTxnUserAbort(w, TxnClass::kH, txn_aborts);
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
    try {
      fn(fb);
    } catch (const UserAbortSignal&) {
      ReleaseGlobalLock();
      return RecordTxnUserAbort(w, TxnClass::kL, txn_aborts);
    } catch (...) {
      ReleaseGlobalLock();
      throw;
    }
    for (const auto& p : fb.pending_) htm_.NonTxStore(p.addr, p.value);
    ReleaseGlobalLock();
    return RecordTxnCommit(w, TxnClass::kL, fb.ops(), txn_aborts);
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
    State(HsyncHybrid& parent, int slot) : htx(parent.htm_, slot) {}
    typename Htm::Tx htx;
  };
  using Runtime = WorkerRuntime<State, Telemetry>;
  using Worker = typename Runtime::Worker;

  void AcquireGlobalLock() {
    Backoff backoff;
    while (true) {
      TmWord expected = 0;
      // seq_cst: the notify's scan must not pass the CAS (the Dekker
      // pair of Tx::Subscribe).
      if (__atomic_compare_exchange_n(&global_lock_, &expected, 1,
                                      /*weak=*/false, __ATOMIC_SEQ_CST,
                                      __ATOMIC_RELAXED)) {
        htm_.NotifySubscribers(&global_lock_);
        return;
      }
      backoff.Pause();
    }
  }

  void ReleaseGlobalLock() {
    // No notify: a subscriber either read 1 and aborted itself or reads 0.
    __atomic_store_n(&global_lock_, 0, __ATOMIC_RELEASE);
  }

  Htm& htm_;
  const Config config_;
  alignas(kCacheLineBytes) TmWord global_lock_ = 0;
  Runtime runtime_;
};

}  // namespace tufast

#endif  // TUFAST_TM_SCHEDULER_HSYNC_H_
