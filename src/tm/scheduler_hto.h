#ifndef TUFAST_TM_SCHEDULER_HTO_H_
#define TUFAST_TM_SCHEDULER_HTO_H_

#include <atomic>
#include <bit>

#include "common/rng.h"
#include "common/spin.h"
#include "common/types.h"
#include "htm/htm_config.h"
#include "tm/outcome.h"
#include "tm/scheduler_to.h"
#include "tm/telemetry.h"
#include "tm/worker_runtime.h"

namespace tufast {

/// Baseline scheduler: HTM-accelerated timestamp ordering ("H-TO" in
/// paper Fig. 13/14, after the HTM+TO hybrid of Wang et al. / Leis et
/// al.). The transaction first attempts to run entirely inside one
/// hardware transaction that *also* maintains the per-vertex read/write
/// timestamps transactionally (so hardware and software paths stay
/// mutually consistent); after bounded retries or a capacity abort it
/// falls back to the pure timestamp-ordering scheduler. Degree-oblivious:
/// rts updates make even read-read sharing conflict in the hardware path,
/// which is exactly the overhead the paper's H mode avoids.
template <typename Htm, typename Telemetry = NullTelemetry>
class HtmTimestampOrdering {
 public:
  struct Config {
    int htm_retries = 4;
  };

  HtmTimestampOrdering(Htm& htm, VertexId num_vertices, Config config = {})
      : htm_(htm),
        config_(config),
        fallback_(htm, num_vertices),
        runtime_(0x470u) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(HtmTimestampOrdering);

  /// Hardware-path context: direct loads/stores plus transactional
  /// timestamp maintenance.
  class HwTxn {
   public:
    HwTxn(HtmTimestampOrdering& parent, typename Htm::Tx& htx)
        : parent_(parent), htx_(htx) {}

    void Reset(uint64_t ts) {
      ts_ = ts;
      ops_ = 0;
    }

    TmWord Read(VertexId v, const TmWord* addr) {
      ++ops_;
      // Subscribe the fallback's commit latch: if the software path holds
      // it, v is mid-read or mid-install — back off. Once subscribed, a
      // later software Latch() dooms this transaction (NotifyNonTxWrite),
      // so a hardware commit can never interleave with a latched software
      // read or install — the same lock-word subscription TuFast H mode
      // and HSync use against their software fallbacks.
      if (htx_.Load(parent_.fallback_.LatchAddr(v)) != 0) {
        htx_.template ExplicitAbort<kAbortCodeLockBusy>();
      }
      TmWord* wts = parent_.fallback_.WriteTsAddr(v);
      TmWord* rts = parent_.fallback_.ReadTsAddr(v);
      if (htx_.Load(wts) > ts_) {
        htx_.template ExplicitAbort<kAbortCodeLockBusy>();
      }
      if (htx_.Load(rts) < ts_) htx_.Store(rts, ts_);
      return htx_.Load(addr);
    }

    TmWord ReadForUpdate(VertexId v, const TmWord* addr) {
      return Read(v, addr);  // Optimistic/timestamped: no early locking.
    }

    void Write(VertexId v, TmWord* addr, TmWord value) {
      ++ops_;
      if (htx_.Load(parent_.fallback_.LatchAddr(v)) != 0) {
        htx_.template ExplicitAbort<kAbortCodeLockBusy>();  // See Read().
      }
      TmWord* wts = parent_.fallback_.WriteTsAddr(v);
      TmWord* rts = parent_.fallback_.ReadTsAddr(v);
      if (htx_.Load(wts) > ts_ || htx_.Load(rts) > ts_) {
        htx_.template ExplicitAbort<kAbortCodeLockBusy>();
      }
      htx_.Store(wts, ts_);
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

    uint64_t ops() const { return ops_; }

   private:
    HtmTimestampOrdering& parent_;
    typename Htm::Tx& htx_;
    uint64_t ts_ = 0;
    uint64_t ops_ = 0;
  };

  template <typename Fn>
  RunOutcome Run(int worker_id, uint64_t size_hint, Fn&& fn) {
    Worker& w = runtime_.GetWorker(worker_id, *this);
    w.telemetry.TxnBegin();
    w.telemetry.EnterMode(SchedMode::kHardware);
    HwTxn hw(*this, w.state.htx);
    uint32_t txn_aborts = 0;
    for (int attempt = 0; attempt <= config_.htm_retries; ++attempt) {
      hw.Reset(fallback_.NextTs());
      const AbortStatus status = w.state.htx.Execute([&] { fn(hw); });
      if (status.ok()) {
        return RecordTxnCommit(w, TxnClass::kH, hw.ops(), txn_aborts);
      }
      const HtmAttemptVerdict verdict = RecordHtmAbort(w, status);
      if (verdict == HtmAttemptVerdict::kUserAbort) {
        return RecordTxnUserAbort(w, TxnClass::kH, txn_aborts);
      }
      ++txn_aborts;
      if (verdict == HtmAttemptVerdict::kCapacity) break;
    }
    // Hand off to the software path. The fallback scheduler begins its
    // own telemetry transaction, so commit latency for fallen-back txns
    // is measured from the hand-off.
    w.telemetry.EnterMode(SchedMode::kOptimistic);
    RunOutcome out = fallback_.Run(worker_id, size_hint, fn);
    out.aborts += txn_aborts;  // The failed hardware attempts count too.
    return out;
  }

  SchedulerStats AggregatedStats() const {
    SchedulerStats total = fallback_.AggregatedStats();
    total.Merge(runtime_.AggregatedStats());
    return total;
  }

  Telemetry AggregatedTelemetry() const {
    Telemetry total = runtime_.AggregatedTelemetry();
    total.Merge(fallback_.AggregatedTelemetry());
    return total;
  }
  const Telemetry* TelemetryForWorker(int worker_id) const {
    return runtime_.TelemetryForWorker(worker_id);
  }

  void ResetStats() {
    fallback_.ResetStats();
    runtime_.ResetStats();
  }

 private:
  struct State {
    State(HtmTimestampOrdering& parent, int slot) : htx(parent.htm_, slot) {}
    typename Htm::Tx htx;
  };
  using Runtime = WorkerRuntime<State, Telemetry>;
  using Worker = typename Runtime::Worker;

  Htm& htm_;
  const Config config_;
  TimestampOrdering<Htm, Telemetry> fallback_;
  Runtime runtime_;
};

}  // namespace tufast

#endif  // TUFAST_TM_SCHEDULER_HTO_H_
