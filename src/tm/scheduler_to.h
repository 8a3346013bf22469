#ifndef TUFAST_TM_SCHEDULER_TO_H_
#define TUFAST_TM_SCHEDULER_TO_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <vector>

#include "common/spin.h"
#include "common/types.h"
#include "htm/htm_config.h"
#include "tm/addr_map.h"
#include "tm/outcome.h"
#include "tm/telemetry.h"
#include "tm/worker_runtime.h"

namespace tufast {

/// Baseline scheduler: timestamp ordering ("TO" in paper Fig. 7). Every
/// transaction draws a start timestamp from a global counter; per-vertex
/// read/write timestamps enforce that operations happen in timestamp
/// order — an operation arriving "too late" aborts the transaction, which
/// retries with a fresh timestamp. Writes are buffered and installed at
/// commit under per-vertex latches.
template <typename Htm, typename Telemetry = NullTelemetry>
class TimestampOrdering {
 public:
  TimestampOrdering(Htm& htm, VertexId num_vertices)
      : htm_(htm),
        read_ts_(num_vertices, 0),
        write_ts_(num_vertices, 0),
        latches_(num_vertices, 0),
        runtime_(0x70u) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(TimestampOrdering);

  class Txn {
   public:
    explicit Txn(TimestampOrdering& parent) : parent_(parent) {}
    TUFAST_DISALLOW_COPY_AND_MOVE(Txn);

    void Reset(uint64_t ts) {
      ts_ = ts;
      ops_ = 0;
      writes_.clear();
      write_map_.Clear();
    }

    TmWord Read(VertexId v, const TmWord* addr) {
      ++ops_;
      if (uint32_t* idx =
              write_map_.Find(reinterpret_cast<uintptr_t>(addr))) {
        return writes_[*idx].value;
      }
      parent_.Latch(v);
      // DrainLoad (not a plain load): an H-TO hardware commit past its
      // commit point may still be flushing buffered wts/rts/data out of
      // the emulated write buffer. Latch() doomed every hardware txn
      // still before its commit point and the latch word keeps new ones
      // out, so draining the committing writers makes these checks — and
      // the data load below, which any data-writer's drained wts store
      // ordered behind its data flush — race-free against the HW path.
      if (parent_.htm_.DrainLoad(&parent_.write_ts_[v]) > ts_) {
        parent_.Unlatch(v);
        throw ToAbortSignal{};  // A younger transaction already wrote v.
      }
      if (parent_.htm_.DrainLoad(&parent_.read_ts_[v]) < ts_) {
        // NonTxStore (not a plain store): H-TO's hardware path writes the
        // same word transactionally, so the store must first drain/doom
        // any transactional owner of the line. No-op difference on the
        // native backend, where coherence handles this.
        parent_.htm_.NonTxStore(&parent_.read_ts_[v], ts_);
      }
      const TmWord value = Htm::NonTxLoad(addr);
      parent_.Unlatch(v);
      return value;
    }

    TmWord ReadForUpdate(VertexId v, const TmWord* addr) {
      return Read(v, addr);  // Optimistic/timestamped: no early locking.
    }

    void Write(VertexId v, TmWord* addr, TmWord value) {
      ++ops_;
      // Early (non-binding) check; the authoritative check re-runs at
      // commit under the latch.
      if (__atomic_load_n(&parent_.read_ts_[v], __ATOMIC_ACQUIRE) > ts_ ||
          __atomic_load_n(&parent_.write_ts_[v], __ATOMIC_ACQUIRE) > ts_) {
        throw ToAbortSignal{};
      }
      bool inserted;
      uint32_t* idx = write_map_.FindOrInsert(
          reinterpret_cast<uintptr_t>(addr),
          static_cast<uint32_t>(writes_.size()), &inserted);
      if (inserted) {
        writes_.push_back(WriteEntry{v, addr, value});
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

    uint64_t ops() const { return ops_; }

   private:
    friend class TimestampOrdering;
    struct WriteEntry {
      VertexId vertex;
      TmWord* addr;
      TmWord value;
    };

    TimestampOrdering& parent_;
    uint64_t ts_ = 0;
    uint64_t ops_ = 0;
    std::vector<WriteEntry> writes_;
    AddrMap write_map_;
    std::vector<VertexId> write_vertices_;
  };

  template <typename Fn>
  RunOutcome Run(int worker_id, uint64_t /*size_hint*/, Fn&& fn) {
    Worker& w = runtime_.GetWorker(worker_id, *this);
    w.telemetry.TxnBegin();
    return RunOptimisticRetryLoop<ToAbortSignal>(
        w, w.state.txn, fn, [this](Txn& txn) { txn.Reset(NextTs()); },
        [this](Txn& txn) { return TryCommit(txn); }, [](Txn&) {});
  }

  SchedulerStats AggregatedStats() const { return runtime_.AggregatedStats(); }
  Telemetry AggregatedTelemetry() const {
    return runtime_.AggregatedTelemetry();
  }
  const Telemetry* TelemetryForWorker(int worker_id) const {
    return runtime_.TelemetryForWorker(worker_id);
  }
  void ResetStats() { runtime_.ResetStats(); }

  /// Shared-metadata access for the H-TO hybrid: its hardware path must
  /// maintain the SAME timestamp words as this software path, or the two
  /// paths could not see each other's conflicts.
  TmWord* ReadTsAddr(VertexId v) { return &read_ts_[v]; }
  TmWord* WriteTsAddr(VertexId v) { return &write_ts_[v]; }
  /// The H-TO hardware path subscribes this word and aborts when it is
  /// held, so a hardware commit can never interleave with a latched
  /// software read or install (mirrors how TuFast H mode and HSync
  /// subscribe their software lock words).
  TmWord* LatchAddr(VertexId v) { return &latches_[v]; }
  uint64_t NextTs() {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  struct ToAbortSignal {};

  struct State {
    State(TimestampOrdering& parent, int /*slot*/) : txn(parent) {}
    Txn txn;
  };
  using Runtime = WorkerRuntime<State, Telemetry>;
  using Worker = typename Runtime::Worker;

  void Latch(VertexId v) {
    Backoff backoff;
    TmWord expected = 0;
    while (!__atomic_compare_exchange_n(&latches_[v], &expected, 1,
                                        /*weak=*/false, __ATOMIC_ACQUIRE,
                                        __ATOMIC_RELAXED)) {
      expected = 0;
      backoff.Pause();
    }
    // The H-TO hardware path subscribes the latch word (HwTxn checks it
    // before touching v), so taking the latch must doom the subscribed
    // hardware transactions — otherwise one could validate and commit on
    // v while this software transaction reads or installs under the
    // latch. No-op on the native backend (the CAS itself invalidates).
    htm_.NotifyNonTxWrite(&latches_[v]);
  }

  void Unlatch(VertexId v) {
    __atomic_store_n(&latches_[v], 0, __ATOMIC_RELEASE);
  }

  bool TryCommit(Txn& txn) {
    auto& wv = txn.write_vertices_;
    wv.clear();
    for (const auto& w : txn.writes_) wv.push_back(w.vertex);
    std::sort(wv.begin(), wv.end());
    wv.erase(std::unique(wv.begin(), wv.end()), wv.end());

    // Latch the write set in sorted order (no deadlock), re-check the
    // timestamp rules, install, advance write timestamps.
    for (const VertexId v : wv) Latch(v);
    for (const VertexId v : wv) {
      // DrainLoad: see Read() — Latch() doomed the active hardware txns
      // and bars new ones; these waits drain the committing ones, so the
      // recheck cannot miss a hardware commit still flushing timestamps.
      if (htm_.DrainLoad(&read_ts_[v]) > txn.ts_ ||
          htm_.DrainLoad(&write_ts_[v]) > txn.ts_) {
        for (const VertexId u : wv) Unlatch(u);
        return false;
      }
    }
    for (const auto& w : txn.writes_) htm_.NonTxStore(w.addr, w.value);
    for (const VertexId v : wv) {
      htm_.NonTxStore(&write_ts_[v], txn.ts_);  // See Read: drains HW owners.
      Unlatch(v);
    }
    return true;
  }

  Htm& htm_;
  std::atomic<uint64_t> clock_{0};
  std::vector<TmWord> read_ts_;
  std::vector<TmWord> write_ts_;
  std::vector<TmWord> latches_;
  Runtime runtime_;
};

}  // namespace tufast

#endif  // TUFAST_TM_SCHEDULER_TO_H_
