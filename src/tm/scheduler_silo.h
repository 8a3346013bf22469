#ifndef TUFAST_TM_SCHEDULER_SILO_H_
#define TUFAST_TM_SCHEDULER_SILO_H_

#include <algorithm>
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

/// Baseline scheduler: Silo-style optimistic concurrency control ("OCC"
/// in the paper's figures). Per-vertex TID words (version<<1 | lockbit);
/// reads record the observed TID, commit locks the write set (sorted, so
/// lock acquisition cannot deadlock), validates the read set, installs
/// writes non-transactionally and bumps versions.
template <typename Htm, typename Telemetry = NullTelemetry>
class SiloOcc {
 public:
  SiloOcc(Htm& htm, VertexId num_vertices)
      : htm_(htm), tids_(num_vertices, 0), runtime_(0x5170u) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(SiloOcc);

  class Txn {
   public:
    explicit Txn(SiloOcc& parent) : parent_(parent) {}
    TUFAST_DISALLOW_COPY_AND_MOVE(Txn);

    void Reset() {
      ops_ = 0;
      reads_.clear();
      writes_.clear();
      write_map_.Clear();
    }

    TmWord Read(VertexId v, const TmWord* addr) {
      ++ops_;
      if (uint32_t* idx =
              write_map_.Find(reinterpret_cast<uintptr_t>(addr))) {
        return writes_[*idx].value;
      }
      // Stable-snapshot read: TID must be unlocked and unchanged around
      // the data load (Silo's per-record consistency protocol).
      Backoff backoff;
      uint32_t spins = 0;
      while (true) {
        const TmWord t1 = parent_.LoadTid(v);
        if ((t1 & 1) == 0) {
          const TmWord value = Htm::NonTxLoad(addr);
          const TmWord t2 = parent_.LoadTid(v);
          if (t1 == t2) {
            reads_.push_back(ReadEntry{v, t1, addr, value});
            return value;
          }
        }
        if (++spins > kReadSpinLimit) throw SiloAbortSignal{};
        backoff.Pause();
      }
    }

    TmWord ReadForUpdate(VertexId v, const TmWord* addr) {
      return Read(v, addr);  // Optimistic/timestamped: no early locking.
    }

    void Write(VertexId v, TmWord* addr, TmWord value) {
      ++ops_;
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
    friend class SiloOcc;
    struct ReadEntry {
      VertexId vertex;
      TmWord tid;
      const TmWord* addr;
      TmWord value;
    };
    struct WriteEntry {
      VertexId vertex;
      TmWord* addr;
      TmWord value;
    };
    static constexpr uint32_t kReadSpinLimit = 1000;

    SiloOcc& parent_;
    uint64_t ops_ = 0;
    std::vector<ReadEntry> reads_;
    std::vector<WriteEntry> writes_;
    AddrMap write_map_;
    std::vector<VertexId> write_vertices_;
  };

  template <typename Fn>
  RunOutcome Run(int worker_id, uint64_t /*size_hint*/, Fn&& fn) {
    Worker& w = runtime_.GetWorker(worker_id, *this);
    w.telemetry.TxnBegin();
    return RunOptimisticRetryLoop<SiloAbortSignal>(
        w, w.state.txn, fn, [](Txn& txn) { txn.Reset(); },
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

 private:
  struct SiloAbortSignal {};

  struct State {
    State(SiloOcc& parent, int /*slot*/) : txn(parent) {}
    Txn txn;
  };
  using Runtime = WorkerRuntime<State, Telemetry>;
  using Worker = typename Runtime::Worker;

  TmWord LoadTid(VertexId v) const {
    return __atomic_load_n(&tids_[v], __ATOMIC_ACQUIRE);
  }

  bool TryLockTid(VertexId v) {
    TmWord expected = LoadTid(v);
    if (expected & 1) return false;
    return __atomic_compare_exchange_n(&tids_[v], &expected, expected | 1,
                                       /*weak=*/false, __ATOMIC_ACQUIRE,
                                       __ATOMIC_RELAXED);
  }

  void UnlockTidBump(VertexId v) {
    const TmWord locked = LoadTid(v);
    __atomic_store_n(&tids_[v], ((locked >> 1) + 1) << 1, __ATOMIC_RELEASE);
    htm_.NotifyNonTxWrite(&tids_[v]);
  }

  void UnlockTidKeep(VertexId v) {
    const TmWord locked = LoadTid(v);
    __atomic_store_n(&tids_[v], locked & ~TmWord{1}, __ATOMIC_RELEASE);
  }

  bool TryCommit(Txn& txn) {
    auto& wv = txn.write_vertices_;
    wv.clear();
    for (const auto& w : txn.writes_) wv.push_back(w.vertex);
    std::sort(wv.begin(), wv.end());
    wv.erase(std::unique(wv.begin(), wv.end()), wv.end());

    // Phase 1: lock the write set in sorted order (bounded wait, then
    // back off entirely — Silo aborts rather than blocks).
    size_t locked = 0;
    for (; locked < wv.size(); ++locked) {
      Backoff backoff;
      uint32_t spins = 0;
      while (!TryLockTid(wv[locked])) {
        if (++spins > 200) {
          for (size_t i = 0; i < locked; ++i) UnlockTidKeep(wv[i]);
          return false;
        }
        backoff.Pause();
      }
    }

    // Phase 2: validate reads (TID unchanged, not locked by others).
    for (const auto& r : txn.reads_) {
      const TmWord now = LoadTid(r.vertex);
      const bool locked_by_me =
          std::binary_search(wv.begin(), wv.end(), r.vertex);
      if ((now >> 1) != (r.tid >> 1) || ((now & 1) != 0 && !locked_by_me)) {
        for (const VertexId v : wv) UnlockTidKeep(v);
        return false;
      }
    }

    // Phase 3: install and bump versions.
    for (const auto& w : txn.writes_) htm_.NonTxStore(w.addr, w.value);
    for (const VertexId v : wv) UnlockTidBump(v);
    return true;
  }

  Htm& htm_;
  std::vector<TmWord> tids_;
  Runtime runtime_;
};

}  // namespace tufast

#endif  // TUFAST_TM_SCHEDULER_SILO_H_
