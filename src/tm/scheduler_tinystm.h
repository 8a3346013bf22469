#ifndef TUFAST_TM_SCHEDULER_TINYSTM_H_
#define TUFAST_TM_SCHEDULER_TINYSTM_H_

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

/// Baseline scheduler: word-based software transactional memory in the
/// TinySTM/LSA style ("STM" in paper Fig. 11/13/14): a global version
/// clock, a striped ownership-record (orec) table hashed by address,
/// encounter-time write locking with write-back buffering, and
/// timestamp-validated invisible reads. This is what TuFast degrades to
/// when all hardware instructions are replaced by software counterparts.
template <typename Htm, typename Telemetry = NullTelemetry>
class TinyStm {
 public:
  explicit TinyStm(Htm& htm, VertexId /*num_vertices*/ = 0)
      : htm_(htm), orecs_(kOrecCount, 0), runtime_(0x57u) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(TinyStm);

  class Txn {
   public:
    explicit Txn(TinyStm& parent, int slot)
        : parent_(parent),
          owner_mark_((static_cast<uint64_t>(slot) << 1) | 1) {}
    TUFAST_DISALLOW_COPY_AND_MOVE(Txn);

    void Reset() {
      rv_ = parent_.clock_.load(std::memory_order_acquire);
      ops_ = 0;
      reads_.clear();
      write_orecs_.clear();
      writes_.clear();
      write_map_.Clear();
    }

    TmWord Read(VertexId /*v*/, const TmWord* addr) {
      ++ops_;
      if (uint32_t* idx =
              write_map_.Find(reinterpret_cast<uintptr_t>(addr))) {
        return writes_[*idx].value;
      }
      const size_t orec = parent_.OrecIndex(addr);
      const uint64_t o1 = parent_.LoadOrec(orec);
      if (o1 & 1) {
        if (o1 != owner_mark_composite(orec)) throw StmAbortSignal{};
        // Locked by us through a different address mapping to the same
        // stripe: memory still holds the committed value (write-back).
        return Htm::NonTxLoad(addr);
      }
      const TmWord value = Htm::NonTxLoad(addr);
      const uint64_t o2 = parent_.LoadOrec(orec);
      if (o1 != o2 || (o1 >> 1) > rv_) throw StmAbortSignal{};
      reads_.push_back(ReadEntry{orec, o1});
      return value;
    }

    TmWord ReadForUpdate(VertexId v, const TmWord* addr) {
      return Read(v, addr);  // Optimistic/timestamped: no early locking.
    }

    void Write(VertexId /*v*/, TmWord* addr, TmWord value) {
      ++ops_;
      bool inserted;
      uint32_t* idx = write_map_.FindOrInsert(
          reinterpret_cast<uintptr_t>(addr),
          static_cast<uint32_t>(writes_.size()), &inserted);
      if (!inserted) {
        writes_[*idx].value = value;
        return;
      }
      writes_.push_back(WriteEntry{addr, value});
      // Encounter-time stripe locking.
      const size_t orec = parent_.OrecIndex(addr);
      const uint64_t mark = owner_mark_composite(orec);
      uint64_t current = parent_.LoadOrec(orec);
      if (current == mark) return;  // Stripe already ours.
      if ((current & 1) || (current >> 1) > rv_) throw StmAbortSignal{};
      if (!parent_.CasOrec(orec, current, mark)) throw StmAbortSignal{};
      write_orecs_.push_back(OrecEntry{orec, current});
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
    friend class TinyStm;
    struct ReadEntry {
      size_t orec;
      uint64_t version;
    };
    struct OrecEntry {
      size_t orec;
      uint64_t previous;
    };
    struct WriteEntry {
      TmWord* addr;
      TmWord value;
    };

    uint64_t owner_mark_composite(size_t /*orec*/) const {
      return owner_mark_;
    }

    TinyStm& parent_;
    const uint64_t owner_mark_;  // (slot<<1)|1: odd = locked marker.
    uint64_t rv_ = 0;
    uint64_t ops_ = 0;
    std::vector<ReadEntry> reads_;
    std::vector<OrecEntry> write_orecs_;
    std::vector<WriteEntry> writes_;
    AddrMap write_map_;
  };

  template <typename Fn>
  RunOutcome Run(int worker_id, uint64_t /*size_hint*/, Fn&& fn) {
    Worker& w = runtime_.GetWorker(worker_id, *this);
    w.telemetry.TxnBegin();
    return RunOptimisticRetryLoop<StmAbortSignal>(
        w, w.state.txn, fn, [](Txn& txn) { txn.Reset(); },
        [this](Txn& txn) { return TryCommit(txn); },
        [this](Txn& txn) { RollbackOrecs(txn); });
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
  struct StmAbortSignal {};
  static constexpr size_t kOrecCount = size_t{1} << 20;

  struct State {
    State(TinyStm& parent, int slot) : txn(parent, slot) {}
    Txn txn;
  };
  using Runtime = WorkerRuntime<State, Telemetry>;
  using Worker = typename Runtime::Worker;

  size_t OrecIndex(const void* addr) const {
    const uint64_t line = reinterpret_cast<uintptr_t>(addr) >> 3;
    uint64_t z = line * 0x9e3779b97f4a7c15ULL;
    return (z ^ (z >> 29)) & (kOrecCount - 1);
  }

  uint64_t LoadOrec(size_t i) const {
    return __atomic_load_n(&orecs_[i], __ATOMIC_ACQUIRE);
  }

  bool CasOrec(size_t i, uint64_t expected, uint64_t desired) {
    return __atomic_compare_exchange_n(&orecs_[i], &expected, desired,
                                       /*weak=*/false, __ATOMIC_ACQ_REL,
                                       __ATOMIC_RELAXED);
  }

  void RollbackOrecs(Txn& txn) {
    for (const auto& e : txn.write_orecs_) {
      __atomic_store_n(&orecs_[e.orec], e.previous, __ATOMIC_RELEASE);
    }
  }

  bool TryCommit(Txn& txn) {
    if (txn.writes_.empty()) return true;  // Read-only: rv validation done.
    const uint64_t wv = clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (wv > txn.rv_ + 1) {
      // Somebody committed since we started: re-validate the read set.
      for (const auto& r : txn.reads_) {
        const uint64_t now = LoadOrec(r.orec);
        if (now != r.version && now != txn.owner_mark_composite(r.orec)) {
          RollbackOrecs(txn);
          return false;
        }
      }
    }
    for (const auto& w : txn.writes_) htm_.NonTxStore(w.addr, w.value);
    for (const auto& e : txn.write_orecs_) {
      __atomic_store_n(&orecs_[e.orec], wv << 1, __ATOMIC_RELEASE);
      htm_.NotifyNonTxWrite(&orecs_[e.orec]);
    }
    return true;
  }

  Htm& htm_;
  std::atomic<uint64_t> clock_{0};
  std::vector<uint64_t> orecs_;
  Runtime runtime_;
};

}  // namespace tufast

#endif  // TUFAST_TM_SCHEDULER_TINYSTM_H_
