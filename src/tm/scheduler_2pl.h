#ifndef TUFAST_TM_SCHEDULER_2PL_H_
#define TUFAST_TM_SCHEDULER_2PL_H_

#include "common/types.h"
#include "sync/lock_manager.h"
#include "sync/lock_table.h"
#include "tm/modes.h"
#include "tm/outcome.h"
#include "tm/progress_guard.h"
#include "tm/telemetry.h"
#include "tm/worker_runtime.h"

namespace tufast {

/// Baseline scheduler: plain two-phase locking — TuFast's L mode applied
/// to *every* transaction regardless of size (paper Fig. 7 / Fig. 13 /
/// Fig. 14 comparison point "2PL"), without TuFast's L gate: concurrent
/// lock transactions may deadlock, and the lock manager's wait bound
/// breaks the cycle by making a waiter a timeout victim.
template <typename Htm, typename Telemetry = NullTelemetry>
class TwoPhaseLocking {
 public:
  TwoPhaseLocking(Htm& htm, VertexId num_vertices)
      : htm_(htm),
        lock_table_(htm, num_vertices),
        lock_manager_(lock_table_), runtime_(0x2b1u) {
    lock_manager_.SetProgressSignals(&progress_guard_.signals());
    if constexpr (Telemetry::kEnabled) {
      lock_manager_.SetVictimCallback(
          [](void* ctx, int slot, VertexId /*v*/) {
            auto* self = static_cast<TwoPhaseLocking*>(ctx);
            if (auto* w = self->runtime_.worker(slot)) {
              w->telemetry.DeadlockVictim();
            }
          },
          this);
    }
  }
  TUFAST_DISALLOW_COPY_AND_MOVE(TwoPhaseLocking);

  template <typename Fn>
  RunOutcome Run(int worker_id, uint64_t /*size_hint*/, Fn&& fn) {
    Worker& w = runtime_.GetWorker(worker_id, *this);
    w.telemetry.TxnBegin();
    return RunLockTxnLoop<HtmFailpoints<Htm>>(
        w, w.state.ltxn, fn, TxnClass::kL,
        ProgressContext{&progress_guard_, worker_id, 0});
  }

  /// Progress-guard introspection (starvation stress tests).
  ProgressGuard& progress_guard() { return progress_guard_; }
  /// Lock-table introspection (the stress suites check its held count).
  LockTable<Htm>& lock_table() { return lock_table_; }

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
    State(TwoPhaseLocking& parent, int slot)
        : ltxn(parent.htm_, slot, parent.lock_manager_) {}
    LTxn<Htm> ltxn;
  };
  using Runtime = WorkerRuntime<State, Telemetry>;
  using Worker = typename Runtime::Worker;

  Htm& htm_;
  LockTable<Htm> lock_table_;
  LockManager<Htm> lock_manager_;
  /// Same escalation ladder as TuFast's L mode: the baseline sees the
  /// identical per-transaction retry bound in the starvation stress.
  ProgressGuard progress_guard_;
  Runtime runtime_;
};

}  // namespace tufast

#endif  // TUFAST_TM_SCHEDULER_2PL_H_
