#ifndef TUFAST_TM_CONCEPTS_H_
#define TUFAST_TM_CONCEPTS_H_

#include <concepts>
#include <cstdint>

#include "common/types.h"
#include "htm/htm_config.h"
#include "tm/outcome.h"
#include "tm/telemetry.h"

namespace tufast {

/// The transaction-context contract (paper Table I plus the repository's
/// extensions). Every mode context (HTxn/OTxn/LTxn) and every baseline
/// scheduler's Txn satisfies this; algorithm bodies written against it
/// (`auto& txn`) run unchanged on any scheduler.
template <typename T>
concept TransactionContext =
    requires(T& txn, VertexId v, const TmWord* caddr, TmWord* addr,
             TmWord value, const double* cdaddr, double* daddr) {
      { txn.Read(v, caddr) } -> std::same_as<TmWord>;
      { txn.ReadForUpdate(v, caddr) } -> std::same_as<TmWord>;
      { txn.Write(v, addr, value) } -> std::same_as<void>;
      { txn.ReadDouble(v, cdaddr) } -> std::same_as<double>;
      { txn.WriteDouble(v, daddr, 1.0) } -> std::same_as<void>;
      { txn.ops() } -> std::convertible_to<uint64_t>;
      txn.Abort();  // [[noreturn]]; user aborts are final.
    };

/// The telemetry-sink contract: the typed event hooks every scheduler
/// threads through its worker runtime. NullTelemetry satisfies it with
/// empty inline bodies (kEnabled == false lets schedulers skip hook
/// registration and clock reads entirely); EventTelemetry aggregates.
template <typename T>
concept TelemetrySink =
    requires(T& sink, const T& csink, TxnClass cls, SchedMode mode,
             AbortReason reason, uint32_t period, bool cycle, uint32_t width,
             uint32_t depth) {
      { T::kEnabled } -> std::convertible_to<bool>;
      sink.TxnBegin();
      sink.EnterMode(mode);
      sink.AttemptAbort(reason);
      sink.PeriodChange(period);
      sink.DeadlockVictim(cycle);
      sink.TxnCommit(cls);
      sink.TxnUserAbort(cls);
      sink.FusedCommit(width, depth);
      sink.Merge(csink);
    };

/// The scheduler contract shared by TuFast and all six baselines: a
/// worker-scoped Run() plus merged statistics and telemetry. `Fn` is
/// checked at the Run call site (it must accept every mode's context
/// type).
template <typename S>
concept Scheduler = requires(S& tm, const S& ctm, int worker,
                             uint64_t hint) {
  {
    tm.Run(worker, hint, [](auto& txn) { (void)txn; })
  } -> std::same_as<RunOutcome>;
  { ctm.AggregatedStats() } -> std::same_as<SchedulerStats>;
  requires TelemetrySink<decltype(ctm.AggregatedTelemetry())>;
  { ctm.TelemetryForWorker(worker) };
  tm.ResetStats();
};

/// The HTM-backend contract both EmulatedHtm and NativeHtm satisfy: the
/// per-thread Tx handle plus the non-transactional interop hooks the
/// shared lock/metadata protocols need.
template <typename H>
concept HtmBackend = requires(H& htm, typename H::Tx& tx, TmWord* addr,
                              const TmWord* caddr, TmWord value) {
  typename H::Tx;
  { tx.Load(caddr) } -> std::same_as<TmWord>;
  { tx.Store(addr, value) } -> std::same_as<void>;
  { tx.InTx() } -> std::same_as<bool>;
  tx.SegmentBoundary();
  { htm.NonTxStore(addr, value) } -> std::same_as<void>;
  htm.NotifyNonTxWrite(addr);
  { H::NonTxLoad(caddr) } -> std::same_as<TmWord>;
  { htm.DrainLoad(caddr) } -> std::same_as<TmWord>;
};

}  // namespace tufast

#endif  // TUFAST_TM_CONCEPTS_H_
