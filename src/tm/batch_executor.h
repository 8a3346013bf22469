#ifndef TUFAST_TM_BATCH_EXECUTOR_H_
#define TUFAST_TM_BATCH_EXECUTOR_H_

#include <cstdint>
#include <type_traits>

#include "common/compiler.h"

namespace tufast {

/// Batch execution front-end for the per-vertex transaction hot loop.
///
/// The motivating observation (Besta et al.'s Atomic Active Messages,
/// DyAdHyTM, and PAPER.md §IV-B/§IV-D) is that per-vertex graph
/// transactions are so small that fixed per-transaction overhead —
/// BEGIN/COMMIT, lock-word subscription, write-set setup — dominates.
/// Fusing k consecutive items from a `ParallelForChunked` chunk into one
/// H-mode HTM region amortizes that overhead k-fold, at the cost of
/// retrying a whole window when any fused item aborts. TuFast implements
/// the fused path natively (TuFastScheduler::RunBatch: capacity-aware
/// window formation, abort-driven bisection, adaptive width from the
/// contention monitor); every other scheduler keeps its per-item
/// semantics via the fallback loop below, so algorithms written against
/// RunBatch() run unchanged — and produce identical results — on all
/// seven schedulers.
///
/// Contract for `body(txn, i)`: identical to a per-item Run() body, plus
/// one extra rule — items in the same chunk must be *independently
/// idempotent*, i.e. re-executing any subsequence of them (a bisected
/// retry re-runs only part of the window) must be harmless. Bodies that
/// keep all mutable private state per-item (reset at body entry, read
/// only after RunBatch returns) satisfy this automatically.
/// `hint(i)` returns the size hint that would be passed to Run(i).
///
/// Progress interaction: while TuFast's abort-storm circuit breaker is
/// tripped, its native RunBatch clamps the adaptive width to 1
/// (tm/contention_monitor.h): a storm that keeps killing fused regions
/// would pay the whole window's re-execution for every abort.

/// Detects a scheduler exposing a native fused-batch path.
template <typename S, typename HintFn, typename BodyFn>
concept FusionScheduler = requires(S& tm, int worker, uint64_t lo, uint64_t hi,
                                   HintFn& hint, BodyFn& body) {
  tm.RunBatch(worker, lo, hi, hint, body);
};

/// Runs items [lo, hi) on scheduler `tm` from worker `worker_id`.
/// Dispatches to the scheduler's native RunBatch when it has one
/// (TuFast group-commit fusion); otherwise falls back to one Run() per
/// item, which is bit-identical to the pre-batching loops.
template <typename S, typename HintFn, typename BodyFn>
TUFAST_ALWAYS_INLINE void RunBatch(S& tm, int worker_id, uint64_t lo,
                                   uint64_t hi, HintFn&& hint, BodyFn&& body) {
  using Hint = std::remove_reference_t<HintFn>;
  using Body = std::remove_reference_t<BodyFn>;
  if constexpr (FusionScheduler<S, Hint, Body>) {
    tm.RunBatch(worker_id, lo, hi, hint, body);
  } else {
    for (uint64_t i = lo; i < hi; ++i) {
      tm.Run(worker_id, hint(i), [&](auto& txn) { body(txn, i); });
    }
  }
}

}  // namespace tufast

#endif  // TUFAST_TM_BATCH_EXECUTOR_H_
