#ifndef TUFAST_TM_TUFAST_H_
#define TUFAST_TM_TUFAST_H_

#include <algorithm>
#include <memory>
#include <string>

#include "common/compiler.h"
#include "common/failpoints.h"
#include "common/types.h"
#include "durability/wal.h"
#include "htm/emulated_htm.h"
#include "mvcc/version_store.h"
#include "sync/lock_manager.h"
#include "sync/lock_table.h"
#include "tm/batch_executor.h"
#include "tm/contention_monitor.h"
#include "tm/modes.h"
#include "tm/outcome.h"
#include "tm/telemetry.h"
#include "tm/worker_runtime.h"

namespace tufast {

/// TuFast: the paper's three-mode hybrid transactional memory.
///
/// Programming model (paper Table I / Fig. 1): wrap each logical task in
/// Run() with an optional size hint (typically the vertex degree); inside
/// the body, access shared words only through txn.Read/Write. The body
/// must be idempotent on private state — it may be re-executed on aborts
/// and across modes, so take `auto& txn` (each mode passes its own type):
///
///   tm.Run(worker, graph.OutDegree(v), [&](auto& txn) {
///     if (txn.Read(v, &match[v]) == kNull) { ... txn.Write(...); }
///   });
///
/// Routing (paper Fig. 10): H mode first (unless the hint exceeds the
/// capacity-optimal op budget, CapacityOptimalOps), with bounded retries
/// on conflicts and an immediate hand-off on capacity aborts; then O
/// mode, halving `period` per failed attempt (backing off only after
/// non-capacity aborts); when `period` sinks below min_period, L mode
/// finishes the job under locks. `period` starts at the contention
/// monitor's analytic optimum (§IV-D), capped by the same capacity
/// budget, unless adaptive_period is off. Every path into L passes one
/// FIFO gate that admits one L transaction at a time (DESIGN.md "L
/// mode"), so L never deadlocks and needs no waits-for graph.
///
/// Lock elision (DESIGN.md "Lock elision"): an H or O hardware attempt
/// subscribes the lock table's held word instead of one lock word per
/// vertex while no vertex lock is held, but only if this worker saw no
/// foreign lock episode since its previous attempt — or, after foreign
/// episodes doomed its elided attempts, over its last few attempts
/// (MayElide, NoteElision).
///
/// Per-worker state (mode contexts, contention monitor, stats, RNG) and
/// the `Telemetry` sink live in the shared WorkerRuntime; `Telemetry` is
/// NullTelemetry by default (zero overhead) or EventTelemetry for
/// per-mode latency/time-in-mode/abort-reason aggregation.
///
/// Thread model: worker ids in [0, kMaxHtmThreads) map 1:1 to OS threads;
/// each id's per-worker state must only ever be used by one thread.
template <typename Htm, typename Telemetry = NullTelemetry>
class TuFastScheduler {
 public:
  /// Fault-injection policy inherited from the HTM backend; Null (free)
  /// unless the backend is the stress harness's FaultyHtm.
  using Failpoints = HtmFailpoints<Htm>;
  /// Version store type (Config::enable_mvcc); shares the backend's
  /// failpoint policy so --mvcc-chaos reaches reclamation and epochs.
  using Mvcc = BasicMvccStore<Failpoints>;

  /// Whether the HTM backend's Tx exposes the commit hooks the H-mode
  /// MVCC install and WAL publish need (EmulatedHtm does; a native
  /// backend without hooks can still run every configuration with both
  /// layers off).
  static constexpr bool kHtmHasCommitHooks = kHtmTxHasCommitHooks<Htm>;

  struct Config {
    /// H-mode retries after conflict aborts before falling to O mode.
    int h_retries = 4;
    /// Size hints above this skip H mode; it also caps the summed hints
    /// of one fused window. 0 = derive from the modeled cache:
    /// CapacityOptimalOps(htm.config()), the op count that maximizes
    /// expected committed work when each op touches two random lines
    /// (89 for the default 64 x 8 L1).
    uint64_t h_hint_threshold = 0;
    /// Size hints above this skip O mode too and go straight to locks.
    uint64_t o_hint_threshold = 16384;
    uint32_t min_period = 100;   // Paper: below this, proceed with L mode.
    /// Upper bound for the adaptive `period`. 0 = derive from the modeled
    /// cache: max(min_period, CapacityOptimalOps(htm.config())). Each O
    /// segment op touches up to two fresh lines (data + vertex lock), so
    /// longer segments mostly buy capacity aborts and re-executions.
    uint32_t max_period = 0;
    bool adaptive_period = true;
    uint32_t static_period = 1000;  // Used when adaptive_period is false.
    /// Ablation switches (bench/ablation_modes.cc): disabling a mode
    /// routes its transactions to the next one in the Fig. 10 pipeline.
    bool enable_h_mode = true;
    bool enable_o_mode = true;
    /// Group-commit fusion (tm/batch_executor.h): RunBatch() fuses runs
    /// of small per-item transactions into single H-mode regions. Hard
    /// cap on the fusion width: the adaptive controller picks the
    /// working width in [1, max_fusion_width] from the monitored
    /// per-item abort probability (same P* analysis as the O period).
    uint32_t max_fusion_width = 16;
    /// Non-zero pins the fusion width (bench fusion-width sweep);
    /// 0 = adaptive. Width 1 routes every item alone, exactly like one
    /// Run() per item (the equivalence tests rely on this).
    uint32_t fixed_fusion_width = 0;
    /// Abort-storm circuit breaker (tm/contention_monitor.h): sustained
    /// attempt-abort rate routes small transactions straight to L and
    /// clamps fusion to width 1 until half-open probes recover.
    bool enable_breaker = true;
    /// MVCC snapshot reads (mvcc/version_store.h, DESIGN.md "MVCC
    /// snapshot reads"). Off by default: the non-MVCC path stays
    /// bit-identical to a build with no version store at all (the
    /// equivalence suites rely on this). On, every commit path installs
    /// pre-image versions at its commit timestamp and RunReadOnly()
    /// executes abort-free snapshot transactions against them.
    bool enable_mvcc = false;
    /// Crash-consistent durability (durability/wal.h, DESIGN.md
    /// "Durability & crash recovery"). Off by default: the non-durable
    /// path stays bit-identical to a build with no WAL at all (the
    /// equivalence suites rely on this). On, every commit path stages
    /// its logical graph mutations (txn.WalNote) and publishes them as
    /// one checksummed record inside the commit window; Run() returns
    /// only after the record is durable per wal_sync (group commit: a
    /// concurrent worker's fsync may cover it).
    bool enable_wal = false;
    /// Log file path; required when enable_wal is set (the scheduler
    /// owns the writer). Alternatively attach an external sink with
    /// EnableWal() — the crash harness does, to arm failpoints.
    std::string wal_path;
    /// fsync policy for the owned group-commit writer.
    WalSyncPolicy wal_sync = WalSyncPolicy::kFsyncEachCommit;
  };

  TuFastScheduler(Htm& htm, VertexId num_vertices, Config config = {})
      : htm_(htm),
        config_(config),
        lock_table_(htm, num_vertices),
        lock_manager_(lock_table_),
        h_hint_threshold_(config.h_hint_threshold != 0
                              ? config.h_hint_threshold
                              : CapacityOptimalOps(htm.config())),
        max_period_(config.max_period != 0
                        ? config.max_period
                        : std::max(config.min_period,
                                   CapacityOptimalOps(htm.config()))),
        runtime_(0x70f5a7u) {
    TUFAST_CHECK(max_period_ >= config_.min_period);
    if (config_.enable_mvcc) {
      // H-mode commits install versions through the backend's commit
      // hooks; a hook-less backend would silently skip them and hand
      // snapshot readers torn history.
      TUFAST_CHECK(kHtmHasCommitHooks);
      mvcc_ = std::make_unique<Mvcc>(num_vertices);
    }
    if (config_.enable_wal) {
      // H-mode commits publish WAL records through the backend's commit
      // hooks; a hook-less backend would silently drop them and break
      // the every-acked-commit-durable contract.
      TUFAST_CHECK(kHtmHasCommitHooks);
      TUFAST_CHECK(!config_.wal_path.empty());
      owned_wal_ = std::make_unique<BasicWalWriter<Failpoints>>(
          config_.wal_path, config_.wal_sync);
      TUFAST_CHECK(owned_wal_->ok());
      wal_sink_ = owned_wal_.get();
    }
  }
  TUFAST_DISALLOW_COPY_AND_MOVE(TuFastScheduler);

  /// Executes one transaction. Retries and mode escalation are internal;
  /// returns once the body committed or called txn.Abort().
  template <typename Fn>
  RunOutcome Run(int worker_id, uint64_t size_hint, Fn&& fn) {
    Worker& w = runtime_.GetWorker(worker_id, *this);
    w.telemetry.TxnBegin();
    return RunRouted(w, worker_id, size_hint, fn);
  }

  /// Executes one read-only transaction. With Config::enable_mvcc the
  /// body runs against a single commit-timestamp snapshot (a
  /// BasicMvccSnapshotTxn): it observes an atomic prefix of the commit
  /// order, never blocks writers, and can never abort — `outcome.aborts`
  /// is 0 by construction. The body must only read (the snapshot context
  /// has no Write; generic `auto& txn` read bodies compile unchanged).
  /// Without MVCC this degrades to a normal Run() — same values, but the
  /// reads compete in the conflict space and pay aborts/retries.
  template <typename Fn>
  RunOutcome RunReadOnly(int worker_id, uint64_t size_hint, Fn&& fn) {
    if (mvcc_ == nullptr) return Run(worker_id, size_hint, fn);
    Worker& w = runtime_.GetWorker(worker_id, *this);
    return RunSnapshotReadOnly(*mvcc_, w, worker_id, fn);
  }

  /// Batched execution of items [lo, hi) (tm/batch_executor.h): fuses
  /// runs of H-eligible items into single hardware regions — one
  /// BEGIN/COMMIT and one set of lock-word subscriptions per window —
  /// with capacity-aware window formation (the summed size hints of a
  /// window must fit the H budget), abort-driven bisection (halve the
  /// width and retry; width 1 degrades to the normal H->O->L router),
  /// and an adaptive target width from the contention monitor's P*
  /// analysis applied to the per-item abort probability.
  ///
  /// `body(txn, i)` and `hint(i)` follow the batch_executor.h contract;
  /// items whose hint exceeds the H threshold, and all items when H mode
  /// is disabled or the width is pinned to 1, are routed per-item exactly
  /// like Run().
  template <typename HintFn, typename BodyFn>
  void RunBatch(int worker_id, uint64_t lo, uint64_t hi, HintFn&& hint,
                BodyFn&& body) {
    Worker& w = runtime_.GetWorker(worker_id, *this);
    RunBatchWindowed(w, worker_id, lo, hi, hint, body);
  }

 private:
  /// Scheduler-specific per-worker payload; stats/telemetry/RNG live in
  /// the shared WorkerRuntime slot around it.
  struct State {
    State(TuFastScheduler& parent, int slot)
        : htx(parent.htm_, slot),
          otxn(parent.htm_, htx, parent.lock_table_,
               parent.config_.o_hint_threshold + 64),
          ltxn(parent.htm_, slot, parent.lock_manager_),
          held_seen(parent.lock_table_.HeldWord()),
          monitor(ContentionMonitor::Config{
              .decay = 0.999,
              .min_period = parent.config_.min_period,
              .max_period = parent.max_period_,
              .initial_p = 0.0,
              .breaker_enabled = parent.config_.enable_breaker}) {
      hook_ctx.slot = slot;
      if (parent.mvcc_ != nullptr) {
        hook_ctx.store = parent.mvcc_.get();
        hook_ctx.recorder = &recorder;
        // O and L commits install from their own write logs
        // (PublishBufferedWrites, tm/modes.h); H commits have only the
        // write-back buffer, so the recorder + commit hooks reconstruct
        // their write set (pre-images are read from live memory between
        // pre_publish and the flush).
        otxn.SetMvcc(hook_ctx.store);
        ltxn.SetMvcc(hook_ctx.store);
      }
      if (parent.wal_sink_ != nullptr) {
        wal_recorder.SetSink(parent.wal_sink_);
        // O and L publish their staged notes from their own commit
        // windows (PublishBufferedWrites); H publishes through the Tx
        // commit hooks (scoped by WalRecorder::hw_armed, since O-mode
        // segments share the Tx).
        hook_ctx.wal = &wal_recorder;
        otxn.SetWal(&wal_recorder);
        ltxn.SetWal(&wal_recorder);
      }
      if (parent.mvcc_ != nullptr || parent.wal_sink_ != nullptr) {
        if constexpr (kHtmHasCommitHooks) {
          InstallCommitHooks(htx, hook_ctx);
        }
      }
    }

    typename Htm::Tx htx;
    OTxn<Htm> otxn;
    LTxn<Htm> ltxn;
    /// The elision rule's history (MayElide, NoteElision): the lock
    /// table's held word as this worker last read it, how many intervals
    /// between its attempts in a row saw it unchanged, and how many an
    /// attempt needs before it may elide.
    TmWord held_seen;
    uint32_t quiet_streak = 0;
    uint32_t quiet_needed = 1;
    ContentionMonitor monitor;
    /// H-mode MVCC write-set recording (unused unless enable_mvcc).
    MvccRecorder recorder;
    /// WAL mutation staging (unused unless a WAL sink is attached).
    WalRecorder wal_recorder;
    CommitHookCtx<Mvcc> hook_ctx;
    /// Last breaker state this worker's telemetry was told about; the
    /// router diffs against the monitor to emit transition events.
    BreakerState last_breaker = BreakerState::kClosed;
  };
  using Runtime = WorkerRuntime<State, Telemetry>;
  using Worker = typename Runtime::Worker;

  /// The batch core: capacity-aware window formation + abort-driven
  /// bisection over items [lo, hi).
  template <typename HintFn, typename BodyFn>
  void RunBatchWindowed(Worker& w, int worker_id, uint64_t lo, uint64_t hi,
                        HintFn& hint, BodyFn& body) {
    if (!config_.enable_h_mode) {
      for (uint64_t i = lo; i < hi; ++i) {
        RunItemRouted(w, worker_id, i, hint, body);
      }
      return;
    }
    uint64_t i = lo;
    while (i < hi) {
      const uint64_t first_hint = hint(i);
      if (first_hint > h_hint_threshold_) {
        // Too big for H mode: route per-item (O or L will take it).
        RunItemRouted(w, worker_id, i, hint, body);
        ++i;
        continue;
      }
      const uint32_t target =
          config_.fixed_fusion_width != 0
              ? config_.fixed_fusion_width
              : w.state.monitor.CurrentFusionWidth(config_.max_fusion_width);
      // Grow the window while the next item keeps the summed footprint
      // hint within the H budget — a window whose hints already exceed
      // capacity would only pay a deterministic abort plus bisection.
      uint64_t budget = first_hint;
      uint64_t j = i + 1;
      while (j < hi && (j - i) < target) {
        const uint64_t hj = hint(j);
        if (hj > h_hint_threshold_ || budget + hj > h_hint_threshold_) break;
        budget += hj;
        ++j;
      }
      ExecuteFusedRange(w, worker_id, i, j, hint, body, /*depth=*/0);
      i = j;
    }
  }

  /// One per-item transaction inside a batch: same accounting and
  /// routing as Run(), with the item index bound into the body.
  template <typename HintFn, typename BodyFn>
  void RunItemRouted(Worker& w, int worker_id, uint64_t i, HintFn& hint,
                     BodyFn& body) {
    w.telemetry.TxnBegin();
    auto item_fn = [&body, i](auto& txn) { body(txn, i); };
    RunRouted(w, worker_id, hint(i), item_fn);
  }

  /// One fused attempt over items [lo, hi), bisecting on abort. `depth`
  /// counts the halvings since the original window. Terminates: the
  /// width strictly shrinks toward the width-1 base case, which is the
  /// ordinary (terminating) per-item router.
  template <typename HintFn, typename BodyFn>
  void ExecuteFusedRange(Worker& w, int worker_id, uint64_t lo, uint64_t hi,
                         HintFn& hint, BodyFn& body, uint32_t depth) {
    const uint64_t width = hi - lo;
    if (width == 1) {
      RunItemRouted(w, worker_id, lo, hint, body);
      return;
    }
    w.telemetry.EnterMode(SchedMode::kHardware);
    HTxn<Htm> htxn(w.state.htx, lock_table_, RecorderFor(w),
                   WalRecorderFor(w));
    const FusedAttemptResult attempt =
        RunFusedHtmAttempt(w.state.htx, htxn, lo, hi, body, MayElide(w));
    NoteElision(w, htxn.elided(), attempt.status);
    if (attempt.status.ok()) {
      // The fused bodies' notes went out as ONE record at pre_publish;
      // ack it now that the region (and its subscriptions) retired.
      AccountWalCommit(w, WalRecorderFor(w));
      w.state.monitor.RecordFusedAttempt(width, /*aborted=*/false);
      RecordFusedCommit(w, static_cast<uint32_t>(width), depth, attempt.ops);
      return;
    }
    // Any abort — capacity, conflict, lock-busy, or a user abort from
    // one of the fused bodies — bisects. A user abort is not final
    // here: bisection isolates the aborting item at width 1, where the
    // router delivers the per-item user-abort semantics.
    w.state.monitor.RecordFusedAttempt(width, /*aborted=*/true);
    RecordFusedAbort(w, attempt.status);
    const uint64_t mid = lo + width / 2;
    ExecuteFusedRange(w, worker_id, lo, mid, hint, body, depth + 1);
    ExecuteFusedRange(w, worker_id, mid, hi, hint, body, depth + 1);
  }

  /// Emits breaker state-transition telemetry by diffing the monitor's
  /// current state against the last one this worker reported. Called at
  /// the router's decision points, which bracket every place a
  /// transition can happen (RecordAttempt / BreakerShouldBypass /
  /// TripBreaker); at most one transition occurs between observations.
  void NoteBreakerState(Worker& w) {
    const BreakerState s = w.state.monitor.breaker_state();
    if (s == w.state.last_breaker) return;
    switch (s) {
      case BreakerState::kOpen: w.telemetry.BreakerTrip(); break;
      case BreakerState::kHalfOpen: w.telemetry.BreakerHalfOpen(); break;
      case BreakerState::kClosed: w.telemetry.BreakerClose(); break;
    }
    w.state.last_breaker = s;
  }

  /// The H-mode contexts record their write set only when MVCC is on.
  MvccRecorder* RecorderFor(Worker& w) {
    return mvcc_ != nullptr ? &w.state.recorder : nullptr;
  }

  /// The mode contexts stage WAL notes only when a sink is attached.
  WalRecorder* WalRecorderFor(Worker& w) {
    return wal_sink_ != nullptr ? &w.state.wal_recorder : nullptr;
  }

  /// The adaptive elision rule (DESIGN.md "Lock elision"), read once
  /// before each hardware attempt. An interval is quiet when the held
  /// word still equals what this worker read before its previous attempt:
  /// no foreign lock episode began or ended in between. The attempt may
  /// elide its per-vertex lock checks once the last `quiet_needed`
  /// intervals were quiet — just the last one until elision loses.
  bool MayElide(Worker& w) {
    const TmWord held = lock_table_.HeldWord();
    w.state.quiet_streak =
        held == w.state.held_seen ? w.state.quiet_streak + 1 : 0;
    w.state.held_seen = held;
    return w.state.quiet_streak >= w.state.quiet_needed;
  }

  /// Feedback from a hardware attempt whose checks were elided. A
  /// conflict abort while the held word moved is a loss — a foreign
  /// episode's notify most likely doomed it, a doom the per-vertex path
  /// would only take on a footprint overlap — and doubles the quiet
  /// streak the next elision needs; an elided commit halves it, down to
  /// the one interval of the plain rule.
  void NoteElision(Worker& w, uint32_t elided, const AbortStatus& status) {
    if (elided == 0) return;
    w.stats.elided_attempts += elided;
    if (status.ok()) {
      w.state.quiet_needed = std::max(1u, w.state.quiet_needed / 2);
    } else if (status.cause == AbortCause::kConflict &&
               lock_table_.HeldWord() != w.state.held_seen) {
      w.state.quiet_needed =
          std::min(kMaxQuietNeeded, 2 * w.state.quiet_needed);
    }
  }

  /// Re-reads the held word after this worker's own O commit or L
  /// transaction, so its own lock episodes do not count as foreign.
  void ForgetOwnLocks(Worker& w) {
    w.state.held_seen = lock_table_.HeldWord();
  }

  /// Every path into L: the lock-mode retry loop behind the L gate, with
  /// the `prior_aborts` failed attempts the transaction already paid.
  /// Its lock episode is the worker's own (ForgetOwnLocks). Outlined and
  /// cold like RunOptimisticThenLock: inlined, the loop bloats RunRouted,
  /// the H fast path.
  template <typename Fn>
  TUFAST_NOINLINE_COLD RunOutcome RunLockMode(Worker& w, int worker_id, Fn& fn,
                                              TxnClass cls,
                                              uint32_t prior_aborts) {
    const RunOutcome outcome = RunLockTxnLoop<Failpoints>(
        w, w.state.ltxn, fn, cls, worker_id, prior_aborts, &l_gate_);
    ForgetOwnLocks(w);
    return outcome;
  }

  /// The Fig. 10 router shared by Run() and the batch executor's
  /// per-item degradation path. The caller has already issued
  /// telemetry.TxnBegin().
  template <typename Fn>
  RunOutcome RunRouted(Worker& w, int worker_id, uint64_t size_hint, Fn& fn) {
    if (size_hint > config_.o_hint_threshold) {
      return RunLockMode(w, worker_id, fn, TxnClass::kL, 0);
    }

    if constexpr (Failpoints::kEnabled) {
      // Forced abort storm: trip the breaker as if a full window of
      // attempts had aborted.
      if (Failpoints::Hit(FailSite::kBreakerTrip, worker_id) ==
          FailAction::kFail) {
        w.state.monitor.TripBreaker();
      }
    }
    NoteBreakerState(w);
    if (w.state.monitor.BreakerShouldBypass()) {
      ++w.stats.breaker_bypass;
      NoteBreakerState(w);  // A bypass can step the breaker to half-open.
      return RunLockMode(w, worker_id, fn, TxnClass::kL, 0);
    }

    // Failed attempts across all modes; the L loop continues the count,
    // so max_txn_aborts covers the whole transaction.
    uint32_t txn_aborts = 0;
    bool try_h = config_.enable_h_mode && size_hint <= h_hint_threshold_;
    if constexpr (Failpoints::kEnabled) {
      // Forced H -> O demotion: the transaction behaves exactly as if its
      // H retry budget were exhausted up front (paper Fig. 10 hand-off).
      if (try_h && Failpoints::Hit(FailSite::kRouterSkipH, worker_id) ==
                       FailAction::kFail) {
        try_h = false;
      }
    }
    if (try_h) {
      w.telemetry.EnterMode(SchedMode::kHardware);
      HTxn<Htm> htxn(w.state.htx, lock_table_, RecorderFor(w),
                     WalRecorderFor(w));
      // Adaptive retry budget (paper SIV-D): under a high attempt-abort
      // rate, each retry re-executes the whole body just to abort again.
      const int h_retries =
          w.state.monitor.CurrentHRetries(config_.h_retries);
      for (int attempt = 0; attempt <= h_retries; ++attempt) {
        BeatAttempt(w);
        htxn.BeginAttempt(MayElide(w));
        const AbortStatus status = w.state.htx.Execute([&] { fn(htxn); });
        NoteElision(w, htxn.elided(), status);
        if (status.ok()) {
          AccountWalCommit(w, WalRecorderFor(w));  // Ack: region retired.
          w.state.monitor.RecordAttempt(htxn.ops(), /*aborted=*/false);
          return RecordTxnCommit(w, TxnClass::kH, htxn.ops(), txn_aborts);
        }
        const HtmAttemptVerdict verdict = RecordHtmAbort(w, status);
        if (verdict == HtmAttemptVerdict::kUserAbort) {
          return RecordTxnUserAbort(w, TxnClass::kH, txn_aborts);
        }
        w.state.monitor.RecordAttempt(htxn.ops(), /*aborted=*/true);
        ++txn_aborts;
        if (verdict == HtmAttemptVerdict::kCapacity) {
          // Capacity aborts repeat deterministically: go to O directly
          // (paper Fig. 10).
          break;
        }
        // Conflict retry: back off so the conflicting peers drain
        // before the re-execution pays the whole body again.
        if (attempt < h_retries) {
          PayBackoff(w, txn_aborts - 1);
        }
      }
      NoteBreakerState(w);  // The attempt stream can trip the breaker.
    }

    bool try_o = config_.enable_o_mode;
    if constexpr (Failpoints::kEnabled) {
      // Forced O -> L demotion: as if every period halving had failed.
      if (try_o && Failpoints::Hit(FailSite::kRouterSkipO, worker_id) ==
                       FailAction::kFail) {
        try_o = false;
      }
    }
    if (!try_o) {
      return RunLockMode(w, worker_id, fn, TxnClass::kO2L, txn_aborts);
    }
    return RunOptimisticThenLock(w, worker_id, fn, txn_aborts);
  }

 public:
  Htm& htm() { return htm_; }
  const Config& config() const { return config_; }
  LockTable<Htm>& lock_table() { return lock_table_; }
  uint64_t h_hint_threshold() const { return h_hint_threshold_; }

  /// Version-store introspection (null unless Config::enable_mvcc).
  Mvcc* mvcc_store() { return mvcc_.get(); }
  const Mvcc* mvcc_store() const { return mvcc_.get(); }

  /// Attaches an external WAL sink (the crash harness's failpoint-armed
  /// writer). Call before the first Run on any worker — lazily built
  /// worker slots wire their recorders to whatever sink is attached at
  /// construction time.
  void EnableWal(WalSink* sink) {
    TUFAST_CHECK(kHtmHasCommitHooks);
    wal_sink_ = sink;
  }

  /// Active WAL sink (null when durability is off).
  WalSink* wal_sink() { return wal_sink_; }
  /// The Config-owned writer (null when the sink is external or WAL
  /// is off); exposes durable_seq/fsyncs/records/bytes telemetry.
  BasicWalWriter<Failpoints>* wal_writer() { return owned_wal_.get(); }
  const BasicWalWriter<Failpoints>* wal_writer() const {
    return owned_wal_.get();
  }

  /// Stats merged across all workers. Call only while no transaction is
  /// in flight (workers mutate their stats without synchronization).
  SchedulerStats AggregatedStats() const { return runtime_.AggregatedStats(); }

  /// Serving front end (serving/server.h): record that worker
  /// `worker_id` started executing a request that sat `delay_ns` in the
  /// run queue. Must be called from the worker's own thread (the slot is
  /// worker-owned, like every other stats mutation); exactly once per
  /// executed request, so `serve_requests` doubles as the executed count
  /// in the conservation cross-check.
  void NoteQueueDelay(int worker_id, uint64_t delay_ns) {
    RecordQueueDelay(runtime_.GetWorker(worker_id, *this), delay_ns);
  }

  /// Telemetry merged across all workers (same in-flight contract).
  Telemetry AggregatedTelemetry() const {
    return runtime_.AggregatedTelemetry();
  }
  const Telemetry* TelemetryForWorker(int worker_id) const {
    return runtime_.TelemetryForWorker(worker_id);
  }

  HtmStats AggregatedHtmStats() const {
    HtmStats total;
    runtime_.ForEachWorker(
        [&](const Worker& w) { total.Merge(w.state.htx.stats()); });
    return total;
  }

  void ResetStats() {
    runtime_.ResetStats([](State& s) { s.htx.ResetStats(); });
  }

  /// Monitor introspection for the adaptive-period trace (Fig. 17).
  const ContentionMonitor* MonitorForWorker(int worker_id) const {
    const Worker* w = runtime_.worker(worker_id);
    return w != nullptr ? &w->state.monitor : nullptr;
  }

  /// L-gate introspection (tests check that every exit path leaves it).
  const TicketGate& l_gate() const { return l_gate_; }

  /// Summed per-worker heartbeat counters for the stall watchdog. Only
  /// meaningful after every worker slot has run at least one warmup
  /// transaction (see WorkerRuntime::Heartbeats).
  typename Runtime::HeartbeatTotals Heartbeats() const {
    return runtime_.Heartbeats();
  }

 private:
  /// O-mode loop plus the L-mode fallthrough (paper Fig. 10, lower half).
  /// Outlined and cold: only medium/huge transactions come here, and
  /// keeping the instantiations out of Run() preserves the H fast path's
  /// code generation (see TUFAST_NOINLINE_COLD). `txn_aborts` counts the
  /// failed H attempts.
  template <typename Fn>
  TUFAST_NOINLINE_COLD RunOutcome RunOptimisticThenLock(Worker& w,
                                                        int worker_id, Fn& fn,
                                                        uint32_t txn_aborts) {
    w.telemetry.EnterMode(SchedMode::kOptimistic);
    // Halve the segment length until it commits or sinks below
    // min_period.
    uint32_t period = config_.adaptive_period ? w.state.monitor.CurrentPeriod()
                                              : config_.static_period;
    bool first_attempt = true;
    while (period >= config_.min_period) {
      bool capacity_abort = false;
      BeatAttempt(w);
      w.telemetry.PeriodChange(period);
      w.state.otxn.Reset(period, MayElide(w));
      const AbortStatus status = w.state.htx.Execute([&] { fn(w.state.otxn); });
      NoteElision(w, w.state.otxn.elided(), status);
      if (status.ok()) {
        const OCommitResult result = w.state.otxn.CommitSoftware();
        ForgetOwnLocks(w);
        if (result == OCommitResult::kOk) {
          AccountWalCommit(w, WalRecorderFor(w));  // Ack: locks released.
          const TxnClass cls =
              first_attempt ? TxnClass::kO : TxnClass::kOPlus;
          w.state.monitor.RecordAttempt(w.state.otxn.ops(), /*aborted=*/false);
          return RecordTxnCommit(w, cls, w.state.otxn.ops(), txn_aborts);
        }
        RecordAttemptAbort(w, result == OCommitResult::kLockBusy
                                  ? AbortReason::kLockBusy
                                  : AbortReason::kValidation);
        w.state.monitor.RecordAttempt(w.state.otxn.ops(), /*aborted=*/true);
      } else {
        const HtmAttemptVerdict verdict = RecordHtmAbort(w, status);
        if (verdict == HtmAttemptVerdict::kUserAbort) {
          return RecordTxnUserAbort(w, TxnClass::kO, txn_aborts);
        }
        w.state.monitor.RecordAttempt(w.state.otxn.ops(), /*aborted=*/true);
        capacity_abort = verdict == HtmAttemptVerdict::kCapacity;
      }
      ++txn_aborts;
      period /= 2;
      first_attempt = false;
      // Halved-period retry: back off before re-executing against the
      // same contenders. A capacity abort is about the segment's
      // footprint, not contention (as in H mode): the halving alone
      // answers it.
      if (!capacity_abort && period >= config_.min_period) {
        PayBackoff(w, txn_aborts - 1);
      }
    }

    return RunLockMode(w, worker_id, fn, TxnClass::kO2L, txn_aborts);
  }

  /// Bounds NoteElision's doubling; at this many quiet intervals in a
  /// row elision is off in practice.
  static constexpr uint32_t kMaxQuietNeeded = 1u << 20;

  Htm& htm_;
  const Config config_;
  LockTable<Htm> lock_table_;
  LockManager<Htm> lock_manager_;
  const uint64_t h_hint_threshold_;
  const uint32_t max_period_;
  /// Admits one L transaction at a time (RunLockMode).
  TicketGate l_gate_;
  std::unique_ptr<Mvcc> mvcc_;
  std::unique_ptr<BasicWalWriter<Failpoints>> owned_wal_;
  WalSink* wal_sink_ = nullptr;
  Runtime runtime_;
};

/// Default TuFast instantiation on the emulated HTM backend.
using TuFast = TuFastScheduler<EmulatedHtm>;

/// Instrumented variant: identical routing, EventTelemetry aggregation.
using TuFastInstrumented = TuFastScheduler<EmulatedHtm, EventTelemetry>;

}  // namespace tufast

#endif  // TUFAST_TM_TUFAST_H_
