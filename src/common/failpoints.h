#ifndef TUFAST_COMMON_FAILPOINTS_H_
#define TUFAST_COMMON_FAILPOINTS_H_

#include <cstdint>
#include <type_traits>

namespace tufast {

/// Compile-time pluggable fault injection (DESIGN.md "Failpoints and
/// schedule fuzzing"). Mirrors the telemetry pattern: every hook site in
/// the HTM emulation, the lock substrate and the TuFast router asks a
/// `Failpoints` policy what to do; the default `NullFailpoints` answers
/// "nothing" from a constexpr inline function, so release builds contain
/// no trace of the instrumentation. The active policy (`StressFailpoints`,
/// src/testing/failpoints.h) consults a seeded plan that can force aborts
/// at exact operation indices and perturb thread schedules with
/// randomized yields — the only way a 1-core host explores the rare
/// abort/fallback interleavings hybrid-TM correctness depends on.
///
/// Named hook sites. One enum across all layers so a single seeded plan
/// (and its replay trace) covers the whole stack.
enum class FailSite : uint8_t {
  kHtmLoad = 0,        // EmulatedHtm Tx::Load: force conflict/capacity
  kHtmStore,           // EmulatedHtm Tx::Store: force conflict/capacity
  kHtmCommit,          // EmulatedHtm Tx::Commit: force late conflict
  kLockAcquireShared,  // LockManager::AcquireShared: force victim abort
  kLockAcquireExclusive,  // LockManager::AcquireExclusive: force victim
  kLockUpgrade,           // LockManager::Upgrade: force victim abort
  kLockTryExclusive,      // LockTable::TryLockExclusive: force contention
  kLockTryUpgrade,        // LockTable::TryUpgrade: force upgrade busy
  kRouterSkipH,           // TuFast router: force H -> O demotion
  kRouterSkipO,           // TuFast router: force O -> L demotion
  kWorklistPop,           // DrainWorklist: perturb between pop and run
  kBreakerTrip,           // ContentionMonitor: force the breaker open
  kStarvationToken,       // L retry loop: force starvation escalation
  kVictimReabort,         // L retry loop: synthesize extra victim aborts
  kVersionReclaim,        // MVCC EndInstall: force a reclamation pass
  kStaleEpoch,            // MVCC BeginSnapshot: stretch the pinned window
  kServeQueueFull,        // ServeEngine::Offer: force a run-queue bounce
  kServeDeferFull,        // ServeEngine defer path: force defer-queue full
  kWalTornWrite,          // WAL flush: corrupt a bit inside the tail record
  kWalShortWrite,         // WAL flush: persist only a prefix of the tail
  kCrashBeforeFsync,      // WAL flush: crash after write, before fsync
  kCheckpointPartial,     // Checkpoint: crash between tmp write and rename
  kNumSites
};

inline constexpr int kNumFailSites = static_cast<int>(FailSite::kNumSites);

inline const char* FailSiteName(FailSite s) {
  switch (s) {
    case FailSite::kHtmLoad: return "htm_load";
    case FailSite::kHtmStore: return "htm_store";
    case FailSite::kHtmCommit: return "htm_commit";
    case FailSite::kLockAcquireShared: return "lock_acquire_shared";
    case FailSite::kLockAcquireExclusive: return "lock_acquire_exclusive";
    case FailSite::kLockUpgrade: return "lock_upgrade";
    case FailSite::kLockTryExclusive: return "lock_try_exclusive";
    case FailSite::kLockTryUpgrade: return "lock_try_upgrade";
    case FailSite::kRouterSkipH: return "router_skip_h";
    case FailSite::kRouterSkipO: return "router_skip_o";
    case FailSite::kWorklistPop: return "worklist_pop";
    case FailSite::kBreakerTrip: return "breaker_trip";
    case FailSite::kStarvationToken: return "starvation_token";
    case FailSite::kVictimReabort: return "victim_reabort";
    case FailSite::kVersionReclaim: return "version_reclaim";
    case FailSite::kStaleEpoch: return "stale_epoch";
    case FailSite::kServeQueueFull: return "serve_queue_full";
    case FailSite::kServeDeferFull: return "serve_defer_full";
    case FailSite::kWalTornWrite: return "wal_torn_write";
    case FailSite::kWalShortWrite: return "wal_short_write";
    case FailSite::kCrashBeforeFsync: return "crash_before_fsync";
    case FailSite::kCheckpointPartial: return "checkpoint_partial";
    default: return "?";
  }
}

/// What an armed failpoint tells its site to do. Each site interprets the
/// action in its own failure vocabulary; schedule perturbation (yields)
/// happens inside the plan and needs no action value.
enum class FailAction : uint8_t {
  kNone = 0,       // proceed normally
  kAbortConflict,  // HTM sites: synthesize a conflict abort
  kAbortCapacity,  // HTM sites: synthesize a capacity abort
  kFail,           // lock sites: fail the acquisition / pick a victim;
                   // router sites: skip the mode (forced demotion)
};

/// The default policy: a constexpr no-op. `kEnabled == false` lets every
/// site vanish behind `if constexpr`, so a NullFailpoints build is
/// bit-identical in behavior and cost to code with no hooks at all
/// (verified by micro_ops_benchmark, see DESIGN.md).
struct NullFailpoints {
  static constexpr bool kEnabled = false;
  static constexpr FailAction Hit(FailSite /*site*/, int /*slot*/) {
    return FailAction::kNone;
  }
};

/// Failpoint policy carried by an HTM backend type: `Htm::Failpoints` if
/// declared, NullFailpoints otherwise. Lets the lock substrate and the
/// schedulers (all templated on Htm) inherit the backend's policy without
/// growing their own template parameter.
template <typename Htm, typename = void>
struct HtmFailpointsOf {
  using type = NullFailpoints;
};
template <typename Htm>
struct HtmFailpointsOf<Htm, std::void_t<typename Htm::Failpoints>> {
  using type = typename Htm::Failpoints;
};
template <typename Htm>
using HtmFailpoints = typename HtmFailpointsOf<Htm>::type;

}  // namespace tufast

#endif  // TUFAST_COMMON_FAILPOINTS_H_
