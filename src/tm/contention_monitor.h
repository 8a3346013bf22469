#ifndef TUFAST_TM_CONTENTION_MONITOR_H_
#define TUFAST_TM_CONTENTION_MONITOR_H_

#include <cmath>
#include <cstdint>

#include "common/compiler.h"
#include "htm/htm_config.h"

namespace tufast {

/// Optimal O-mode segment length for per-operation abort probability p
/// (paper §IV-D): an HTM segment of P operations commits all P with
/// probability (1-p)^P, so the expected committed work is (1-p)^P * P,
/// maximized at P* = -1 / ln(1-p)  (≈ 1/p for small p).
inline uint32_t OptimalPeriod(double p, uint32_t min_period,
                              uint32_t max_period) {
  // NaN (e.g. a 0/0 abort ratio) would fail both ordered comparisons
  // below and reach the uint32 cast, which is UB; treat it as "no
  // signal", like p == 0.
  if (std::isnan(p)) return max_period;
  if (p <= 0.0) return max_period;
  if (p >= 1.0) return min_period;
  const double p_star = -1.0 / std::log1p(-p);
  const double rounded = std::nearbyint(p_star);
  // Clamp in double before casting: for p near 0, p_star overflows
  // uint32 range long before it overflows double.
  if (rounded <= min_period) return min_period;
  if (rounded >= max_period) return max_period;
  return static_cast<uint32_t>(rounded);
}

/// Capacity-optimal hardware work size: the same §IV-D goodput rule with
/// the modeled cache's fit curve in place of the conflict probability.
/// Each TuFast H/O operation can touch two fresh lines (the subscribed
/// vertex lock word plus the data word), so a k-op region commits with
/// probability Pr[fit(2k)] and the expected committed work is
/// k * Pr[fit(2k)]. Returns the maximizing k in [1, MaxLines()/2] (89 for
/// the default 64 x 8 geometry); the scheduler derives its H-mode /
/// fused-window budget and its O-mode max period from it.
inline uint32_t CapacityOptimalOps(const HtmConfig& cfg) {
  const uint32_t max_ops = cfg.MaxLines() / 2;
  uint32_t best_k = 1;
  double best_work = 0.0;
  for (uint32_t k = 1; k <= max_ops; ++k) {
    const double work = k * CapacityFitProbability(cfg, 2 * k);
    if (work > best_work) {
      best_work = work;
      best_k = k;
    }
  }
  return best_k;
}

/// Abort-storm circuit breaker state (DESIGN.md "Progress guard"):
///
///       sustained abort rate >= trip_rate over one window
///   kClosed ───────────────────────────────────────────► kOpen
///      ▲                                                   │
///      │ probe rate <= close_rate                          │ open_txns
///      │                                                   ▼ bypassed
///   (probe rate > close_rate reopens) ◄──────────────── kHalfOpen
///
/// Open = small transactions bypass H/O and go straight to L, and the
/// fusion width clamps to 1, deliberately *reducing* concurrency instead
/// of burning retries ("On the Cost of Concurrency in TM", Ravi).
/// Half-open lets a bounded probe batch back through the normal router;
/// their measured abort rate decides between closing and re-opening.
enum class BreakerState : uint8_t { kClosed = 0, kOpen, kHalfOpen };

inline const char* BreakerStateName(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
    default: return "?";
  }
}

/// Per-worker estimator of the per-operation abort probability p,
/// maintained as an exponentially-decayed ratio of aborted attempts to
/// operations executed. TuFast consults it at BEGIN to pick the starting
/// `period` (paper §IV-D: "by continuously monitoring p during the
/// execution, we enforce this strategy adaptively"). Also hosts the
/// abort-storm circuit breaker, which shares the attempt stream but uses
/// *windowed* (non-decayed) counters so a storm trips it on a hard edge
/// rather than an asymptote.
class ContentionMonitor {
 public:
  struct Config {
    /// Decay applied per recorded attempt; closer to 1 = longer memory.
    double decay = 0.999;
    uint32_t min_period = 100;
    uint32_t max_period = 2048;
    /// Optimism before any signal: start with the longest segments.
    double initial_p = 0.0;

    /// Circuit breaker (off by default; TuFast enables it from its own
    /// Config::enable_breaker). All counts are deterministic functions
    /// of this worker's attempt stream — no clocks, no cross-worker
    /// state — so runs replay exactly under a fixed seed.
    bool breaker_enabled = false;
    /// Attempts per decision window in the closed state.
    uint32_t breaker_window = 64;
    /// Windowed attempt-abort rate that trips the breaker open.
    double breaker_trip_rate = 0.85;
    /// Probe-window rate at or below which a half-open breaker closes.
    double breaker_close_rate = 0.5;
    /// Transactions bypassed (routed straight to L) while open.
    uint32_t breaker_open_txns = 128;
    /// Probe transactions admitted in half-open before deciding.
    uint32_t breaker_probe_txns = 16;
  };

  explicit ContentionMonitor(Config config)
      : config_(config),
        decayed_ops_(1.0),
        decayed_aborts_(config.initial_p) {}
  ContentionMonitor() : ContentionMonitor(Config{}) {}

  /// Records one hardware attempt: `ops` operations executed, and whether
  /// the attempt ended in a (conflict) abort.
  void RecordAttempt(uint64_t ops, bool aborted) {
    if (ops == 0) ops = 1;
    decayed_ops_ = decayed_ops_ * config_.decay + static_cast<double>(ops);
    decayed_aborts_ = decayed_aborts_ * config_.decay + (aborted ? 1.0 : 0.0);
    decayed_attempts_ = decayed_attempts_ * config_.decay + 1.0;
    if (config_.breaker_enabled) BreakerRecordAttempt(aborted);
  }

  /// Current estimate of the per-operation abort probability.
  double EstimatedP() const {
    const double p = decayed_aborts_ / decayed_ops_;
    return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  }

  /// Starting `period` for the next O-mode execution.
  uint32_t CurrentPeriod() const {
    return OptimalPeriod(EstimatedP(), config_.min_period,
                         config_.max_period);
  }

  /// Fraction of recent hardware attempts that aborted. Drives the
  /// adaptive H-mode retry budget (§IV-D studies the retry count): when
  /// most attempts abort, retrying re-pays the whole transaction body
  /// for nothing, so the router cuts the budget.
  double AttemptAbortRate() const {
    return decayed_attempts_ > 0 ? decayed_aborts_ / decayed_attempts_ : 0.0;
  }

  /// Retry budget for H mode given the configured maximum.
  int CurrentHRetries(int configured) const {
    const double rate = AttemptAbortRate();
    if (rate > 0.6) return 0;
    if (rate > 0.3) return configured < 1 ? configured : 1;
    return configured;
  }

  /// Records one *fused* hardware attempt covering `items` per-vertex
  /// transactions. Fused items play the same role for the fusion-width
  /// controller that operations play for the O-mode period controller: a
  /// width-k region commits all k items with probability (1-p_item)^k,
  /// so the same P* analysis applies with p measured per item.
  void RecordFusedAttempt(uint64_t items, bool aborted) {
    if (items == 0) items = 1;
    decayed_items_ = decayed_items_ * config_.decay + static_cast<double>(items);
    decayed_item_aborts_ =
        decayed_item_aborts_ * config_.decay + (aborted ? 1.0 : 0.0);
  }

  /// Current estimate of the per-fused-item abort probability.
  double EstimatedItemP() const {
    if (decayed_items_ <= 0.0) return 0.0;
    const double p = decayed_item_aborts_ / decayed_items_;
    return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  }

  /// Target fusion width for the next batched H-mode region: the P*
  /// formula applied to the per-item abort probability, clamped to
  /// [1, max_width]. With no abort signal this returns max_width (be
  /// greedy); under heavy aborting it collapses to 1, i.e. the plain
  /// per-item router.
  uint32_t CurrentFusionWidth(uint32_t max_width) const {
    if (max_width <= 1) return 1;
    // A tripped breaker clamps fusion to width 1: a storm that keeps
    // killing fused regions pays width * retry for every abort.
    if (breaker_state_ != BreakerState::kClosed) return 1;
    return OptimalPeriod(EstimatedItemP(), 1, max_width);
  }

  /// Router gate, called once per routed transaction. Returns true when
  /// the transaction should bypass H/O and go straight to L. Stateful:
  /// bypasses are what count down the open state toward half-open, and
  /// half-open probe admissions are metered here too.
  bool BreakerShouldBypass() {
    if (!config_.breaker_enabled) return false;
    if (breaker_state_ == BreakerState::kClosed) return false;
    if (breaker_state_ == BreakerState::kOpen) {
      if (open_remaining_ > 0) {
        --open_remaining_;
        return true;
      }
      breaker_state_ = BreakerState::kHalfOpen;
      ++breaker_half_opens_;
      probe_remaining_ = config_.breaker_probe_txns;
      window_attempts_ = 0;
      window_aborts_ = 0;
    }
    // Half-open: admit the probe batch, bypass everything after it until
    // the probes' attempts complete the decision window.
    if (probe_remaining_ > 0) {
      --probe_remaining_;
      return false;
    }
    return true;
  }

  /// Forces the breaker open (the kBreakerTrip failpoint / tests).
  void TripBreaker() {
    if (!config_.breaker_enabled) return;
    Trip();
  }

  BreakerState breaker_state() const { return breaker_state_; }
  uint64_t breaker_trips() const { return breaker_trips_; }
  uint64_t breaker_half_opens() const { return breaker_half_opens_; }
  uint64_t breaker_closes() const { return breaker_closes_; }

  const Config& config() const { return config_; }

 private:
  void BreakerRecordAttempt(bool aborted) {
    if (breaker_state_ == BreakerState::kOpen) return;  // Nothing to measure.
    ++window_attempts_;
    if (aborted) ++window_aborts_;
    if (breaker_state_ == BreakerState::kClosed) {
      if (window_attempts_ < config_.breaker_window) return;
      const double rate =
          static_cast<double>(window_aborts_) / window_attempts_;
      if (rate >= config_.breaker_trip_rate) {
        Trip();
      } else {
        window_attempts_ = 0;
        window_aborts_ = 0;
      }
      return;
    }
    // Half-open: the probe batch's attempts decide.
    if (window_attempts_ < config_.breaker_probe_txns) return;
    const double rate = static_cast<double>(window_aborts_) / window_attempts_;
    if (rate <= config_.breaker_close_rate) {
      breaker_state_ = BreakerState::kClosed;
      ++breaker_closes_;
    } else {
      Trip();
    }
    window_attempts_ = 0;
    window_aborts_ = 0;
  }

  void Trip() {
    breaker_state_ = BreakerState::kOpen;
    ++breaker_trips_;
    open_remaining_ = config_.breaker_open_txns;
    probe_remaining_ = 0;
    window_attempts_ = 0;
    window_aborts_ = 0;
  }

  Config config_;
  double decayed_ops_;
  double decayed_aborts_;
  double decayed_attempts_ = 1.0;
  // Fusion-width estimator state (per fused item, not per operation).
  double decayed_items_ = 0.0;
  double decayed_item_aborts_ = 0.0;
  // Circuit breaker (windowed, non-decayed).
  BreakerState breaker_state_ = BreakerState::kClosed;
  uint32_t window_attempts_ = 0;
  uint32_t window_aborts_ = 0;
  uint32_t open_remaining_ = 0;
  uint32_t probe_remaining_ = 0;
  uint64_t breaker_trips_ = 0;
  uint64_t breaker_half_opens_ = 0;
  uint64_t breaker_closes_ = 0;
};

}  // namespace tufast

#endif  // TUFAST_TM_CONTENTION_MONITOR_H_
