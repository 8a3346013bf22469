// Edge-case unit tests for OptimalPeriod (paper §IV-D): the closed-form
// P* = -1/ln(1-p) must degrade gracefully at p -> 0, p -> 1, on NaN
// input, and when the rounded optimum lands on a clamp boundary — the
// double -> uint32 cast must never see an out-of-range value (UB). Also
// the capacity counterpart, CapacityOptimalOps, and the fit curve it
// maximizes over.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "tm/contention_monitor.h"

namespace tufast {
namespace {

constexpr uint32_t kMin = 100;
constexpr uint32_t kMax = 2048;

TEST(OptimalPeriodTest, ZeroProbabilityMeansMaxPeriod) {
  EXPECT_EQ(OptimalPeriod(0.0, kMin, kMax), kMax);
  EXPECT_EQ(OptimalPeriod(-0.0, kMin, kMax), kMax);
  EXPECT_EQ(OptimalPeriod(-1.0, kMin, kMax), kMax);  // Clamped below.
}

TEST(OptimalPeriodTest, CertainAbortMeansMinPeriod) {
  EXPECT_EQ(OptimalPeriod(1.0, kMin, kMax), kMin);
  EXPECT_EQ(OptimalPeriod(2.0, kMin, kMax), kMin);  // Clamped above.
}

TEST(OptimalPeriodTest, ApproachingZeroClampsToMaxWithoutOverflow) {
  // p = 1e-12 gives P* ~ 1e12, far beyond uint32 range: the clamp must
  // happen in double space before any cast.
  EXPECT_EQ(OptimalPeriod(1e-12, kMin, kMax), kMax);
  EXPECT_EQ(OptimalPeriod(std::numeric_limits<double>::min(), kMin, kMax),
            kMax);
  EXPECT_EQ(OptimalPeriod(std::numeric_limits<double>::denorm_min(), kMin,
                          kMax),
            kMax);
  // Even with an absurd max_period close to uint32's range.
  EXPECT_EQ(OptimalPeriod(1e-15, 1, ~uint32_t{0}), ~uint32_t{0});
}

TEST(OptimalPeriodTest, ApproachingOneClampsToMin) {
  EXPECT_EQ(OptimalPeriod(0.999999, kMin, kMax), kMin);
  EXPECT_EQ(OptimalPeriod(std::nextafter(1.0, 0.0), kMin, kMax), kMin);
}

TEST(OptimalPeriodTest, NanIsTreatedAsNoSignal) {
  EXPECT_EQ(OptimalPeriod(std::nan(""), kMin, kMax), kMax);
  EXPECT_EQ(OptimalPeriod(std::numeric_limits<double>::quiet_NaN(), kMin,
                          kMax),
            kMax);
}

TEST(OptimalPeriodTest, InteriorValueMatchesClosedForm) {
  // p = 0.005: P* = -1/ln(0.995) ~ 199.5 -> rounds to 200 (banker's
  // rounding via nearbyint in the default rounding mode).
  const double p = 0.005;
  const uint32_t period = OptimalPeriod(p, kMin, kMax);
  const double p_star = -1.0 / std::log1p(-p);
  EXPECT_EQ(period, static_cast<uint32_t>(std::nearbyint(p_star)));
  EXPECT_GE(period, kMin);
  EXPECT_LE(period, kMax);
}

TEST(OptimalPeriodTest, RoundingAtClampBoundaries) {
  // Find the p whose optimum is exactly min_period: P* = kMin requires
  // ln(1-p) = -1/kMin, i.e. p = 1 - exp(-1/kMin). Slightly larger p must
  // clamp to kMin, slightly smaller must stay above it.
  const double boundary_p = 1.0 - std::exp(-1.0 / kMin);
  EXPECT_EQ(OptimalPeriod(boundary_p * 1.01, kMin, kMax), kMin);
  EXPECT_GT(OptimalPeriod(boundary_p * 0.5, kMin, kMax), kMin);

  const double max_boundary_p = 1.0 - std::exp(-1.0 / kMax);
  EXPECT_EQ(OptimalPeriod(max_boundary_p * 0.99, kMin, kMax), kMax);
  EXPECT_LT(OptimalPeriod(max_boundary_p * 2.0, kMin, kMax), kMax);
}

TEST(OptimalPeriodTest, MonotoneNonIncreasingInP) {
  uint32_t prev = ~uint32_t{0};
  for (double p = 1e-6; p < 1.0; p *= 1.7) {
    const uint32_t period = OptimalPeriod(p, kMin, kMax);
    EXPECT_LE(period, prev) << "p=" << p;
    prev = period;
  }
}

TEST(ContentionMonitorEdgeTest, FreshMonitorUsesInitialP) {
  ContentionMonitor monitor;
  EXPECT_EQ(monitor.CurrentPeriod(), monitor.config().max_period);

  ContentionMonitor::Config pessimistic;
  pessimistic.initial_p = 1.0;
  ContentionMonitor hot(pessimistic);
  EXPECT_EQ(hot.CurrentPeriod(), pessimistic.min_period);
}

TEST(ContentionMonitorEdgeTest, AllAbortsDriveToMinPeriod) {
  ContentionMonitor monitor;
  for (int i = 0; i < 5000; ++i) monitor.RecordAttempt(1, true);
  EXPECT_EQ(monitor.CurrentPeriod(), monitor.config().min_period);
  EXPECT_GT(monitor.EstimatedP(), 0.5);
}

// ---------------------------------------------------------------------
// Capacity-derived budgets: the modeled cache's fit curve and the op
// count that maximizes expected committed work under it.

HtmConfig Geometry(uint32_t sets, uint32_t ways) {
  HtmConfig cfg;
  cfg.num_sets = sets;
  cfg.num_ways = ways;
  return cfg;
}

TEST(CapacityFitTest, ExactAtTheEndsAndMonotoneBetween) {
  for (const HtmConfig cfg :
       {Geometry(64, 8), Geometry(64, 4), Geometry(4, 1)}) {
    EXPECT_EQ(CapacityFitProbability(cfg, 0), 1.0);
    EXPECT_EQ(CapacityFitProbability(cfg, cfg.num_ways), 1.0);
    EXPECT_EQ(CapacityFitProbability(cfg, cfg.MaxLines() + 1), 0.0);
    double prev = 1.0;
    for (uint32_t lines = 1; lines <= cfg.MaxLines() + 1; ++lines) {
      const double fit = CapacityFitProbability(cfg, lines);
      EXPECT_GE(fit, 0.0);
      EXPECT_LE(fit, prev) << "lines=" << lines;
      prev = fit;
    }
  }
}

TEST(CapacityFitTest, DefaultGeometryTracksFig4) {
  // The emulated abort probabilities fig04 measures for random
  // footprints of 8/12/16/20 KB (0.015 / 0.21 / 0.77 / 0.99).
  const HtmConfig cfg;
  EXPECT_NEAR(1.0 - CapacityFitProbability(cfg, 8192 / 64), 0.015, 0.01);
  EXPECT_NEAR(1.0 - CapacityFitProbability(cfg, 12288 / 64), 0.22, 0.02);
  EXPECT_NEAR(1.0 - CapacityFitProbability(cfg, 16384 / 64), 0.75, 0.02);
  EXPECT_NEAR(1.0 - CapacityFitProbability(cfg, 20480 / 64), 0.99, 0.01);
}

TEST(CapacityOptimalOpsTest, MatchesBruteForceArgmax) {
  for (const HtmConfig cfg : {Geometry(64, 8), Geometry(64, 4),
                              Geometry(32, 8), Geometry(4, 2),
                              Geometry(4, 1)}) {
    uint32_t best_k = 0;
    double best_work = -1.0;
    for (uint32_t k = 1; k <= cfg.MaxLines() / 2; ++k) {
      const double work = k * CapacityFitProbability(cfg, 2 * k);
      if (work > best_work) {
        best_work = work;
        best_k = k;
      }
    }
    EXPECT_EQ(CapacityOptimalOps(cfg), best_k)
        << cfg.num_sets << " x " << cfg.num_ways;
  }
}

TEST(CapacityOptimalOpsTest, NeverZeroAndNearNinetyForTheDefaultL1) {
  for (const HtmConfig cfg :
       {Geometry(64, 8), Geometry(64, 4), Geometry(32, 8), Geometry(4, 2),
        Geometry(4, 1), Geometry(1, 1)}) {
    EXPECT_GE(CapacityOptimalOps(cfg), 1u)
        << cfg.num_sets << " x " << cfg.num_ways;
  }
  const uint32_t c = CapacityOptimalOps(HtmConfig{});
  EXPECT_GE(c, 80u);
  EXPECT_LE(c, 100u);
  // Far below the half-capacity budget it replaces: 2 * 256 random lines
  // fit a 64 x 8 cache with probability ~1e-15.
  EXPECT_LT(CapacityFitProbability(HtmConfig{}, HtmConfig{}.MaxLines()),
            1e-11);
}

TEST(ContentionMonitorEdgeTest, ZeroOpsAttemptIsCountedAsOne) {
  ContentionMonitor monitor;
  monitor.RecordAttempt(0, true);  // Must not divide by zero / go NaN.
  EXPECT_FALSE(std::isnan(monitor.EstimatedP()));
  EXPECT_GE(monitor.CurrentPeriod(), monitor.config().min_period);
  EXPECT_LE(monitor.CurrentPeriod(), monitor.config().max_period);
}

}  // namespace
}  // namespace tufast
