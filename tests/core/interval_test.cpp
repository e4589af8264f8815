#include "core/interval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/accuracy_model.h"
#include "core/pair_simulation.h"

namespace vlm::core {
namespace {

TEST(IntervalEstimator, CoversTheTruthAtTwoSigma) {
  // Over many independent periods, the 95% interval should contain the
  // true n_c roughly 95% of the time; demand at least 85% to keep the
  // test robust (the interval is evaluated at the ESTIMATED n_c).
  Encoder enc(EncoderConfig{});
  IntervalEstimator est(2, 1.96);
  const PairWorkload w{10'000, 50'000, 2'000};
  int covered = 0;
  constexpr int kTrials = 100;
  for (int t = 0; t < kTrials; ++t) {
    const auto states = simulate_pair(enc, w, 1 << 17, 1 << 19,
                                      5000 + static_cast<std::uint64_t>(t));
    const EstimateInterval e = est.estimate(states.x, states.y);
    if (e.lower <= 2000.0 && 2000.0 <= e.upper) ++covered;
  }
  EXPECT_GE(covered, 85);
  EXPECT_LE(covered, 100);
}

struct CoverageCase {
  std::uint64_t n_x, n_y, n_c;
  std::size_t m_x, m_y;
};

// Counts, over 60 periods, how often the 95% interval holds the true n_c;
// `larger_first` passes the larger-array RSU as the first operand.
int covered_periods(const CoverageCase& c, bool larger_first) {
  Encoder enc(EncoderConfig{});
  IntervalEstimator est(2, 1.96);
  int covered = 0;
  for (int t = 0; t < 60; ++t) {
    const auto states =
        simulate_pair(enc, PairWorkload{c.n_x, c.n_y, c.n_c}, c.m_x, c.m_y,
                      81'000 + static_cast<std::uint64_t>(t));
    const EstimateInterval e = larger_first
                                   ? est.estimate(states.y, states.x)
                                   : est.estimate(states.x, states.y);
    if (e.lower <= double(c.n_c) && double(c.n_c) <= e.upper) ++covered;
  }
  return covered;
}

class IntervalCoverage : public ::testing::TestWithParam<CoverageCase> {};

TEST_P(IntervalCoverage, NominalCoverageAcrossScenarios) {
  const int covered = covered_periods(GetParam(), false);
  // 95% nominal; tolerate down to 80% (interval evaluated at the
  // ESTIMATED n_c, plus binomial noise over 60 trials).
  EXPECT_GE(covered, 48) << covered << "/60 covered";
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, IntervalCoverage,
    ::testing::Values(CoverageCase{10'000, 10'000, 2'000, 1 << 17, 1 << 17},
                      CoverageCase{10'000, 50'000, 1'000, 1 << 17, 1 << 19},
                      CoverageCase{5'000, 100'000, 500, 1 << 16, 1 << 20},
                      CoverageCase{20'000, 20'000, 10'000, 1 << 18, 1 << 18}));

// A 16× skewed pair with the larger-array RSU as the first operand keeps
// the same nominal coverage as the natural order.
TEST(IntervalEstimator, NominalCoverageWithLargerArrayFirst) {
  const int covered = covered_periods(
      CoverageCase{10'000, 160'000, 1'000, 1 << 17, 1 << 21}, true);
  EXPECT_GE(covered, 48) << covered << "/60 covered";
}

// The model's n_x is the volume on the smaller array whichever operand
// that RSU is, and at equal sizes the roles follow the arrays' contents:
// swapping the arguments changes no bit of the result. Binding the first
// operand's counter to the smaller array instead put the large RSU's
// volume on the small array and widened skewed intervals up to 15×.
TEST(IntervalEstimator, OperandOrderDoesNotMatter) {
  Encoder enc(EncoderConfig{});
  const IntervalEstimator est(2, 1.96);
  for (const std::size_t r : {1u, 4u, 16u, 64u}) {
    const std::size_t m_x = std::size_t{1} << 14;
    const PairWorkload w{2'000, 2'000 * r, 300};
    const auto states = simulate_pair(enc, w, m_x, m_x * r, 40 + r);
    PairEstimate point_xy, point_yx;
    const EstimateInterval xy = est.estimate(states.x, states.y, &point_xy);
    const EstimateInterval yx = est.estimate(states.y, states.x, &point_yx);
    EXPECT_EQ(xy.n_c_hat, yx.n_c_hat) << "r=" << r;
    EXPECT_EQ(xy.stddev, yx.stddev) << "r=" << r;
    EXPECT_EQ(xy.lower, yx.lower) << "r=" << r;
    EXPECT_EQ(xy.upper, yx.upper) << "r=" << r;
    EXPECT_EQ(xy.floor_stddev, yx.floor_stddev) << "r=" << r;
    EXPECT_EQ(xy.degraded, yx.degraded) << "r=" << r;
    EXPECT_EQ(point_xy.raw, point_yx.raw) << "r=" << r;
    EXPECT_EQ(point_xy.m_x, m_x);
    EXPECT_EQ(point_yx.m_x, m_x);
    EXPECT_GT(xy.stddev, 0.0);
    // The spread is the model's at the smaller array's own volume (at
    // r = 1 either RSU may take the x role).
    if (r > 1 && !xy.degraded) {
      const double eval_nc = xy.n_c_hat;
      const AccuracyPrediction want = AccuracyModel::predict(
          PairScenario{static_cast<double>(states.x.counter()),
                       static_cast<double>(states.y.counter()), eval_nc, m_x,
                       m_x * r, 2});
      EXPECT_EQ(xy.stddev, want.stddev_ratio * eval_nc) << "r=" << r;
    }
  }
}

TEST(IntervalEstimator, IntervalShapeIsSane) {
  Encoder enc(EncoderConfig{});
  IntervalEstimator est(2);
  const auto states =
      simulate_pair(enc, PairWorkload{10'000, 50'000, 2'000}, 1 << 17,
                    1 << 19, 7);
  const EstimateInterval e = est.estimate(states.x, states.y);
  EXPECT_GT(e.stddev, 0.0);
  EXPECT_LE(e.lower, e.n_c_hat);
  EXPECT_GE(e.upper, e.n_c_hat);
  EXPECT_FALSE(e.degraded);
  // The floor is the unremovable component: stddev can't beat it.
  EXPECT_GE(e.stddev, e.floor_stddev * 0.9);
  EXPECT_NEAR(e.floor_stddev, std::sqrt(e.n_c_hat), std::sqrt(e.n_c_hat) * 0.2);
}

TEST(IntervalEstimator, WiderIntervalForNoisierConfiguration) {
  Encoder enc(EncoderConfig{});
  IntervalEstimator est(2);
  // Saturated FBM-style configuration vs healthy VLM sizing, same load.
  const PairWorkload w{10'000, 500'000, 2'000};
  const auto starved = simulate_pair(enc, w, 1 << 17, 1 << 17, 11);
  const auto healthy = simulate_pair(enc, w, 1 << 17, 1 << 22, 11);
  const auto e_starved = est.estimate(starved.x, starved.y);
  const auto e_healthy = est.estimate(healthy.x, healthy.y);
  EXPECT_GT(e_starved.stddev, 2.0 * e_healthy.stddev);
}

TEST(IntervalEstimator, NearZeroEstimateIsDegradedNotCrashing) {
  Encoder enc(EncoderConfig{});
  IntervalEstimator est(2);
  const auto states =
      simulate_pair(enc, PairWorkload{5'000, 5'000, 0}, 1 << 16, 1 << 16, 3);
  const EstimateInterval e = est.estimate(states.x, states.y);
  EXPECT_GE(e.n_c_hat, 0.0);
  EXPECT_GE(e.upper, e.lower);
  // Either the estimate was clamped near zero (degraded) or happened to
  // be a small positive value with a valid interval.
  EXPECT_TRUE(e.degraded || e.n_c_hat >= 1.0);
}

TEST(IntervalEstimator, IdleRsusYieldEmptyInterval) {
  IntervalEstimator est(2);
  RsuState x(64), y(64);
  const EstimateInterval e = est.estimate(x, y);
  EXPECT_DOUBLE_EQ(e.n_c_hat, 0.0);
  EXPECT_DOUBLE_EQ(e.upper, 0.0);
  EXPECT_TRUE(e.degraded);
}

// Eq. 5 takes a 2-bit array but the variance model needs four bits. An
// idle 2-bit RSU beside an active one never reaches the model and gets
// the empty interval in either argument order; an active one throws.
TEST(IntervalEstimator, IdleTwoBitRsuBesideActiveRsuYieldsEmptyInterval) {
  Encoder enc(EncoderConfig{});
  const IntervalEstimator est(2);
  const RsuState active =
      simulate_pair(enc, PairWorkload{500, 500, 100}, 1 << 10, 1 << 10, 5).x;
  const RsuState idle(2);
  for (const bool idle_first : {true, false}) {
    const EstimateInterval e = idle_first ? est.estimate(idle, active)
                                          : est.estimate(active, idle);
    EXPECT_EQ(e.n_c_hat, 0.0);
    EXPECT_EQ(e.lower, 0.0);
    EXPECT_EQ(e.upper, 0.0);
    EXPECT_EQ(e.stddev, 0.0);
    EXPECT_TRUE(e.degraded);
  }
  RsuState busy(2);
  busy.record(0);
  busy.record(0);
  EXPECT_THROW((void)est.estimate(busy, active), std::invalid_argument);
}

// The interval's point estimate is PairEstimator::estimate's bit for bit,
// in both argument orders and at equal sizes too: the server's point
// estimates and the decode's cells take Eq. 5 from one function. (At
// equal sizes v_x is the x role's fraction for the interval and the
// first argument's for PairEstimator.)
TEST(IntervalEstimator, PointEstimateIsPairEstimatorsBitForBit) {
  Encoder enc(EncoderConfig{});
  const IntervalEstimator interval(3);
  const PairEstimator pair(3);
  for (const std::size_t r : {1u, 8u}) {
    const auto states = simulate_pair(enc, PairWorkload{3'000, 4'000 * r, 500},
                                      1 << 12, (1 << 12) * r, 9 + r);
    for (const bool swap : {false, true}) {
      const RsuState& x = swap ? states.y : states.x;
      const RsuState& y = swap ? states.x : states.y;
      PairEstimate got;
      (void)interval.estimate(x, y, &got);
      const PairEstimate want = pair.estimate(x, y);
      EXPECT_EQ(got.n_c_hat, want.n_c_hat) << "r=" << r << " swap=" << swap;
      EXPECT_EQ(got.raw, want.raw);
      EXPECT_EQ(std::minmax(got.v_x, got.v_y),
                std::minmax(want.v_x, want.v_y));
      if (r > 1) {
        EXPECT_EQ(got.v_x, want.v_x);
      }
      EXPECT_EQ(got.v_c, want.v_c);
      EXPECT_EQ(got.m_x, want.m_x);
      EXPECT_EQ(got.m_y, want.m_y);
      EXPECT_EQ(got.words_scanned, want.words_scanned);
      EXPECT_EQ(got.saturated, want.saturated);
    }
  }
}

TEST(IntervalEstimator, Guards) {
  EXPECT_THROW(IntervalEstimator(2, 0.0), std::invalid_argument);
  IntervalEstimator est(2);
  PairEstimate fake;
  fake.m_x = fake.m_y = 1 << 10;
  fake.n_c_hat = 5.0;
  EXPECT_THROW((void)est.annotate(fake, -1.0, 10.0), std::invalid_argument);
}

TEST(IntervalEstimator, EstimateBeyondSupportIsClamped) {
  IntervalEstimator est(2);
  PairEstimate fake;
  fake.m_x = fake.m_y = 1 << 12;
  fake.n_c_hat = 500.0;  // more than min(n_x, n_y) below
  const EstimateInterval e = est.annotate(fake, 100.0, 400.0);
  EXPECT_TRUE(e.degraded);
  EXPECT_GT(e.stddev, 0.0);
}

}  // namespace
}  // namespace vlm::core
