#include "core/accuracy_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/estimator.h"
#include "core/pair_simulation.h"
#include "stats/descriptive.h"

namespace vlm::core {
namespace {

PairScenario scenario(double n_x, double n_y, double n_c, std::size_t m_x,
                      std::size_t m_y, std::uint32_t s = 2) {
  return PairScenario{n_x, n_y, n_c, m_x, m_y, s};
}

TEST(AccuracyModel, QPointMatchesClosedForm) {
  EXPECT_NEAR(AccuracyModel::q_point(1000.0, 1 << 12),
              std::pow(1.0 - 1.0 / 4096.0, 1000.0), 1e-12);
}

TEST(AccuracyModel, QCombinedReducesToProductWhenNoOverlapSignal) {
  // Eq. 9 with n_c -> 0 degenerates to q(n_x) * q(n_y).
  const auto sc = scenario(1000, 2000, 1e-9, 1 << 12, 1 << 13);
  EXPECT_NEAR(AccuracyModel::q_combined(sc),
              AccuracyModel::q_point(1000, 1 << 12) *
                  AccuracyModel::q_point(2000, 1 << 13),
              1e-9);
}

TEST(AccuracyModel, QCombinedIncreasesWithOverlap) {
  // More common vehicles => more aligned bits => more zeros in B_c.
  double prev = 0.0;
  for (double n_c : {100.0, 500.0, 1000.0, 2000.0}) {
    const double q =
        AccuracyModel::q_combined(scenario(4000, 8000, n_c, 1 << 13, 1 << 14));
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(AccuracyModel, PredictsSmallBiasAndSpreadAtHealthyLoad) {
  const AccuracyPrediction pred = AccuracyModel::predict(
      scenario(10'000, 100'000, 2'000, 1 << 17, 1 << 20));
  EXPECT_LT(std::fabs(pred.bias_ratio), 0.01);
  EXPECT_GT(pred.stddev_ratio, 0.0);
  EXPECT_LT(pred.stddev_ratio, 0.2);
  EXPECT_NEAR(pred.expected_estimate, 2000.0, 2000.0 * 0.01);
}

TEST(AccuracyModel, PaperBinomialModelOverpredictsSpread) {
  // Documented reproduction finding: the published Section V variance
  // (binomial zero counts + Eq. 35's collapsed covariances) ignores the
  // balls-into-bins correlations and the V_c/V_x/V_y cancellation, and
  // over-predicts the Monte-Carlo spread several-fold at healthy load
  // factors. See EXPERIMENTS.md (E7).
  const auto sc = scenario(10'000, 10'000, 2'000, 1 << 17, 1 << 17);
  const auto paper =
      AccuracyModel::predict(sc, VarianceModel::kPaperBinomial);
  const auto exact =
      AccuracyModel::predict(sc, VarianceModel::kOccupancyExact);
  EXPECT_GT(paper.stddev_ratio, 3.0 * exact.stddev_ratio);
}

TEST(AccuracyModel, NormalizesArgumentOrder) {
  const auto a = AccuracyModel::predict(
      scenario(10'000, 100'000, 2'000, 1 << 17, 1 << 20));
  const auto b = AccuracyModel::predict(
      scenario(100'000, 10'000, 2'000, 1 << 20, 1 << 17));
  EXPECT_DOUBLE_EQ(a.stddev_ratio, b.stddev_ratio);
  EXPECT_DOUBLE_EQ(a.bias_ratio, b.bias_ratio);
}

TEST(AccuracyModel, SpreadShrinksWithLargerArrays) {
  double prev = 1e9;
  for (unsigned shift : {14u, 16u, 18u, 20u}) {
    const auto pred = AccuracyModel::predict(
        scenario(10'000, 10'000, 2'000, std::size_t{1} << shift,
                 std::size_t{1} << shift));
    EXPECT_LT(pred.stddev_ratio, prev);
    prev = pred.stddev_ratio;
  }
}

TEST(AccuracyModel, SpreadGrowsWhenArraySaturates) {
  // FBM's failure mode: n_y = 50 n_x with a small fixed m leaves only
  // ~2% of B_y's bits zero, and the predicted relative error is several
  // times the properly sized (VLM) configuration at the same workload.
  const auto healthy = AccuracyModel::predict(
      scenario(10'000, 500'000, 2'000, 1 << 17, 1 << 22));
  const auto starved = AccuracyModel::predict(
      scenario(10'000, 500'000, 2'000, 1 << 17, 1 << 17));
  EXPECT_LT(starved.q_ny, 0.05);  // nearly saturated
  EXPECT_GT(starved.stddev_ratio, 2.5 * healthy.stddev_ratio);
}

TEST(AccuracyModel, Guards) {
  EXPECT_THROW((void)AccuracyModel::predict(
                   scenario(100, 100, 0.0, 1 << 10, 1 << 10)),
               std::invalid_argument);
  EXPECT_THROW((void)AccuracyModel::predict(
                   scenario(100, 100, 200, 1 << 10, 1 << 10)),
               std::invalid_argument);
  EXPECT_THROW((void)AccuracyModel::predict(scenario(100, 100, 50, 1000, 1024)),
               std::invalid_argument);
  EXPECT_THROW((void)AccuracyModel::predict(
                   scenario(100, 100, 50, 1 << 10, 1 << 10, 1)),
               std::invalid_argument);
}

// The unfactored occupancy-exact algebra — every correlation exponent
// taken as ln J − ln q_a − ln q_b over whole per-class events, as §3 of
// docs/DERIVATIONS.md states it — in long double, as a reference for the
// factored terms the model evaluates.
struct ReferenceFactors {
  long double common, x_only, y_only;
};

long double reference_stddev_ratio(const PairScenario& sc) {
  using LD = long double;
  const LD n_c = sc.n_c, n_x = sc.n_x, n_y = sc.n_y;
  const LD A = 1.0L / static_cast<LD>(sc.m_x);
  const LD B = 1.0L / static_cast<LD>(sc.m_y);
  const LD w = 1.0L - 1.0L / static_cast<LD>(sc.s);
  const LD mx = static_cast<LD>(sc.m_x);
  const LD my = static_cast<LD>(sc.m_y);
  const LD r = my / mx;
  const LD lx1 = std::log1p(-A), lx2 = std::log1p(-2.0L * A);
  const LD ly1 = std::log1p(-B), ly2 = std::log1p(-2.0L * B);
  const LD lc1 = lx1 + std::log1p(-w * B);
  const LD lprot2 = std::log1p(-2.0L * w * B);
  const ReferenceFactors mx_{lx1, lx1, 0.0L}, my_{ly1, 0.0L, ly1},
      mc{lc1, lx1, ly1};
  const LD kappa = B / (1.0L - A);
  const ReferenceFactors j_xx{lx2, lx2, 0.0L}, j_yy{ly2, 0.0L, ly2},
      j_cc_same{lx1 + lprot2, lx1, ly2}, j_cc_diff{lx2 + lprot2, lx2, ly2},
      j_cx_off{lx2 + std::log1p(-w * B), lx2, ly1},
      j_cy_diff{lx1 + std::log1p(-((1.0L - w) * kappa + 2.0L * w * B)), lx1,
                ly2},
      j_xy_same{std::log1p(-(A + w * B * (1.0L - A))), lx1, ly1},
      j_xy_diff{std::log1p(-(A + B * (1.0L - w * A))), lx1, ly1};
  auto event = [&](const ReferenceFactors& f) {
    return n_c * f.common + (n_x - n_c) * f.x_only + (n_y - n_c) * f.y_only;
  };
  auto corr = [&](const ReferenceFactors& j, const ReferenceFactors& a,
                  const ReferenceFactors& b) {
    return std::expm1(event(j) - event(a) - event(b));
  };
  const LD L = std::log1p(-w * B) - std::log1p(-B);
  const LD q_x = std::exp(n_x * lx1), q_y = std::exp(n_y * ly1);
  const LD q_c = q_x * q_y * std::exp(n_c * L);
  const LD var_x = (1 - q_x) / (mx * q_x) + ((mx - 1) / mx) * corr(j_xx, mx_, mx_);
  const LD var_y = (1 - q_y) / (my * q_y) + ((my - 1) / my) * corr(j_yy, my_, my_);
  const LD var_c = (1 - q_c) / (my * q_c) +
                   ((r - 1) / my) * corr(j_cc_same, mc, mc) +
                   ((my - r) / my) * corr(j_cc_diff, mc, mc);
  const LD cov_cx =
      (1 - q_x) / (mx * q_x) + ((mx - 1) / mx) * corr(j_cx_off, mc, mx_);
  const LD cov_cy = (1 - q_y) / (my * q_y) +
                    ((r - 1) / my) * corr(j_cc_same, mc, my_) +
                    ((my - r) / my) * corr(j_cy_diff, mc, my_);
  const LD cov_xy = (1 / mx) * corr(j_xy_same, mx_, my_) +
                    ((mx - 1) / mx) * corr(j_xy_diff, mx_, my_);
  const LD var_n =
      var_c + var_x + var_y - 2 * cov_cx - 2 * cov_cy + 2 * cov_xy;
  return std::sqrt(std::max(0.0L, var_n) / (L * L)) / n_c;
}

// predict(kOccupancyExact) is the factored terms, bit for bit — the
// interval estimator and the decode evaluate through the same functions —
// and the factoring preserves the model: it matches the unfactored
// algebra across a grid of loads, ratios up to 1024 and overlaps. The
// tolerance is the double-precision model's own: its light-load corners
// cancel most of the variance and keep a few parts per million.
TEST(AccuracyModel, PredictMatchesFactoredTermsBitwise) {
  int checked = 0;
  for (const std::size_t m_x : {std::size_t{1} << 10, std::size_t{1} << 16}) {
    for (const std::size_t r : {1u, 2u, 4u, 64u, 1024u}) {
      const std::size_t m_y = m_x * r;
      for (const double load_x : {0.05, 1.0 / 8.0, 0.5}) {
        for (const double load_y : {0.05, 1.0 / 8.0, 2.0}) {
          const double n_x = load_x * static_cast<double>(m_x);
          const double n_y = load_y * static_cast<double>(m_y);
          for (const double share : {0.001, 0.1, 1.0}) {
            const double n_c = std::max(1.0, share * std::min(n_x, n_y));
            for (const std::uint32_t s : {2u, 5u}) {
              const PairScenario sc = scenario(n_x, n_y, n_c, m_x, m_y, s);
              const AccuracyPrediction whole = AccuracyModel::predict(sc);
              const AccuracyPrediction factored = AccuracyModel::predict(
                  AccuracyModel::array_terms(n_x, m_x),
                  AccuracyModel::array_terms(n_y, m_y),
                  AccuracyModel::size_pair_terms(m_x, m_y, s), n_c);
              EXPECT_EQ(whole.q_nx, factored.q_nx);
              EXPECT_EQ(whole.q_ny, factored.q_ny);
              EXPECT_EQ(whole.q_nc, factored.q_nc);
              EXPECT_EQ(whole.expected_estimate, factored.expected_estimate);
              EXPECT_EQ(whole.bias_ratio, factored.bias_ratio);
              EXPECT_EQ(whole.variance, factored.variance);
              EXPECT_EQ(whole.stddev_ratio, factored.stddev_ratio);
              const double want =
                  static_cast<double>(reference_stddev_ratio(sc));
              EXPECT_NEAR(factored.stddev_ratio, want, 1e-5 * want)
                  << "m_x=" << m_x << " r=" << r << " n_x=" << n_x
                  << " n_y=" << n_y << " n_c=" << n_c << " s=" << s;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * 5 * 3 * 3 * 3 * 2);
}

// --- Monte-Carlo agreement: the paper's Section V formulas vs the real
// protocol. This is E7's test-sized version (the bench sweeps more). ---

struct McCase {
  double n_x, n_y, n_c;
  std::size_t m_x, m_y;
  std::uint32_t s;
};

class AccuracyModelMc : public ::testing::TestWithParam<McCase> {};

TEST_P(AccuracyModelMc, PredictionMatchesSimulation) {
  const McCase c = GetParam();
  Encoder enc(EncoderConfig{c.s, 0x5EEDBA5EBA11AD00ull,
                            SlotSelection::kPerVehicleUniform});
  PairEstimator est(c.s);
  vlm::stats::RunningStats ratios;
  constexpr int kTrials = 60;
  for (int t = 0; t < kTrials; ++t) {
    const PairStates states = simulate_pair(
        enc,
        PairWorkload{static_cast<std::uint64_t>(c.n_x),
                     static_cast<std::uint64_t>(c.n_y),
                     static_cast<std::uint64_t>(c.n_c)},
        c.m_x, c.m_y, 1000 + static_cast<std::uint64_t>(t));
    ratios.push(est.estimate(states.x, states.y).n_c_hat / c.n_c);
  }
  const auto pred =
      AccuracyModel::predict(scenario(c.n_x, c.n_y, c.n_c, c.m_x, c.m_y, c.s));
  // Mean ratio within 4 standard errors of the predicted mean.
  const double se = pred.stddev_ratio / std::sqrt(double{kTrials});
  EXPECT_NEAR(ratios.mean(), 1.0 + pred.bias_ratio, 4.0 * se + 0.005);
  // Spread within a factor of 1.6 of prediction (chi-square-ish band for
  // 60 samples plus model truncation error).
  EXPECT_GT(ratios.stddev(), pred.stddev_ratio / 1.6);
  EXPECT_LT(ratios.stddev(), pred.stddev_ratio * 1.6);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, AccuracyModelMc,
    ::testing::Values(
        McCase{10'000, 10'000, 2'000, 1 << 17, 1 << 17, 2},   // equal, f~13
        McCase{10'000, 10'000, 500, 1 << 16, 1 << 16, 2},     // small overlap
        McCase{10'000, 100'000, 2'000, 1 << 17, 1 << 20, 2},  // d = 10
        McCase{10'000, 100'000, 2'000, 1 << 17, 1 << 20, 5},  // s = 5
        McCase{5'000, 250'000, 1'000, 1 << 16, 1 << 21, 2}    // d = 50
        ));

}  // namespace
}  // namespace vlm::core
