#include "core/accuracy_model.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/require.h"

namespace vlm::core {

namespace {

PairScenario normalized(PairScenario s) {
  if (s.m_x > s.m_y) {
    std::swap(s.m_x, s.m_y);
    std::swap(s.n_x, s.n_y);
  }
  VLM_REQUIRE(common::is_power_of_two(s.m_x) && common::is_power_of_two(s.m_y),
              "array sizes must be powers of two");
  VLM_REQUIRE(s.m_x >= 4, "arrays need at least four bits");
  VLM_REQUIRE(s.s >= 2, "s must be >= 2");
  VLM_REQUIRE(static_cast<std::size_t>(s.s) < s.m_y, "Eq. 5 requires s < m_y");
  VLM_REQUIRE(s.n_x >= 0.0 && s.n_y >= 0.0, "volumes must be non-negative");
  VLM_REQUIRE(s.n_c > 0.0 && s.n_c <= std::min(s.n_x, s.n_y),
              "common volume must satisfy 0 < n_c <= min(n_x, n_y)");
  return s;
}

// ----- occupancy-exact machinery -------------------------------------------
//
// Every second moment of (U_c, U_x, U_y) reduces to pairwise joint
// zero-probabilities of bit positions, and each of those is a product of
// per-vehicle-class factors (common / x-only / y-only). We carry the log
// of each factor and evaluate ratios J/(q_a q_b) via expm1 so the tiny
// correlation corrections survive in double precision.

struct ClassLogFactors {
  double common = 0.0;
  double x_only = 0.0;
  double y_only = 0.0;
};

// ln J − ln q_a − ln q_b, where ln of a class-factor event is
// n_c·common + (n_x − n_c)·x_only + (n_y − n_c)·y_only, regrouped by
// volume so the coefficients depend on the array sizes alone.
CorrectionTerms correction(const ClassLogFactors& joint,
                           const ClassLogFactors& a,
                           const ClassLogFactors& b) {
  CorrectionTerms out;
  out.beta = joint.x_only - a.x_only - b.x_only;
  out.gamma = joint.y_only - a.y_only - b.y_only;
  out.alpha = (joint.common - a.common - b.common) - out.beta - out.gamma;
  return out;
}

}  // namespace

ArrayTerms AccuracyModel::array_terms(double n, std::size_t m) {
  const double md = static_cast<double>(m);
  ArrayTerms out;
  out.n = n;
  out.q = q_point(n, m);
  out.binomial = (1.0 - out.q) / (md * out.q);
  // Two distinct bits of one array: every vehicle avoids both with
  // 1 − 2/m, so J/q² − 1 = expm1(n·(ln(1 − 2/m) − 2·ln(1 − 1/m))) for
  // every vehicle class alike.
  const double a = 1.0 / md;
  out.var_ln = out.binomial +
               ((md - 1.0) / md) *
                   std::expm1(n * (std::log1p(-2.0 * a) -
                                   2.0 * std::log1p(-a)));
  return out;
}

SizePairTerms AccuracyModel::size_pair_terms(std::size_t m_x, std::size_t m_y,
                                             std::uint32_t s) {
  VLM_REQUIRE(common::is_power_of_two(m_x) && common::is_power_of_two(m_y),
              "array sizes must be powers of two");
  VLM_REQUIRE(m_x <= m_y, "size pair must be ordered m_x <= m_y");
  VLM_REQUIRE(s >= 2, "s must be >= 2");
  VLM_REQUIRE(static_cast<std::size_t>(s) < m_y, "Eq. 5 requires s < m_y");

  SizePairTerms out;
  out.m_x = m_x;
  out.m_y = m_y;
  out.L = log_ratio_denominator(s, m_y);
  // Eq. 5 takes any m_x; the model's bit-pair counts need m_x >= 4.
  out.modelled = m_x >= 4;
  if (!out.modelled) return out;

  const double A = 1.0 / static_cast<double>(m_x);
  const double B = 1.0 / static_cast<double>(m_y);
  const double w = 1.0 - 1.0 / static_cast<double>(s);  // (s-1)/s
  const double mx = static_cast<double>(m_x);
  const double my = static_cast<double>(m_y);
  const double r = my / mx;  // bits of B_c sharing one B_x bit
  out.same_residue = (r - 1.0) / my;
  out.diff_residue = (my - r) / my;
  out.x_off = (mx - 1.0) / mx;
  out.x_same = 1.0 / mx;

  const double lx1 = std::log1p(-A);
  const double lx2 = std::log1p(-2.0 * A);
  const double ly1 = std::log1p(-B);
  const double ly2 = std::log1p(-2.0 * B);
  // Per common vehicle, P[bit of B_c stays 0] = (1-A)(1 - wB): Eq. 6.
  const double lc1 = lx1 + std::log1p(-w * B);
  // Two B_c bits with distinct y-positions, same-slot protected:
  // invs + (1-invs)(1-2B) = 1 - 2wB.
  const double lprot2 = std::log1p(-2.0 * w * B);

  const ClassLogFactors marg_x{lx1, lx1, 0.0};
  const ClassLogFactors marg_y{ly1, 0.0, ly1};
  const ClassLogFactors marg_c{lc1, lx1, ly1};

  // Joint factor tables (see header comment for the derivations). The
  // B_x–B_x and B_y–B_y tables do not involve n_c; ArrayTerms holds them.
  const ClassLogFactors j_cc_same{lx1 + lprot2, lx1, ly2};
  const ClassLogFactors j_cc_diff{lx2 + lprot2, lx2, ly2};
  const ClassLogFactors j_cx_off{lx2 + std::log1p(-w * B), lx2, ly1};
  // Cov(C_i, Y_j), j != i. Same x-residue: identical to j_cc_same. Else
  // the same-slot branch can still hit j with prob kappa = B/(1-A).
  const double kappa = B / (1.0 - A);
  const double invs = 1.0 - w;
  const ClassLogFactors j_cy_diff{
      lx1 + std::log1p(-(invs * kappa + 2.0 * w * B)), lx1, ly2};
  // Cov(X_j, Y_i): only common vehicles couple the arrays.
  const ClassLogFactors j_xy_same{std::log1p(-(A + w * B * (1.0 - A))), lx1,
                                  ly1};
  const ClassLogFactors j_xy_diff{std::log1p(-(A + B * (1.0 - w * A))), lx1,
                                  ly1};

  out.cc_same = correction(j_cc_same, marg_c, marg_c);
  out.cc_diff = correction(j_cc_diff, marg_c, marg_c);
  out.cx_off = correction(j_cx_off, marg_c, marg_x);
  out.cy_same = correction(j_cc_same, marg_c, marg_y);
  out.cy_diff = correction(j_cy_diff, marg_c, marg_y);
  out.xy_same = correction(j_xy_same, marg_x, marg_y);
  out.xy_diff = correction(j_xy_diff, marg_x, marg_y);
  return out;
}

namespace {

// Eqs. 32-36 from Var[ln V_c − ln V_x − ln V_y] and the delta-method
// bias difference delta_c − delta_x − delta_y.
void finish(AccuracyPrediction& out, double var_n, double delta_diff,
            double L, double n_c) {
  // Eq. 32. Since ln q(n_c) − ln q(n_x) − ln q(n_y) = n_c * L, the mean
  // simplifies to n_c + (delta_c − delta_x − delta_y) / L.
  out.expected_estimate = n_c + delta_diff / L;
  out.bias_ratio = out.expected_estimate / n_c - 1.0;  // Eq. 33
  out.variance = std::max(0.0, var_n) / (L * L);       // Eq. 34
  out.stddev_ratio = std::sqrt(out.variance) / n_c;    // Eq. 36
}

}  // namespace

double AccuracyModel::q_point(double n, std::size_t m) {
  return common::pow_one_minus(1.0 / static_cast<double>(m), n);
}

double AccuracyModel::log_ratio_denominator(std::uint32_t s, std::size_t m_y) {
  const double my = static_cast<double>(m_y);
  const double sd = static_cast<double>(s);
  return common::log_one_minus((sd - 1.0) / (sd * my)) -
         common::log_one_minus(1.0 / my);
}

double AccuracyModel::q_combined(const PairScenario& raw) {
  const PairScenario sc = normalized(raw);
  // Eq. 9: q(n_c) = q(n_x) q(n_y) * exp(n_c * L) with L the Eq. 5
  // denominator (the log of the bracketed ratio).
  const double L = log_ratio_denominator(sc.s, sc.m_y);
  return q_point(sc.n_x, sc.m_x) * q_point(sc.n_y, sc.m_y) *
         std::exp(sc.n_c * L);
}

AccuracyPrediction AccuracyModel::predict(const ArrayTerms& x,
                                          const ArrayTerms& y,
                                          const SizePairTerms& size,
                                          double n_c) {
  AccuracyPrediction out;
  out.q_nx = x.q;
  out.q_ny = y.q;
  out.q_nc = x.q * y.q * std::exp(n_c * size.L);  // Eq. 9

  auto corr = [&](const CorrectionTerms& k) {
    return std::expm1(n_c * k.alpha + x.n * k.beta + y.n * k.gamma);
  };
  const double my = static_cast<double>(size.m_y);
  const double var_ln_c = (1.0 - out.q_nc) / (my * out.q_nc) +
                          size.same_residue * corr(size.cc_same) +
                          size.diff_residue * corr(size.cc_diff);
  const double cov_ln_cx = x.binomial + size.x_off * corr(size.cx_off);
  const double cov_ln_cy = y.binomial + size.same_residue * corr(size.cy_same) +
                           size.diff_residue * corr(size.cy_diff);
  const double cov_ln_xy =
      size.x_same * corr(size.xy_same) + size.x_off * corr(size.xy_diff);
  const double var_n = var_ln_c + x.var_ln + y.var_ln - 2.0 * cov_ln_cx -
                       2.0 * cov_ln_cy + 2.0 * cov_ln_xy;
  finish(out, var_n, -0.5 * (var_ln_c - x.var_ln - y.var_ln), size.L, n_c);
  return out;
}

AccuracyPrediction AccuracyModel::predict(const PairScenario& raw,
                                          VarianceModel model) {
  const PairScenario sc = normalized(raw);
  const ArrayTerms x = array_terms(sc.n_x, sc.m_x);
  const ArrayTerms y = array_terms(sc.n_y, sc.m_y);
  const SizePairTerms size = size_pair_terms(sc.m_x, sc.m_y, sc.s);
  if (model == VarianceModel::kOccupancyExact) {
    return predict(x, y, size, sc.n_c);
  }

  // Eqs. 25-31 under U ~ Binomial(m, q); Eq. 35's covariances collapse
  // to -delta_a * delta_b, which are O(1/m^2) and all but vanish.
  AccuracyPrediction out;
  out.q_nx = x.q;
  out.q_ny = y.q;
  out.q_nc = x.q * y.q * std::exp(sc.n_c * size.L);
  const double var_ln_x = x.binomial;
  const double var_ln_y = y.binomial;
  const double var_ln_c =
      (1.0 - out.q_nc) / (static_cast<double>(sc.m_y) * out.q_nc);
  const double delta_x = -0.5 * var_ln_x;
  const double delta_y = -0.5 * var_ln_y;
  const double delta_c = -0.5 * var_ln_c;
  const double c1 = -delta_c * delta_x;
  const double c2 = -delta_c * delta_y;
  const double c3 = -delta_x * delta_y;
  const double var_n =
      (var_ln_c + var_ln_x + var_ln_y) + (-c1 - c2 + c3);  // Eq. 34
  finish(out, var_n, delta_c - delta_x - delta_y, size.L, sc.n_c);
  return out;
}

}  // namespace vlm::core
