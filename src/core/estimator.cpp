#include "core/estimator.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"
#include "core/accuracy_model.h"

namespace vlm::core {

namespace {

double floored_fraction(std::size_t zeros, std::size_t m, bool& saturated) {
  if (zeros == 0) {
    saturated = true;
    return 0.5 / static_cast<double>(m);
  }
  return static_cast<double>(zeros) / static_cast<double>(m);
}

}  // namespace

ZeroFraction zero_fraction(std::size_t zeros, std::size_t m) {
  ZeroFraction out;
  out.m = m;
  out.zeros = zeros;
  out.v = floored_fraction(zeros, m, out.saturated);
  out.log_v = std::log(out.v);
  return out;
}

PairEstimate eq5_estimate(const ZeroFraction& x, const ZeroFraction& y,
                          std::size_t zeros_or, double L) {
  PairEstimate out;
  out.m_x = x.m;
  out.m_y = y.m;
  out.v_x = x.v;
  out.v_y = y.v;
  out.saturated = x.saturated || y.saturated;
  out.v_c = floored_fraction(zeros_or, y.m, out.saturated);
  out.raw = (std::log(out.v_c) - (x.log_v + y.log_v)) / L;
  out.n_c_hat = std::max(0.0, out.raw);
  return out;
}

PairEstimator::PairEstimator(std::uint32_t s) : s_(s) {
  VLM_REQUIRE(s >= 2, "estimator requires s >= 2");
}

double PairEstimator::log_ratio_denominator(std::size_t m_y) const {
  VLM_REQUIRE(m_y > 1, "larger array must have more than one bit");
  VLM_REQUIRE(static_cast<std::size_t>(s_) < m_y,
              "Eq. 5 requires s < m_y (otherwise the MLE degenerates)");
  return AccuracyModel::log_ratio_denominator(s_, m_y);
}

PairEstimate PairEstimator::estimate(const RsuState& x,
                                     const RsuState& y) const {
  // The fused kernel orders the operands itself, never materializes the
  // unfolded array, and returns the three zero counts Eq. 5 needs in a
  // single pass over the larger array.
  const common::JointZeroCounts counts =
      common::joint_zero_counts(x.bits(), y.bits());
  PairEstimate out = eq5_estimate(
      zero_fraction(counts.zeros_small, counts.size_small),
      zero_fraction(counts.zeros_large, counts.size_large), counts.zeros_or,
      log_ratio_denominator(counts.size_large));
  out.words_scanned = counts.words_scanned;
  return out;
}

}  // namespace vlm::core
