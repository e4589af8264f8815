#include "core/interval.h"

#include <algorithm>
#include <cmath>

#include "common/bit_array.h"
#include "common/require.h"

namespace vlm::core {

IntervalEstimator::IntervalEstimator(std::uint32_t s, double z)
    : s_(s), z_(z) {
  VLM_REQUIRE(s >= 2, "estimator requires s >= 2");
  VLM_REQUIRE(z > 0.0, "interval width multiplier must be positive");
}

RsuTerms IntervalEstimator::rsu_terms(const RsuState& state) {
  RsuTerms out;
  out.bits = zero_fraction(state.zero_count(), state.array_size());
  out.array = AccuracyModel::array_terms(static_cast<double>(state.counter()),
                                         state.array_size());
  return out;
}

SizePairTerms IntervalEstimator::size_pair_terms(std::size_t m_x,
                                                 std::size_t m_y) const {
  return AccuracyModel::size_pair_terms(m_x, m_y, s_);
}

bool IntervalEstimator::takes_x_role(const RsuTerms& a, const RsuTerms& b) {
  if (a.bits.m != b.bits.m) return a.bits.m < b.bits.m;
  if (a.bits.zeros != b.bits.zeros) return a.bits.zeros < b.bits.zeros;
  return a.array.n <= b.array.n;
}

EstimateInterval IntervalEstimator::estimate(const RsuState& x,
                                             const RsuState& y,
                                             PairEstimate* point) const {
  const RsuTerms a = rsu_terms(x);
  const RsuTerms b = rsu_terms(y);
  const bool a_is_x = takes_x_role(a, b);
  const RsuTerms& tx = a_is_x ? a : b;
  const RsuTerms& ty = a_is_x ? b : a;
  const common::JointZeroCounts counts =
      common::joint_zero_counts(x.bits(), y.bits());
  const EstimateInterval out =
      from_terms(tx, ty, size_pair_terms(tx.bits.m, ty.bits.m),
                 counts.zeros_or, point);
  if (point != nullptr) point->words_scanned = counts.words_scanned;
  return out;
}

EstimateInterval IntervalEstimator::from_terms(const RsuTerms& x,
                                               const RsuTerms& y,
                                               const SizePairTerms& size,
                                               std::size_t zeros_or,
                                               PairEstimate* point) const {
  const PairEstimate pair = eq5_estimate(x.bits, y.bits, zeros_or, size.L);
  if (point != nullptr) *point = pair;
  return bounds(pair, x.array, y.array, size);
}

EstimateInterval IntervalEstimator::annotate(const PairEstimate& estimate,
                                             double n_x, double n_y) const {
  VLM_REQUIRE(n_x >= 0.0 && n_y >= 0.0, "counters must be non-negative");
  return bounds(estimate, AccuracyModel::array_terms(n_x, estimate.m_x),
                AccuracyModel::array_terms(n_y, estimate.m_y),
                size_pair_terms(estimate.m_x, estimate.m_y));
}

EstimateInterval IntervalEstimator::bounds(const PairEstimate& estimate,
                                           const ArrayTerms& x,
                                           const ArrayTerms& y,
                                           const SizePairTerms& size) const {
  EstimateInterval out;
  out.n_c_hat = estimate.n_c_hat;
  out.degraded = estimate.saturated;

  // The variance model needs a positive n_c; below ~1 vehicle the
  // estimate carries no information, so evaluate at 1 and flag it.
  double eval_nc = estimate.n_c_hat;
  const double max_nc = std::min(x.n, y.n);
  if (eval_nc < 1.0) {
    eval_nc = std::min(1.0, max_nc);
    out.degraded = true;
  }
  if (eval_nc > max_nc) {
    eval_nc = max_nc;  // noise pushed the estimate past its support
    out.degraded = true;
  }
  if (max_nc < 1.0) {
    // An idle RSU: nothing to intersect, interval is [0, 0].
    return out;
  }

  VLM_REQUIRE(size.modelled, "arrays need at least four bits");
  // eval_nc <= min(n_x, n_y), so the model's point volumes are the
  // counters themselves (no max(n, eval_nc) widening is ever needed).
  const AccuracyPrediction pred =
      AccuracyModel::predict(x, y, size, eval_nc);
  out.stddev = pred.stddev_ratio * eval_nc;
  out.floor_stddev = std::sqrt(eval_nc * (static_cast<double>(s_) - 1.0));
  out.lower = std::max(0.0, estimate.n_c_hat - z_ * out.stddev);
  out.upper = estimate.n_c_hat + z_ * out.stddev;
  return out;
}

}  // namespace vlm::core
