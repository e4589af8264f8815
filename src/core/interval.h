// Confidence intervals for pair estimates.
//
// The paper reports point estimates only; a deployment needs to know how
// much to trust them. Given the two RSU states and a point estimate, we
// evaluate the occupancy-exact accuracy model at the estimated
// intersection to obtain the sampling standard deviation, and report a
// normal-approximation interval plus the slot-randomness floor
// sqrt(n_c (s-1)) (the component no array size can remove).
//
// The math is factored by what each term depends on (docs/DERIVATIONS.md
// §8): RsuTerms per RSU, SizePairTerms per (m_x, m_y), and the
// n_c-dependent rest per pair. estimate() builds all three for its one
// pair; the all-pairs decode builds the first two once and evaluates
// every pair through the same from_terms(), so its cells are
// bit-identical to estimate().
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/accuracy_model.h"
#include "core/estimator.h"
#include "core/rsu_state.h"

namespace vlm::core {

struct EstimateInterval {
  double n_c_hat = 0.0;   // point estimate (clamped to >= 0)
  double stddev = 0.0;    // predicted StdDev[n̂_c] at the estimate
  double lower = 0.0;     // max(0, n̂_c − z·stddev)
  double upper = 0.0;     // n̂_c + z·stddev
  double floor_stddev = 0.0;  // sqrt(n̂_c (s−1)): slot-randomness floor
  // True when the interval is unreliable: a saturated array, or an
  // estimate so small that the model was evaluated at the floor value.
  bool degraded = false;
};

// One RSU's share of every pair estimate it takes part in.
struct RsuTerms {
  ZeroFraction bits;  // Eq. 5's (array) terms
  ArrayTerms array;   // the accuracy model's (counter, m) terms
};

class IntervalEstimator {
 public:
  // `z` is the normal quantile for the desired coverage (1.96 ~ 95%).
  explicit IntervalEstimator(std::uint32_t s, double z = 1.96);

  // Point estimate + interval in one pass, symmetric in its arguments:
  // estimate(x, y) and estimate(y, x) agree bit for bit. Counters must be
  // consistent with the arrays (enforced by RsuState). When `point` is
  // non-null the underlying pair estimate is written there as well (the
  // decode pipeline reads its kernel counters for throughput accounting).
  EstimateInterval estimate(const RsuState& x, const RsuState& y,
                            PairEstimate* point = nullptr) const;

  static RsuTerms rsu_terms(const RsuState& state);
  SizePairTerms size_pair_terms(std::size_t m_x, std::size_t m_y) const;

  // Whether `a` takes the x role of a pair with `b`: the smaller array
  // does (the model's n_x is the volume on m_x); at equal sizes the
  // smaller (zeros, counter) does, so the role never depends on argument
  // order.
  static bool takes_x_role(const RsuTerms& a, const RsuTerms& b);

  // The per-pair step: `x` and `y` in role order, `size` their size
  // pair, `zeros_or` the zero bits of unfold(B_x) | B_y.
  EstimateInterval from_terms(const RsuTerms& x, const RsuTerms& y,
                              const SizePairTerms& size, std::size_t zeros_or,
                              PairEstimate* point = nullptr) const;

  // Annotates an existing estimate. `n_x` is the counter of the RSU whose
  // array is estimate.m_x (the smaller), `n_y` that of the larger.
  EstimateInterval annotate(const PairEstimate& estimate, double n_x,
                            double n_y) const;

 private:
  EstimateInterval bounds(const PairEstimate& estimate, const ArrayTerms& x,
                          const ArrayTerms& y,
                          const SizePairTerms& size) const;

  std::uint32_t s_;
  double z_;
};

}  // namespace vlm::core
