// Closed-form accuracy analysis of the MLE estimator (paper Section V),
// in two flavors.
//
// kPaperBinomial implements Eqs. 9-36 exactly as published: zero counts
// are treated as binomial (independent bits) and the covariance terms of
// Eq. 35 collapse to a negligible delta-product under the paper's Taylor
// truncation.
//
// kOccupancyExact replaces both approximations with the true
// balls-into-bins second moments: every pairwise joint zero-probability
// of (B_c, B_x, B_y) bits is computed from per-vehicle factors, which
// captures (a) the negative correlation among bits of one array (each
// vehicle sets exactly one bit) and (b) the strong positive correlation
// between V_c and V_x, V_y (B_c is built from them). The two effects
// cancel most of the naive variance: at load factor ~13 the paper's
// formula over-predicts the estimator's standard deviation by roughly an
// order of magnitude, which Monte-Carlo simulation (bench_accuracy_model,
// E7) confirms. EXPERIMENTS.md discusses the discrepancy; tests tolerance
// bands use the exact model.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vlm::core {

struct PairScenario {
  double n_x = 0.0;   // point volume at the smaller-array RSU
  double n_y = 0.0;   // point volume at the larger-array RSU
  double n_c = 0.0;   // common volume (0 < n_c <= min(n_x, n_y))
  std::size_t m_x = 0;  // bit array sizes, powers of two, m_x | m_y
  std::size_t m_y = 0;
  std::uint32_t s = 2;  // logical bit array size
};

enum class VarianceModel {
  kPaperBinomial,   // the published Section V formulas
  kOccupancyExact,  // corrected balls-into-bins second moments
};

struct AccuracyPrediction {
  double q_nx = 0.0;  // Eq. 10: P[bit of B_x stays 0]
  double q_ny = 0.0;  // Eq. 11
  double q_nc = 0.0;  // Eq. 9:  P[bit of B_c stays 0]
  double expected_estimate = 0.0;  // Eq. 32: E[n̂_c]
  double bias_ratio = 0.0;         // Eq. 33: E[n̂_c/n_c] − 1
  double variance = 0.0;           // Eq. 34: Var[n̂_c]
  double stddev_ratio = 0.0;       // Eq. 36: StdDev[n̂_c/n_c]
};

// The occupancy-exact model factored by what each term depends on
// (docs/DERIVATIONS.md §8): one array's (n, m), one size pair's
// (m_x, m_y, s), and the pair's n_c. predict(kOccupancyExact) and the
// decode's interval math both evaluate through these, so a K×K decode
// builds the first kind once per RSU and the second once per distinct
// size pair, and keeps only the n_c-dependent work per pair.

// Terms of one m-bit array after n insertions.
struct ArrayTerms {
  double n = 0.0;
  double q = 0.0;         // (1 − 1/m)^n: P[a bit stays 0] (Eqs. 10, 11)
  double binomial = 0.0;  // (1 − q)/(m q): Var[ln V] if bits were independent
  double var_ln = 0.0;    // Var[ln V] with the one-array bit correlation
};

// The exponent n_c·alpha + n_x·beta + n_y·gamma of one correlation
// correction J/(q_a q_b) − 1, the log of the joint zero-probability over
// the two marginals (§3), split by vehicle class.
struct CorrectionTerms {
  double alpha = 0.0;
  double beta = 0.0;
  double gamma = 0.0;
};

// Terms of one size pair (m_x <= m_y) at logical array size s.
struct SizePairTerms {
  std::size_t m_x = 0;
  std::size_t m_y = 0;
  double L = 0.0;  // Eq. 5 denominator ln(1 − (s−1)/(s·m_y)) − ln(1 − 1/m_y)
  // Whether the model's terms below are set: only for m_x >= 4. A pair
  // with a smaller array still has its Eq. 5 estimate, and an idle one
  // its empty interval, but no variance.
  bool modelled = false;
  // Count weights: same-residue (r − 1)/m_y and different-residue
  // (m_y − r)/m_y bit pairs of B_c, off-position (m_x − 1)/m_x and
  // same-position 1/m_x bit pairs of B_x.
  double same_residue = 0.0;
  double diff_residue = 0.0;
  double x_off = 0.0;
  double x_same = 0.0;
  // The seven corrections whose exponent depends on n_c.
  CorrectionTerms cc_same, cc_diff, cx_off, cy_same, cy_diff, xy_same,
      xy_diff;
};

class AccuracyModel {
 public:
  // Validates the scenario (array sizes powers of two with m_x | m_y,
  // volumes consistent, s >= 2) and throws std::invalid_argument if it is
  // malformed. If the caller passes m_x > m_y the roles are swapped, as
  // the decoding phase itself does.
  static AccuracyPrediction predict(
      const PairScenario& scenario,
      VarianceModel model = VarianceModel::kOccupancyExact);

  // kOccupancyExact from factored terms: `x` is the smaller array,
  // `size` the pair's sizes with size.modelled set, and
  // 0 < n_c <= min(x.n, y.n) (unchecked — the interval estimator checks
  // and clamps before calling). Bit-identical to predict() on the same
  // scenario, which evaluates through here.
  static AccuracyPrediction predict(const ArrayTerms& x, const ArrayTerms& y,
                                    const SizePairTerms& size, double n_c);
  static ArrayTerms array_terms(double n, std::size_t m);
  // Validates the sizes Eq. 5 needs (powers of two, m_x <= m_y,
  // 2 <= s < m_y) and throws std::invalid_argument otherwise; sets the
  // model's terms only for m_x >= 4 (see SizePairTerms::modelled).
  static SizePairTerms size_pair_terms(std::size_t m_x, std::size_t m_y,
                                       std::uint32_t s);

  // Individual pieces, exposed for tests and for the privacy model.
  static double q_point(double n, std::size_t m);  // (1 − 1/m)^n
  static double q_combined(const PairScenario& s);  // Eq. 9
  // ln(1 − (s−1)/(s·m_y)) − ln(1 − 1/m_y): the Eq. 5 denominator.
  static double log_ratio_denominator(std::uint32_t s, std::size_t m_y);
};

}  // namespace vlm::core
