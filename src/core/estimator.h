// Offline decoding phase (Section IV-C): unfold, OR, and the MLE
// estimator of Eq. 5.
//
// Given two RSU reports (counter + bit array, sizes m_x <= m_y, both
// powers of two), the central server:
//   1. unfolds the smaller array to m_y bits (Eq. 3),
//   2. ORs the unfolded array with the larger one (Eq. 4),
//   3. reads the zero fractions V_x, V_y, V_c and computes
//        n̂_c = [ln V_c − ln V_x − ln V_y]
//             / [ln(1 − (s−1)/(s·m_y)) − ln(1 − 1/m_y)].
// Total server cost per pair is O(m_y) — the claim of Section IV-E.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/rsu_state.h"

namespace vlm::core {

struct PairEstimate {
  double n_c_hat = 0.0;  // MLE estimate, clamped to >= 0
  double raw = 0.0;      // unclamped MLE value (can be slightly negative)
  double v_x = 0.0;      // zero fraction of the smaller array
  double v_y = 0.0;      // zero fraction of the larger array
  double v_c = 0.0;      // zero fraction of the combined array
  std::size_t m_x = 0;   // smaller array size (after ordering)
  std::size_t m_y = 0;   // larger array size
  std::size_t words_scanned = 0;  // 64-bit words the decode kernel touched
  // True when any array had zero '0' bits: the MLE is then undefined and
  // the zero count was floored at 0.5 bits to produce a (low-quality)
  // estimate. Callers should treat such estimates as "array saturated —
  // enlarge m" rather than as measurements.
  bool saturated = false;
};

// One array's share of Eq. 5, which depends on that array alone.
struct ZeroFraction {
  std::size_t m = 0;       // array size
  std::size_t zeros = 0;   // zero bits
  double v = 0.0;          // zeros / m, floored at half a bit
  double log_v = 0.0;      // ln v
  bool saturated = false;  // no zero bit: v is the floor
};

// The floor keeps a saturated array (zeros == 0) finite and flagged
// instead of ln 0 = −inf.
ZeroFraction zero_fraction(std::size_t zeros, std::size_t m);

// Eq. 5 on the smaller array x (either one at equal sizes), the larger
// y, the zero bits of unfold(B_x) | B_y and the denominator L for m_y
// (log_ratio_denominator). Its numerator ln V_c − (ln V_x + ln V_y) is
// the same double whichever array is x. The one evaluation of Eq. 5:
// PairEstimator::estimate and the interval estimator (and through it the
// all-pairs decode) both call it, so their estimates agree bit for bit.
// words_scanned is left 0.
PairEstimate eq5_estimate(const ZeroFraction& x, const ZeroFraction& y,
                          std::size_t zeros_or, double L);

class PairEstimator {
 public:
  // `s` is the logical-bit-array size used by the encoder (>= 2).
  explicit PairEstimator(std::uint32_t s);

  std::uint32_t s() const { return s_; }

  // Estimates |S_x ∩ S_y| from two end-of-period RSU states, accepting
  // them in either order (smaller-first or larger-first). Array sizes
  // must be powers of two (guaranteed by RsuState; incompatible raw
  // sizes throw with a sizing hint). The smaller array is logically
  // unfolded onto the larger via the fused zero-count kernel — no copy
  // of either array is materialized.
  PairEstimate estimate(const RsuState& x, const RsuState& y) const;

  // The denominator constant of Eq. 5 for a given larger-array size.
  // Positive for every s >= 2, m_y > 1.
  double log_ratio_denominator(std::size_t m_y) const;

 private:
  std::uint32_t s_;
};

}  // namespace vlm::core
