#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/metrics.h"

namespace vlm::obs::health {

namespace {

// Dimensionless ratios land in micro-unit histograms: raw observations
// are parts-per-million, exporters scale back to units.
std::uint64_t to_micro(double ratio) {
  if (!(ratio > 0.0)) return 0;
  const double micro = ratio * 1e6;
  if (micro >= 9e18) return UINT64_MAX;
  return static_cast<std::uint64_t>(std::llround(micro));
}

// The two metric groups register lazily and independently: a run that
// closes periods but never decodes must not export decode-only
// histograms (CI asserts every exported span histogram has count > 0).
struct RsuGroup {
  Counter& assessed;
  Counter& saturated;
  Counter& drifted;
  Histogram& fill_fraction;
  Gauge& fill_fraction_max;
  Gauge& load_factor_min;
};

RsuGroup& rsu_group() {
  MetricsRegistry& reg = MetricsRegistry::global();
  static RsuGroup* group = new RsuGroup{
      reg.counter("health/rsus_assessed"),
      reg.counter("health/rsu_saturated"),
      reg.counter("health/load_factor_drift"),
      reg.histogram("health/fill_fraction", Unit::kMicro),
      reg.gauge("health/fill_fraction_max"),
      reg.gauge("health/load_factor_min"),
  };
  return *group;
}

struct PairGroup {
  Counter& assessed;
  Counter& degraded;
  Histogram& predicted_rel_err;
  Gauge& predicted_rel_err_max;
};

PairGroup& pair_group() {
  MetricsRegistry& reg = MetricsRegistry::global();
  static PairGroup* group = new PairGroup{
      reg.counter("health/pairs_assessed"),
      reg.counter("health/pairs_degraded"),
      reg.histogram("health/predicted_rel_err", Unit::kMicro),
      reg.gauge("health/predicted_rel_err_max"),
  };
  return *group;
}

struct TruthGroup {
  Gauge& realized_rel_err;
  Gauge& interval_coverage;
};

TruthGroup& truth_group() {
  MetricsRegistry& reg = MetricsRegistry::global();
  static TruthGroup* group = new TruthGroup{
      reg.gauge("health/realized_rel_err"),
      reg.gauge("health/interval_coverage"),
  };
  return *group;
}

}  // namespace

HealthSummary assess_rsus(std::span<const core::RsuState> states,
                          const HealthOptions& options,
                          std::vector<RsuHealth>* out_per_rsu) {
  std::vector<const core::RsuState*> pointers;
  pointers.reserve(states.size());
  for (const core::RsuState& state : states) pointers.push_back(&state);
  return assess_rsus(std::span<const core::RsuState* const>(pointers), options,
                     out_per_rsu);
}

HealthSummary assess_rsus(std::span<const core::RsuState* const> states,
                          const HealthOptions& options,
                          std::vector<RsuHealth>* out_per_rsu) {
  HealthSummary summary;
  if (out_per_rsu != nullptr) {
    out_per_rsu->clear();
    out_per_rsu->reserve(states.size());
  }
  RsuGroup& metrics = rsu_group();
  double min_load_factor = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < states.size(); ++i) {
    const core::RsuState& state = *states[i];
    RsuHealth rsu;
    rsu.rsu = i;
    rsu.fill_fraction = 1.0 - state.zero_fraction();
    rsu.load_factor = state.load_factor();
    const bool has_traffic = state.counter() > 0;
    // Saturation: the zero fraction V_x is the observable Eq. 5 takes
    // the log of; at or below the threshold the MLE is numerically
    // degenerate regardless of the true volume.
    rsu.saturated =
        has_traffic && state.zero_fraction() <= options.saturation_zero_fraction;
    rsu.drifted = has_traffic && options.target_load_factor > 0.0 &&
                  (rsu.load_factor < options.target_load_factor /
                                         options.load_factor_drift_tolerance ||
                   rsu.load_factor > options.target_load_factor *
                                         options.load_factor_drift_tolerance);

    ++summary.rsus_assessed;
    summary.rsus_saturated += rsu.saturated ? 1 : 0;
    summary.rsus_drifted += rsu.drifted ? 1 : 0;
    summary.max_fill_fraction =
        std::max(summary.max_fill_fraction, rsu.fill_fraction);
    if (has_traffic) min_load_factor = std::min(min_load_factor, rsu.load_factor);

    metrics.fill_fraction.observe(to_micro(rsu.fill_fraction));
    if (out_per_rsu != nullptr) out_per_rsu->push_back(rsu);
  }
  summary.min_load_factor =
      std::isfinite(min_load_factor) ? min_load_factor : 0.0;

  metrics.assessed.add(summary.rsus_assessed);
  metrics.saturated.add(summary.rsus_saturated);
  metrics.drifted.add(summary.rsus_drifted);
  metrics.fill_fraction_max.set(summary.max_fill_fraction);
  metrics.load_factor_min.set(summary.min_load_factor);
  return summary;
}

void assess_pairs(std::span<const core::RsuState> states,
                  const core::OdMatrix& matrix,
                  const HealthOptions& /*options*/,
                  HealthSummary& summary) {
  PairGroup& metrics = pair_group();
  const std::size_t k = matrix.rsu_count();
  double rel_err_sum = 0.0;
  // One publish for the whole pass instead of five atomic RMWs per pair.
  HistogramBatch rel_errs;
  for (std::size_t a = 0; a + 1 < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b) {
      if (!matrix.measured(a, b)) continue;
      const core::EstimateInterval& cell = matrix.at(a, b);
      if (cell.degraded || cell.n_c_hat <= 0.0 || states[a].counter() == 0 ||
          states[b].counter() == 0) {
        ++summary.pairs_degraded;
        continue;
      }
      // The decoded cell already carries the occupancy-exact stddev the
      // interval estimator computed; its ratio to the estimate is the
      // predicted relative error.
      const double rel_err = cell.stddev / cell.n_c_hat;
      if (!std::isfinite(rel_err)) {
        ++summary.pairs_degraded;
        continue;
      }
      ++summary.pairs_assessed;
      rel_err_sum += rel_err;
      summary.max_predicted_rel_err =
          std::max(summary.max_predicted_rel_err, rel_err);
      rel_errs.observe(to_micro(rel_err));
    }
  }
  summary.mean_predicted_rel_err =
      summary.pairs_assessed > 0
          ? rel_err_sum / static_cast<double>(summary.pairs_assessed)
          : 0.0;
  metrics.predicted_rel_err.publish(rel_errs);
  metrics.assessed.add(summary.pairs_assessed);
  metrics.degraded.add(summary.pairs_degraded);
  metrics.predicted_rel_err_max.set(summary.max_predicted_rel_err);
}

RealizedAccuracy assess_truth(
    const core::OdMatrix& matrix,
    const std::function<std::uint64_t(std::size_t, std::size_t)>& truth) {
  RealizedAccuracy accuracy;
  const std::size_t k = matrix.rsu_count();
  double abs_err = 0.0;
  double true_total = 0.0;
  for (std::size_t a = 0; a + 1 < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b) {
      ++accuracy.pairs;
      const core::EstimateInterval& cell = matrix.at(a, b);
      if (!std::isfinite(cell.n_c_hat) || !std::isfinite(cell.lower) ||
          !std::isfinite(cell.upper)) {
        continue;
      }
      const auto n = static_cast<double>(truth(a, b));
      abs_err += std::fabs(cell.n_c_hat - n);
      true_total += n;
      if (cell.lower <= n && n <= cell.upper) ++accuracy.covered;
    }
  }
  accuracy.realized_rel_err = true_total > 0.0 ? abs_err / true_total : 0.0;
  accuracy.interval_coverage =
      accuracy.pairs > 0 ? static_cast<double>(accuracy.covered) /
                               static_cast<double>(accuracy.pairs)
                         : 0.0;
  TruthGroup& metrics = truth_group();
  metrics.realized_rel_err.set(accuracy.realized_rel_err);
  metrics.interval_coverage.set(accuracy.interval_coverage);
  return accuracy;
}

std::string format_accuracy(const RealizedAccuracy& realized,
                            const HealthSummary& predicted) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "accuracy: realized rel err %.4g, interval coverage %.3f (%zu "
                "of %zu pairs); predicted rel err max %.3f mean %.3f\n",
                realized.realized_rel_err, realized.interval_coverage,
                realized.covered, realized.pairs,
                predicted.max_predicted_rel_err,
                predicted.mean_predicted_rel_err);
  return buffer;
}

std::string format_health_summary(const HealthSummary& summary) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "health: %zu RSU(s), %zu saturated, %zu drifted, max fill "
                "%.3f, min load factor %.2f",
                summary.rsus_assessed, summary.rsus_saturated,
                summary.rsus_drifted, summary.max_fill_fraction,
                summary.min_load_factor);
  std::string out = buffer;
  if (summary.pairs_assessed > 0 || summary.pairs_degraded > 0) {
    std::snprintf(buffer, sizeof buffer,
                  "; %zu pair(s) assessed, %zu degraded, predicted rel err "
                  "max %.3f mean %.3f",
                  summary.pairs_assessed, summary.pairs_degraded,
                  summary.max_predicted_rel_err,
                  summary.mean_predicted_rel_err);
    out += buffer;
  }
  out += '\n';
  return out;
}

}  // namespace vlm::obs::health
