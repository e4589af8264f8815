// Estimator-health telemetry: a synthetic over-saturated RSU (n >> m)
// must trip the saturation flag and the health/rsu_saturated counter, a
// fleet off its sizing plan must trip the drift flag, and a decoded
// matrix must yield a nonzero predicted-relative-error gauge equal to
// each cell's own stddev / estimate ratio, and exact truth must score it.
#include "obs/health.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "core/od_matrix.h"
#include "core/rsu_state.h"
#include "obs/metrics.h"

namespace vlm::obs::health {
namespace {

// A healthy state: `local` vehicles of its own plus the shared indices.
core::RsuState make_state(std::size_t m, std::size_t local,
                          std::span<const std::size_t> shared,
                          std::uint64_t& h) {
  core::RsuState state(m);
  for (std::size_t i = 0; i < local; ++i) {
    state.record(static_cast<std::size_t>(common::mix64(++h) % m));
  }
  for (const std::size_t index : shared) state.record(index);
  return state;
}

TEST(HealthTest, OverSaturatedRsuTripsSaturation) {
  // n = 10000 into m = 64: every bit ends up set, the zero count hits 0
  // and Eq. 5's MLE is degenerate — exactly the silent failure the
  // telemetry exists to surface.
  core::RsuState state(64);
  std::uint64_t h = 0x5A7;
  for (int i = 0; i < 10'000; ++i) {
    state.record(static_cast<std::size_t>(common::mix64(++h) % 64));
  }
  ASSERT_EQ(state.zero_count(), 0u);

  Counter& counter = MetricsRegistry::global().counter("health/rsu_saturated");
  const std::uint64_t before = counter.value();
  std::vector<RsuHealth> per_rsu;
  std::vector<core::RsuState> states;
  states.push_back(std::move(state));
  const HealthSummary summary = assess_rsus(
      std::span<const core::RsuState>(states), HealthOptions{}, &per_rsu);

  EXPECT_EQ(summary.rsus_assessed, 1u);
  EXPECT_EQ(summary.rsus_saturated, 1u);
  EXPECT_TRUE(summary.any_warning());
  EXPECT_DOUBLE_EQ(summary.max_fill_fraction, 1.0);
  ASSERT_EQ(per_rsu.size(), 1u);
  EXPECT_TRUE(per_rsu[0].saturated);
  EXPECT_EQ(counter.value(), before + 1);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::global().gauge("health/fill_fraction_max").value(), 1.0);
}

TEST(HealthTest, HealthyRsuStaysQuiet) {
  std::uint64_t h = 0xB0B;
  std::vector<core::RsuState> states;
  // n = 128 into m = 1024: load factor 8 (the paper's f̄), zero fraction
  // ~e^{-1/8} — nowhere near the saturation threshold.
  states.push_back(make_state(1024, 128, {}, h));
  HealthOptions options;
  options.target_load_factor = 8.0;
  const HealthSummary summary =
      assess_rsus(std::span<const core::RsuState>(states), options);
  EXPECT_EQ(summary.rsus_saturated, 0u);
  EXPECT_EQ(summary.rsus_drifted, 0u);
  EXPECT_FALSE(summary.any_warning());
  EXPECT_GT(summary.min_load_factor, 4.0);
}

TEST(HealthTest, LoadFactorDriftAgainstSizingPlan) {
  std::uint64_t h = 0xD1F;
  std::vector<core::RsuState> states;
  // Plan said f̄ = 8, but demand quadrupled: n = 512 into m = 1024 gives
  // f = 2, below the [4, 16] tolerance band.
  states.push_back(make_state(1024, 512, {}, h));
  HealthOptions options;
  options.target_load_factor = 8.0;
  const HealthSummary summary =
      assess_rsus(std::span<const core::RsuState>(states), options);
  EXPECT_EQ(summary.rsus_drifted, 1u);
  // The same fleet with the drift check off (no sizing plan) is quiet.
  const HealthSummary unplanned =
      assess_rsus(std::span<const core::RsuState>(states), HealthOptions{});
  EXPECT_EQ(unplanned.rsus_drifted, 0u);
}

TEST(HealthTest, PointerSpanOverloadMatchesValueSpan) {
  std::uint64_t h = 0xCAFE;
  std::vector<core::RsuState> states;
  states.push_back(make_state(512, 100, {}, h));
  states.push_back(make_state(1024, 3000, {}, h));
  std::vector<const core::RsuState*> pointers{&states[0], &states[1]};
  const HealthSummary by_value =
      assess_rsus(std::span<const core::RsuState>(states), HealthOptions{});
  const HealthSummary by_pointer = assess_rsus(
      std::span<const core::RsuState* const>(pointers), HealthOptions{});
  EXPECT_EQ(by_pointer.rsus_assessed, by_value.rsus_assessed);
  EXPECT_EQ(by_pointer.rsus_saturated, by_value.rsus_saturated);
  EXPECT_DOUBLE_EQ(by_pointer.max_fill_fraction, by_value.max_fill_fraction);
  EXPECT_DOUBLE_EQ(by_pointer.min_load_factor, by_value.min_load_factor);
}

TEST(HealthTest, DecodedPairsYieldNonzeroPredictedRelErr) {
  // Two healthy RSUs sharing one road of 200 vehicles plus 200 local
  // each: the decoded overlap is positive, so the pair must be assessed
  // with a strictly positive predicted relative error, pushed to the
  // gauge.
  std::uint64_t h = 0xF00D;
  std::vector<std::size_t> shared;
  for (int i = 0; i < 200; ++i) {
    shared.push_back(static_cast<std::size_t>(common::mix64(++h) % 1024));
  }
  std::vector<core::RsuState> states;
  states.push_back(make_state(1024, 200, shared, h));
  states.push_back(make_state(1024, 200, shared, h));

  const core::OdMatrix matrix =
      core::estimate_od_matrix(states, 2, 1.96, {}, nullptr);
  ASSERT_TRUE(matrix.measured(0, 1));
  ASSERT_GT(matrix.at(0, 1).n_c_hat, 0.0);

  HealthOptions options;
  options.s = 2;
  HealthSummary summary =
      assess_rsus(std::span<const core::RsuState>(states), options);
  assess_pairs(states, matrix, options, summary);

  EXPECT_EQ(summary.pairs_assessed, 1u);
  EXPECT_EQ(summary.pairs_degraded, 0u);
  EXPECT_GT(summary.max_predicted_rel_err, 0.0);
  EXPECT_GT(summary.mean_predicted_rel_err, 0.0);
  EXPECT_GT(
      MetricsRegistry::global().gauge("health/predicted_rel_err_max").value(),
      0.0);
}

TEST(HealthTest, PredictedRelErrIsEachCellsOwnRatio) {
  // Three RSUs, mixed sizes, pairwise overlaps of different volume: the
  // health pass must report exactly the decoded cells' stddev / n_c_hat
  // (one error model), not a second model evaluated beside the decode.
  std::uint64_t h = 0xCE11;
  std::vector<std::size_t> shared_ab, shared_bc;
  for (int i = 0; i < 300; ++i) {
    shared_ab.push_back(static_cast<std::size_t>(common::mix64(++h)));
  }
  for (int i = 0; i < 120; ++i) {
    shared_bc.push_back(static_cast<std::size_t>(common::mix64(++h)));
  }
  auto indices = [](std::span<const std::size_t> keys, std::size_t m) {
    std::vector<std::size_t> out;
    for (const std::size_t key : keys) out.push_back(key % m);
    return out;
  };
  std::vector<core::RsuState> states;
  states.push_back(make_state(4096, 400, indices(shared_ab, 4096), h));
  core::RsuState b = make_state(8192, 500, indices(shared_ab, 8192), h);
  for (const std::size_t index : indices(shared_bc, 8192)) b.record(index);
  states.push_back(std::move(b));
  states.push_back(make_state(2048, 150, indices(shared_bc, 2048), h));

  const core::OdMatrix matrix =
      core::estimate_od_matrix(states, 2, 1.96, {}, nullptr);
  double max_ratio = 0.0;
  double sum_ratio = 0.0;
  std::size_t assessed = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t c = a + 1; c < 3; ++c) {
      const core::EstimateInterval& cell = matrix.at(a, c);
      if (cell.degraded || cell.n_c_hat <= 0.0) continue;
      const double ratio = cell.stddev / cell.n_c_hat;
      max_ratio = std::max(max_ratio, ratio);
      sum_ratio += ratio;
      ++assessed;
    }
  }
  ASSERT_GE(assessed, 2u);

  HealthOptions options;
  options.s = 2;
  HealthSummary summary;
  assess_pairs(states, matrix, options, summary);
  EXPECT_EQ(summary.pairs_assessed, assessed);
  EXPECT_EQ(summary.max_predicted_rel_err, max_ratio);
  EXPECT_DOUBLE_EQ(summary.mean_predicted_rel_err,
                   sum_ratio / static_cast<double>(assessed));
  EXPECT_EQ(
      MetricsRegistry::global().gauge("health/predicted_rel_err_max").value(),
      max_ratio);
}

TEST(HealthTest, RealizedAccuracyScoresEveryPairAgainstTruth) {
  // Three RSUs with known overlaps (A∩B = 300, B∩C = 120, A∩C = 0): the
  // truth pass must sum |n̂ − n| over Σn and count the intervals that
  // hold n, over every pair, and publish both as gauges.
  std::uint64_t h = 0x7A57;
  std::vector<std::size_t> shared_ab, shared_bc;
  for (int i = 0; i < 300; ++i) {
    shared_ab.push_back(static_cast<std::size_t>(common::mix64(++h)));
  }
  for (int i = 0; i < 120; ++i) {
    shared_bc.push_back(static_cast<std::size_t>(common::mix64(++h)));
  }
  auto indices = [](std::span<const std::size_t> keys, std::size_t m) {
    std::vector<std::size_t> out;
    for (const std::size_t key : keys) out.push_back(key % m);
    return out;
  };
  std::vector<core::RsuState> states;
  states.push_back(make_state(4096, 400, indices(shared_ab, 4096), h));
  core::RsuState b = make_state(8192, 500, indices(shared_ab, 8192), h);
  for (const std::size_t index : indices(shared_bc, 8192)) b.record(index);
  states.push_back(std::move(b));
  states.push_back(make_state(2048, 150, indices(shared_bc, 2048), h));
  const core::OdMatrix matrix =
      core::estimate_od_matrix(states, 2, 1.96, {}, nullptr);

  const std::uint64_t truth[3][3] = {{0, 300, 0}, {0, 0, 120}, {0, 0, 0}};
  double abs_err = 0.0;
  std::size_t covered = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t c = a + 1; c < 3; ++c) {
      const core::EstimateInterval& cell = matrix.at(a, c);
      const auto n = static_cast<double>(truth[a][c]);
      abs_err += std::fabs(cell.n_c_hat - n);
      if (cell.lower <= n && n <= cell.upper) ++covered;
    }
  }

  const RealizedAccuracy realized = assess_truth(
      matrix, [&](std::size_t a, std::size_t c) { return truth[a][c]; });
  EXPECT_EQ(realized.pairs, 3u);
  EXPECT_EQ(realized.covered, covered);
  EXPECT_DOUBLE_EQ(realized.realized_rel_err, abs_err / 420.0);
  EXPECT_DOUBLE_EQ(realized.interval_coverage,
                   static_cast<double>(covered) / 3.0);
  MetricsRegistry& registry = MetricsRegistry::global();
  EXPECT_EQ(registry.gauge("health/realized_rel_err").value(),
            realized.realized_rel_err);
  EXPECT_EQ(registry.gauge("health/interval_coverage").value(),
            realized.interval_coverage);

  HealthSummary predicted;
  predicted.max_predicted_rel_err = 0.25;
  const std::string line = format_accuracy(realized, predicted);
  EXPECT_NE(line.find("realized rel err"), std::string::npos);
  EXPECT_NE(line.find("interval coverage"), std::string::npos);
  EXPECT_NE(line.find("predicted rel err max 0.250"), std::string::npos);
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
}

TEST(HealthTest, SaturatedPairCountsAsDegraded) {
  // Both endpoints over-saturated: the estimator marks the cell degraded
  // and the health pass must not assess it.
  std::uint64_t h = 0xDEAD;
  std::vector<core::RsuState> states;
  states.push_back(make_state(64, 10'000, {}, h));
  states.push_back(make_state(64, 10'000, {}, h));
  ASSERT_EQ(states[0].zero_count(), 0u);

  const core::OdMatrix matrix =
      core::estimate_od_matrix(states, 2, 1.96, {}, nullptr);
  HealthOptions options;
  options.s = 2;
  HealthSummary summary =
      assess_rsus(std::span<const core::RsuState>(states), options);
  assess_pairs(states, matrix, options, summary);

  EXPECT_EQ(summary.rsus_saturated, 2u);
  EXPECT_EQ(summary.pairs_assessed, 0u);
  EXPECT_EQ(summary.pairs_degraded, 1u);
}

TEST(HealthTest, FormatSummaryMentionsPairsOnlyWhenAssessed) {
  HealthSummary rsu_only;
  rsu_only.rsus_assessed = 16;
  rsu_only.rsus_saturated = 3;
  const std::string line = format_health_summary(rsu_only);
  EXPECT_NE(line.find("health:"), std::string::npos);
  EXPECT_NE(line.find("3 saturated"), std::string::npos);
  EXPECT_EQ(line.find("pair"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');

  HealthSummary with_pairs = rsu_only;
  with_pairs.pairs_assessed = 120;
  with_pairs.max_predicted_rel_err = 0.25;
  EXPECT_NE(format_health_summary(with_pairs).find("120 pair(s)"),
            std::string::npos);
}

}  // namespace
}  // namespace vlm::obs::health
