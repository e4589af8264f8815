#include "core/od_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/bit_array.h"
#include "core/accuracy_model.h"
#include "core/encoder.h"
#include "core/pair_simulation.h"
#include "core/scheme.h"
#include "roadnet/sioux_falls.h"

namespace vlm::core {
namespace {

// Builds K RSU states over a shared vehicle population: vehicle i visits
// RSU r iff i % (r + 2) == 0, giving exact ground-truth intersections.
std::vector<RsuState> deterministic_fleet(std::size_t k, std::uint64_t n,
                                          const Encoder& enc, std::size_t m) {
  std::vector<RsuState> states;
  for (std::size_t r = 0; r < k; ++r) states.emplace_back(m);
  for (std::uint64_t i = 0; i < n; ++i) {
    VehicleIdentity v;
    v.id = VehicleId{common::mix64(common::mix64(99) + (i + 1) * 0x9E3779B97F4A7C15ull)};
    v.private_key =
        common::mix64(common::mix64(123) + (i + 1) * 0xC2B2AE3D27D4EB4Full);
    for (std::size_t r = 0; r < k; ++r) {
      if (i % (r + 2) == 0) {
        states[r].record(enc.bit_index(v, RsuId{r + 1}, m));
      }
    }
  }
  return states;
}

TEST(OdMatrix, EstimatesEveryPairAgainstGroundTruth) {
  Encoder enc(EncoderConfig{});
  constexpr std::uint64_t kN = 60'000;
  const auto states = deterministic_fleet(4, kN, enc, 1 << 17);
  const OdMatrix matrix = estimate_od_matrix(states, 2);
  EXPECT_EQ(matrix.rsu_count(), 4u);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      // Truth: multiples of lcm(a+2, b+2) in [0, kN).
      const std::uint64_t la = a + 2, lb = b + 2;
      const std::uint64_t lcm = la * lb / std::gcd(la, lb);
      const double truth = std::floor((double(kN) - 1.0) / double(lcm)) + 1.0;
      const EstimateInterval& e = matrix.at(a, b);
      EXPECT_NEAR(e.n_c_hat, truth, std::max(4.0 * e.stddev, 0.15 * truth))
          << "pair (" << a << "," << b << ")";
    }
  }
}

TEST(OdMatrix, IsSymmetric) {
  Encoder enc(EncoderConfig{});
  const auto states = deterministic_fleet(3, 20'000, enc, 1 << 16);
  const OdMatrix matrix = estimate_od_matrix(states, 2);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 3; ++b) {
      if (a == b) continue;
      EXPECT_DOUBLE_EQ(matrix.at(a, b).n_c_hat, matrix.at(b, a).n_c_hat);
    }
  }
}

TEST(OdMatrix, TotalAggregatesAllPairs) {
  Encoder enc(EncoderConfig{});
  const auto states = deterministic_fleet(3, 20'000, enc, 1 << 16);
  const OdMatrix matrix = estimate_od_matrix(states, 2);
  const double total = matrix.total_estimated_common();
  EXPECT_NEAR(total, matrix.at(0, 1).n_c_hat + matrix.at(0, 2).n_c_hat +
                         matrix.at(1, 2).n_c_hat,
              1e-9);
}

TEST(OdMatrix, HandlesMixedArraySizes) {
  // Different per-RSU sizes (the VLM case): unfolding must kick in.
  Encoder enc(EncoderConfig{});
  std::vector<RsuState> states;
  states.emplace_back(1 << 14);
  states.emplace_back(1 << 17);
  for (std::uint64_t i = 0; i < 30'000; ++i) {
    VehicleIdentity v;
    v.id = VehicleId{common::mix64(common::mix64(5) + (i + 1) * 0x9E3779B97F4A7C15ull)};
    v.private_key = common::mix64((i + 1) * 0xC2B2AE3D27D4EB4Full);
    if (i % 10 == 0) states[0].record(enc.bit_index(v, RsuId{1}, 1 << 14));
    states[1].record(enc.bit_index(v, RsuId{2}, 1 << 17));
  }
  const OdMatrix matrix = estimate_od_matrix(states, 2);
  // All 3,000 RSU-0 vehicles also passed RSU 1.
  const EstimateInterval& e = matrix.at(0, 1);
  EXPECT_NEAR(e.n_c_hat, 3000.0, std::max(4.0 * e.stddev, 450.0));
}

TEST(OdMatrix, ParallelDecodeBitIdenticalToSerialOnSiouxFalls) {
  // 24 RSUs sized from the Sioux Falls trip table's per-node demand under
  // VLM sizing (mixed array sizes, so unfolding paths are exercised).
  // The parallel pipeline must reproduce the serial result bit for bit.
  const roadnet::TripTable trips = roadnet::sioux_falls_trip_table();
  ASSERT_EQ(trips.node_count(), 24u);
  const VlmScheme scheme(VlmSchemeConfig{.s = 2, .load_factor = 8.0});
  std::vector<RsuState> states;
  states.reserve(24);
  for (roadnet::NodeIndex n = 0; n < 24; ++n) {
    states.push_back(scheme.make_rsu_state(trips.node_demand(n) / 16.0));
  }
  // Deterministic traffic: vehicle i visits RSU r with a per-RSU
  // probability shaped by the node demand, hashed from (i, r).
  const Encoder& enc = scheme.encoder();
  const double total = trips.total_demand();
  for (std::uint64_t i = 0; i < 30'000; ++i) {
    const VehicleIdentity v = synthetic_vehicle(7, i);
    for (std::size_t r = 0; r < 24; ++r) {
      const double p =
          4.0 * trips.node_demand(static_cast<roadnet::NodeIndex>(r)) / total;
      const std::uint64_t h =
          common::mix64((i + 1) * 0x9E3779B97F4A7C15ull ^ (r + 1));
      if (static_cast<double>(h % 10'000) < p * 10'000.0) {
        states[r].record(enc.bit_index(v, RsuId{r + 1},
                                       states[r].array_size()));
      }
    }
  }

  DecodeStats serial_stats, parallel_stats;
  const OdMatrix serial = estimate_od_matrix(states, 2, 1.96, 1,
                                             &serial_stats);
  const OdMatrix parallel = estimate_od_matrix(states, 2, 1.96, 8,
                                               &parallel_stats);
  for (std::size_t a = 0; a < 24; ++a) {
    for (std::size_t b = a + 1; b < 24; ++b) {
      const EstimateInterval& se = serial.at(a, b);
      const EstimateInterval& pe = parallel.at(a, b);
      EXPECT_EQ(se.n_c_hat, pe.n_c_hat) << "pair (" << a << "," << b << ")";
      EXPECT_EQ(se.stddev, pe.stddev);
      EXPECT_EQ(se.lower, pe.lower);
      EXPECT_EQ(se.upper, pe.upper);
      EXPECT_EQ(se.floor_stddev, pe.floor_stddev);
      EXPECT_EQ(se.degraded, pe.degraded);
    }
  }
  // Stats are deterministic too: same pairs, same words, regardless of
  // the worker count.
  EXPECT_EQ(serial_stats.pairs_decoded, 24u * 23u / 2u);
  EXPECT_EQ(parallel_stats.pairs_decoded, serial_stats.pairs_decoded);
  EXPECT_EQ(parallel_stats.words_scanned, serial_stats.words_scanned);
  EXPECT_GT(serial_stats.words_scanned, 0u);
  EXPECT_EQ(serial_stats.workers, 1u);
  EXPECT_EQ(parallel_stats.workers, 8u);
  EXPECT_GE(serial_stats.wall_seconds, 0.0);
}

// Exhaustive indexing oracle: for every K <= 8, at(a, b) must return
// exactly the estimate of pair (a, b) — computed independently per pair
// by IntervalEstimator::estimate — for every (a, b) order. Catches any
// triangle-offset arithmetic slip at every matrix size. The sub-word size
// (m = 32 bits) sends every pair through the sweep's per-pair fallback,
// which is also the route of a two-RSU decode.
TEST(OdMatrix, AtMatchesPerPairOracleForEveryKUpToEight) {
  Encoder enc(EncoderConfig{});
  const IntervalEstimator oracle(2, 1.96);
  for (const std::size_t m : {std::size_t{1} << 13, std::size_t{32}}) {
    for (std::size_t k = 2; k <= 8; ++k) {
      const auto states = deterministic_fleet(k, m == 32 ? 16 : 4'000, enc, m);
      const OdMatrix matrix = estimate_od_matrix(states, 2);
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = 0; b < k; ++b) {
          if (a == b) continue;
          const EstimateInterval expected =
              oracle.estimate(states[std::min(a, b)], states[std::max(a, b)]);
          const EstimateInterval& got = matrix.at(a, b);
          EXPECT_EQ(got.n_c_hat, expected.n_c_hat)
              << "m=" << m << " k=" << k << " at(" << a << "," << b << ")";
          EXPECT_EQ(got.stddev, expected.stddev);
          EXPECT_EQ(got.lower, expected.lower);
          EXPECT_EQ(got.upper, expected.upper);
          EXPECT_EQ(got.floor_stddev, expected.floor_stddev);
          EXPECT_EQ(got.degraded, expected.degraded);
        }
      }
    }
  }
}

// The cache-blocked decode is a DRAM-traffic optimization, never an
// approximation: every cell must match the per-pair
// IntervalEstimator::estimate bit for bit, for every tile size and worker
// count, including mixed array sizes (unfold-aware tiling) and tile sizes
// that don't divide the arrays.
TEST(OdMatrix, BlockedDecodeBitIdenticalToPairwiseOnMixedSizes) {
  Encoder enc(EncoderConfig{});
  std::vector<RsuState> states;
  const std::size_t sizes[] = {1 << 12, 1 << 15, 1 << 13, 1 << 15, 1 << 14};
  for (std::size_t m : sizes) states.emplace_back(m);
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    VehicleIdentity v;
    v.id = VehicleId{common::mix64((i + 1) * 0x9E3779B97F4A7C15ull)};
    v.private_key = common::mix64((i + 1) * 0xC2B2AE3D27D4EB4Full);
    for (std::size_t r = 0; r < states.size(); ++r) {
      if (i % (r + 2) == 0) {
        states[r].record(enc.bit_index(v, RsuId{r + 1}, sizes[r]));
      }
    }
  }

  const IntervalEstimator oracle(2, 1.96);
  std::vector<EstimateInterval> pairwise;
  // Words the batch sweep reads: anchor plus partner words per tiled
  // pair (what the per-pair kernel reads), plane plus partner words per
  // folded pair (power-of-two r >= 4), and each folded anchor once.
  std::size_t sweep_words = 0;
  std::vector<bool> folded_anchor(states.size(), false);
  for (std::size_t a = 0; a < states.size(); ++a) {
    for (std::size_t b = a + 1; b < states.size(); ++b) {
      PairEstimate point;
      pairwise.push_back(oracle.estimate(states[a], states[b], &point));
      const std::size_t small = std::min(sizes[a], sizes[b]);
      const std::size_t ratio = std::max(sizes[a], sizes[b]) / small;
      if (ratio >= 4) {
        sweep_words += (static_cast<std::size_t>(std::countr_zero(ratio)) + 2) *
                       (small / 64);
        folded_anchor[sizes[a] > sizes[b] ? a : b] = true;
      } else {
        sweep_words += point.words_scanned;
      }
    }
  }
  for (std::size_t r = 0; r < states.size(); ++r) {
    if (folded_anchor[r]) sweep_words += sizes[r] / 64;
  }

  for (const std::size_t tile_words : {std::size_t{1}, std::size_t{7},
                                       std::size_t{64}, std::size_t{0}}) {
    for (const unsigned workers : {1u, 3u, 8u}) {
      DecodeOptions options;
      options.tile_words = tile_words;
      options.workers = workers;
      DecodeStats stats;
      const OdMatrix blocked =
          estimate_od_matrix(states, 2, 1.96, options, &stats);
      std::size_t p = 0;
      for (std::size_t a = 0; a < states.size(); ++a) {
        for (std::size_t b = a + 1; b < states.size(); ++b, ++p) {
          const EstimateInterval& pe = pairwise[p];
          const EstimateInterval& be = blocked.at(a, b);
          EXPECT_EQ(pe.n_c_hat, be.n_c_hat)
              << "tile_words=" << tile_words << " workers=" << workers
              << " pair (" << a << "," << b << ")";
          EXPECT_EQ(pe.stddev, be.stddev);
          EXPECT_EQ(pe.lower, be.lower);
          EXPECT_EQ(pe.upper, be.upper);
          EXPECT_EQ(pe.floor_stddev, be.floor_stddev);
          EXPECT_EQ(pe.degraded, be.degraded);
        }
      }
      EXPECT_EQ(stats.pairs_decoded, pairwise.size());
      EXPECT_EQ(stats.words_scanned, sweep_words);
      EXPECT_GT(stats.tile_words, 0u);
      EXPECT_GT(stats.dram_passes_saved, 0u);
    }
  }
}

// Zipf-like skew: array sizes spread over ratios 1..1024, including a
// 2^22-bit anchor long enough to be folded window by window and a
// sub-word array. Both decode modes must reproduce the per-pair oracle
// on every cell they measure, at every worker count.
TEST(OdMatrix, SkewedSizesExactForAutoAndPrunedAtEveryWorkerCount) {
  Encoder enc(EncoderConfig{});
  const std::size_t sizes[] = {1 << 22, 1 << 12, 1 << 20, 1 << 16, 1 << 21,
                               1 << 13, 32,      1 << 18, 1 << 12, 1 << 14};
  std::vector<RsuState> states;
  for (std::size_t m : sizes) states.emplace_back(m);
  for (std::uint64_t i = 0; i < 60'000; ++i) {
    VehicleIdentity v;
    v.id = VehicleId{common::mix64((i + 7) * 0x9E3779B97F4A7C15ull)};
    v.private_key = common::mix64((i + 7) * 0xC2B2AE3D27D4EB4Full);
    for (std::size_t r = 0; r < states.size(); ++r) {
      if (i % (r + 2) == 0 && (i / 7) % (r + 1) != 1) {
        states[r].record(enc.bit_index(v, RsuId{r + 1}, sizes[r]));
      }
    }
  }
  // Load the big arrays to a realistic fill with local traffic.
  std::uint64_t h = 0x5EED;
  for (std::size_t r = 0; r < states.size(); ++r) {
    for (std::size_t j = 0; j < sizes[r] / 16; ++j) {
      states[r].record(static_cast<std::size_t>(common::mix64(++h) % sizes[r]));
    }
  }
  ASSERT_LT(common::fold_window_words(std::size_t{1} << 16,
                                      std::size_t{1} << 14, 64),
            std::size_t{1} << 14);

  const IntervalEstimator oracle(2, 1.96);
  auto expect_cell = [](const EstimateInterval& want,
                        const EstimateInterval& got) {
    EXPECT_EQ(want.n_c_hat, got.n_c_hat);
    EXPECT_EQ(want.stddev, got.stddev);
    EXPECT_EQ(want.lower, got.lower);
    EXPECT_EQ(want.upper, got.upper);
    EXPECT_EQ(want.floor_stddev, got.floor_stddev);
    EXPECT_EQ(want.degraded, got.degraded);
  };
  for (const unsigned workers : {1u, 2u, 4u, 7u}) {
    for (const DecodeMode mode : {DecodeMode::kAuto, DecodeMode::kPruned}) {
      DecodeOptions options;
      options.workers = workers;
      options.mode = mode;
      const OdMatrix matrix = estimate_od_matrix(states, 2, 1.96, options);
      std::size_t measured = 0;
      for (std::size_t a = 0; a < states.size(); ++a) {
        for (std::size_t b = a + 1; b < states.size(); ++b) {
          if (!matrix.measured(a, b)) continue;
          ++measured;
          SCOPED_TRACE(::testing::Message()
                       << "workers=" << workers << " pruned="
                       << (mode == DecodeMode::kPruned) << " pair (" << a
                       << "," << b << ")");
          expect_cell(oracle.estimate(states[a], states[b]),
                      matrix.at(a, b));
        }
      }
      EXPECT_GT(measured, 0u);
      if (mode == DecodeMode::kAuto) {
        EXPECT_EQ(measured, states.size() * (states.size() - 1) / 2);
      }
    }
  }
}

// Zipf order: the largest array (and volume) at index 0, sizes halving
// with the index down to r = 64, so the lower index of nearly every pair
// holds the larger array. Every cell must be the per-pair oracle in both
// argument orders, and its spread the model's with n_x bound to the
// smaller array's RSU, not to the lower index.
TEST(OdMatrix, ZipfOrderedFleetMatchesOracleWithSmallerArrayAsX) {
  Encoder enc(EncoderConfig{});
  constexpr std::size_t kRsus = 8;
  std::vector<RsuState> states;
  for (std::size_t r = 0; r < kRsus; ++r) {
    states.emplace_back(std::size_t{1} << (20 - std::min<std::size_t>(r, 6)));
  }
  // RSU r sees each vehicle with probability 2^-r: volume tracks size.
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << 17); ++i) {
    VehicleIdentity v;
    v.id = VehicleId{common::mix64((i + 3) * 0x9E3779B97F4A7C15ull)};
    v.private_key = common::mix64((i + 3) * 0xC2B2AE3D27D4EB4Full);
    for (std::size_t r = 0; r < kRsus; ++r) {
      const std::uint64_t mask = (std::uint64_t{1} << std::min<std::size_t>(r, 6)) - 1;
      if ((common::mix64(i ^ (r << 40)) & mask) == 0) {
        states[r].record(
            enc.bit_index(v, RsuId{r + 1}, states[r].array_size()));
      }
    }
  }

  const IntervalEstimator oracle(2, 1.96);
  for (const unsigned workers : {1u, 4u}) {
    const OdMatrix matrix = estimate_od_matrix(states, 2, 1.96, workers);
    std::size_t role_checked = 0;
    for (std::size_t a = 0; a < kRsus; ++a) {
      for (std::size_t b = a + 1; b < kRsus; ++b) {
        const EstimateInterval& got = matrix.at(a, b);
        for (const EstimateInterval& want :
             {oracle.estimate(states[a], states[b]),
              oracle.estimate(states[b], states[a])}) {
          EXPECT_EQ(got.n_c_hat, want.n_c_hat)
              << "workers=" << workers << " pair (" << a << "," << b << ")";
          EXPECT_EQ(got.stddev, want.stddev);
          EXPECT_EQ(got.lower, want.lower);
          EXPECT_EQ(got.upper, want.upper);
          EXPECT_EQ(got.floor_stddev, want.floor_stddev);
          EXPECT_EQ(got.degraded, want.degraded);
        }
        const RsuState& small = states[b];  // sizes never grow with index
        const RsuState& large = states[a];
        if (got.degraded || small.array_size() == large.array_size()) continue;
        const AccuracyPrediction model = AccuracyModel::predict(PairScenario{
            static_cast<double>(small.counter()),
            static_cast<double>(large.counter()), got.n_c_hat,
            small.array_size(), large.array_size(), 2});
        EXPECT_EQ(got.stddev, model.stddev_ratio * got.n_c_hat)
            << "pair (" << a << "," << b << ")";
        ++role_checked;
      }
    }
    EXPECT_GE(role_checked, 15u);
  }
}

// An idle 2-bit RSU (too small for the variance model) among active
// 1024-bit ones: its cells are the oracle's empty intervals and the rest
// of the matrix decodes as usual, at every worker count.
TEST(OdMatrix, IdleTwoBitRsuAmongActiveRsusDecodes) {
  Encoder enc(EncoderConfig{});
  std::vector<RsuState> states = deterministic_fleet(3, 2'000, enc, 1 << 10);
  states.insert(states.begin() + 1, RsuState(2));
  const IntervalEstimator oracle(2, 1.96);
  for (const unsigned workers : {1u, 4u}) {
    const OdMatrix matrix = estimate_od_matrix(states, 2, 1.96, workers);
    for (std::size_t a = 0; a < states.size(); ++a) {
      for (std::size_t b = a + 1; b < states.size(); ++b) {
        const EstimateInterval want = oracle.estimate(states[a], states[b]);
        const EstimateInterval& got = matrix.at(a, b);
        EXPECT_EQ(got.n_c_hat, want.n_c_hat) << "pair (" << a << "," << b << ")";
        EXPECT_EQ(got.stddev, want.stddev);
        EXPECT_EQ(got.lower, want.lower);
        EXPECT_EQ(got.upper, want.upper);
        EXPECT_EQ(got.degraded, want.degraded);
        if (a == 1 || b == 1) {
          EXPECT_EQ(got.upper, 0.0);
          EXPECT_TRUE(got.degraded);
        } else {
          EXPECT_GT(got.stddev, 0.0);
        }
      }
    }
  }
}

TEST(OdMatrix, DecodePathSelectionAndStats) {
  Encoder enc(EncoderConfig{});
  const auto states = deterministic_fleet(4, 2'000, enc, 1 << 12);

  DecodeStats stats;
  (void)estimate_od_matrix(states, 2, 1.96, 1, &stats);
  EXPECT_STREQ(stats.path, "blocked");
  EXPECT_GT(stats.tile_words, 0u);
  // 4 arrays each touched by 3 pairs: per-pair would load each one 3
  // times, the tile sweep once — 2 saved passes per array.
  EXPECT_EQ(stats.dram_passes_saved, 4u * 2u);
  // Serial decodes run inline; a multi-worker decode must go through
  // the persistent pool, visible in the dispatch counters.
  DecodeStats pooled_stats;
  (void)estimate_od_matrix(states, 2, 1.96, 4, &pooled_stats);
  EXPECT_GT(pooled_stats.pool_dispatches, 0u);
  EXPECT_GE(pooled_stats.pool_lifetime_dispatches,
            pooled_stats.pool_dispatches);

  // A single pair goes through the same sweep; with one partner per
  // array the tiling saves no pass.
  const std::span<const RsuState> two(states.data(), 2);
  DecodeStats two_stats;
  (void)estimate_od_matrix(two, 2, 1.96, 1, &two_stats);
  EXPECT_STREQ(two_stats.path, "blocked");
  EXPECT_GT(two_stats.tile_words, 0u);
  EXPECT_EQ(two_stats.dram_passes_saved, 0u);
}

TEST(OdMatrix, DecodeStatsThroughputHelpers) {
  DecodeStats stats;
  stats.pairs_decoded = 100;
  stats.words_scanned = 1024 * 1024 / 8;  // 1 MiB worth of words
  stats.wall_seconds = 2.0;
  EXPECT_DOUBLE_EQ(stats.pairs_per_second(), 50.0);
  EXPECT_DOUBLE_EQ(stats.mib_per_second(), 0.5);
  DecodeStats idle;
  EXPECT_DOUBLE_EQ(idle.pairs_per_second(), 0.0);
  EXPECT_DOUBLE_EQ(idle.mib_per_second(), 0.0);
}

TEST(OdMatrix, Guards) {
  Encoder enc(EncoderConfig{});
  const auto states = deterministic_fleet(3, 1'000, enc, 1 << 12);
  const OdMatrix matrix = estimate_od_matrix(states, 2);
  EXPECT_THROW((void)matrix.at(0, 0), std::invalid_argument);
  EXPECT_THROW((void)matrix.at(0, 3), std::invalid_argument);
  std::vector<RsuState> one;
  one.emplace_back(64);
  EXPECT_THROW((void)estimate_od_matrix(one, 2), std::invalid_argument);
}

// --- Pruned decode ---

// A sparse deployment with exact known structure: `roads` lists
// (a, b, shared) — pair (a, b) shares `shared` identical bit indices
// (the same vehicles hashed at equal-size arrays) — and every RSU
// carries `own` local records nothing else sees. All other pairs share
// zero vehicles.
struct Road {
  std::size_t a, b, shared;
};
std::vector<RsuState> sparse_fleet(std::size_t k, std::size_t m,
                                   std::span<const Road> roads,
                                   std::size_t own, std::uint64_t seed) {
  std::vector<RsuState> states;
  for (std::size_t r = 0; r < k; ++r) states.emplace_back(m);
  std::uint64_t h = seed;
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t i = 0; i < own; ++i) {
      states[r].record(static_cast<std::size_t>(common::mix64(++h) % m));
    }
  }
  for (const Road& road : roads) {
    for (std::size_t i = 0; i < road.shared; ++i) {
      const auto index = static_cast<std::size_t>(common::mix64(++h) % m);
      states[road.a].record(index);
      states[road.b].record(index);
    }
  }
  return states;
}

void expect_cells_equal(const EstimateInterval& got,
                        const EstimateInterval& want, std::size_t a,
                        std::size_t b) {
  EXPECT_EQ(got.n_c_hat, want.n_c_hat) << "pair (" << a << "," << b << ")";
  EXPECT_EQ(got.stddev, want.stddev);
  EXPECT_EQ(got.lower, want.lower);
  EXPECT_EQ(got.upper, want.upper);
  EXPECT_EQ(got.floor_stddev, want.floor_stddev);
  EXPECT_EQ(got.degraded, want.degraded);
}

// Conservative defaults (min_volume = 0) must keep every pair: the
// pruned path then reproduces the exact decode bit for bit on a dense
// workload.
TEST(OdMatrixPruned, DefaultOptionsKeepEveryPairAndMatchExact) {
  Encoder enc(EncoderConfig{});
  const auto states = deterministic_fleet(5, 8'000, enc, 1 << 13);

  const OdMatrix exact = estimate_od_matrix(states, 2);

  DecodeOptions options;
  options.mode = DecodeMode::kPruned;
  DecodeStats stats;
  const OdMatrix pruned = estimate_od_matrix(states, 2, 1.96, options, &stats);

  EXPECT_STREQ(stats.path, "pruned");
  EXPECT_EQ(stats.pairs_pruned, 0u);
  EXPECT_EQ(stats.pairs_survived, 10u);
  EXPECT_EQ(stats.pairs_decoded, 10u);
  EXPECT_STREQ(stats.storage, "dense");
  EXPECT_FALSE(pruned.sparse());
  EXPECT_EQ(pruned.measured_pairs(), 10u);
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = a + 1; b < 5; ++b) {
      EXPECT_TRUE(pruned.measured(a, b));
      expect_cells_equal(pruned.at(a, b), exact.at(a, b), a, b);
    }
  }
}

// Exhaustive K <= 8 oracle over the survivor storage: for every K and a
// fixed road set, every measured cell must equal the exact decode's
// cell bit for bit (CSR lookup arithmetic included), every skipped pair
// must read as the shared all-zero interval in BOTH query orders, and
// the aggregate must sum exactly the survivors.
TEST(OdMatrixPruned, SparseStorageMatchesDenseOracleForEveryKUpToEight) {
  constexpr std::size_t kM = 1 << 13;
  for (std::size_t k = 3; k <= 8; ++k) {
    // Roads touch a deliberately irregular pair set: first-to-last,
    // an interior edge, and (for larger K) a hub at RSU 2.
    std::vector<Road> roads{{0, k - 1, kM / 8}, {1, 2, kM / 8}};
    if (k >= 6) roads.push_back({2, 5, kM / 8});
    const auto states = sparse_fleet(k, kM, roads, kM / 8, 0xABCD + k);

    const OdMatrix exact = estimate_od_matrix(states, 2);

    DecodeOptions options;
    options.mode = DecodeMode::kPruned;
    // Well above the sampled noise of a zero-overlap pair at m = 2^13,
    // well below the roads' kM/8 shared vehicles.
    options.prune.sample_stride = 2;
    options.prune.min_volume = 700.0;
    DecodeStats stats;
    const OdMatrix pruned =
        estimate_od_matrix(states, 2, 1.96, options, &stats);

    EXPECT_EQ(stats.pairs_survived + stats.pairs_pruned, k * (k - 1) / 2)
        << "k=" << k;
    EXPECT_EQ(pruned.measured_pairs(), stats.pairs_survived);
    double survivor_total = 0.0;
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        ASSERT_EQ(pruned.measured(a, b), pruned.measured(b, a));
        if (pruned.measured(a, b)) {
          expect_cells_equal(pruned.at(a, b), exact.at(a, b), a, b);
          expect_cells_equal(pruned.at(b, a), exact.at(a, b), b, a);
          survivor_total += pruned.at(a, b).n_c_hat;
        } else {
          // Skipped pairs answer with the shared zero interval.
          EXPECT_EQ(pruned.at(a, b).n_c_hat, 0.0);
          EXPECT_EQ(pruned.at(b, a).n_c_hat, 0.0);
          EXPECT_EQ(pruned.at(a, b).upper, 0.0);
        }
      }
    }
    EXPECT_DOUBLE_EQ(pruned.total_estimated_common(), survivor_total);
    // Every road pair carries kM/8 shared vehicles — far above the
    // floor, so the prune must have kept them all.
    for (const Road& road : roads) {
      EXPECT_TRUE(pruned.measured(road.a, road.b))
          << "k=" << k << " road (" << road.a << "," << road.b << ")";
    }
    // The diagonal and out-of-range guards hold on sparse storage too.
    EXPECT_THROW((void)pruned.at(0, 0), std::invalid_argument);
    EXPECT_THROW((void)pruned.at(0, k), std::invalid_argument);
  }
}

// The accuracy gate, with adversarial near-threshold pairs: overlaps
// placed just above and just below the volume floor. The prune promises
// it never skips a pair whose EXACT estimate exceeds min_volume — the
// z_prune-inflated bound must absorb the sampling noise even right at
// the threshold — and that every survivor is bit-identical to the
// exact sweep.
TEST(OdMatrixPruned, NeverDropsPairsAboveMinVolume) {
  constexpr std::size_t kM = 1 << 14;
  constexpr double kFloor = 2000.0;
  // Overlap ladder: zero, well below, just below, just above, and far
  // above the floor (in recorded shared vehicles; the exact estimate
  // lands near each rung with hash-collision noise).
  const Road roads[] = {{0, 1, 200},  {0, 2, 1200}, {1, 2, 2600},
                        {2, 3, 4000}, {3, 4, kM / 4}};
  const auto states = sparse_fleet(6, kM, roads, kM / 8, 0xFEED);

  const OdMatrix exact = estimate_od_matrix(states, 2);

  for (const std::size_t stride : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    DecodeOptions options;
    options.mode = DecodeMode::kPruned;
    options.prune.sample_stride = stride;
    options.prune.min_volume = kFloor;
    DecodeStats stats;
    const OdMatrix pruned =
        estimate_od_matrix(states, 2, 1.96, options, &stats);
    for (std::size_t a = 0; a < 6; ++a) {
      for (std::size_t b = a + 1; b < 6; ++b) {
        if (!pruned.measured(a, b)) {
          // The gate: nothing real may be dropped.
          EXPECT_LE(exact.at(a, b).n_c_hat, kFloor)
              << "stride=" << stride << " dropped pair (" << a << "," << b
              << ")";
          continue;
        }
        expect_cells_equal(pruned.at(a, b), exact.at(a, b), a, b);
      }
    }
    // stride = 1 samples every word: the sampled fraction IS the exact
    // union fraction, so at least the far-above-floor road must survive
    // and at least the zero-overlap pairs must be skipped.
    if (stride == 1) {
      EXPECT_TRUE(pruned.measured(3, 4));
      EXPECT_LT(stats.pairs_survived, 15u);
      EXPECT_GT(stats.pairs_pruned, 0u);
    }
  }
}

// Prune decisions are per-pair and worker-independent, so the pruned
// path must produce the identical survivor set AND identical cells for
// any worker count — same promise the blocked path makes.
TEST(OdMatrixPruned, ParallelBitIdenticalToSerial) {
  constexpr std::size_t kM = 1 << 13;
  const Road roads[] = {{0, 1, kM / 8}, {3, 7, kM / 8}, {2, 9, kM / 8}};
  const auto states = sparse_fleet(10, kM, roads, kM / 8, 0xBEEF);

  DecodeOptions options;
  options.mode = DecodeMode::kPruned;
  options.prune.sample_stride = 2;
  options.prune.min_volume = 700.0;
  DecodeStats serial_stats;
  const OdMatrix serial =
      estimate_od_matrix(states, 2, 1.96, options, &serial_stats);
  options.workers = 8;
  DecodeStats parallel_stats;
  const OdMatrix parallel =
      estimate_od_matrix(states, 2, 1.96, options, &parallel_stats);

  EXPECT_EQ(parallel_stats.pairs_pruned, serial_stats.pairs_pruned);
  EXPECT_EQ(parallel_stats.pairs_survived, serial_stats.pairs_survived);
  EXPECT_EQ(parallel_stats.words_scanned, serial_stats.words_scanned);
  EXPECT_STREQ(parallel_stats.storage, serial_stats.storage);
  for (std::size_t a = 0; a < 10; ++a) {
    for (std::size_t b = a + 1; b < 10; ++b) {
      ASSERT_EQ(serial.measured(a, b), parallel.measured(a, b))
          << "pair (" << a << "," << b << ")";
      if (serial.measured(a, b)) {
        expect_cells_equal(parallel.at(a, b), serial.at(a, b), a, b);
      }
    }
  }
}

// Pruned-path stats wiring: path/storage strings, the phase seconds,
// and the pairs_decoded == pairs_survived contract.
TEST(OdMatrixPruned, StatsReportPhasesAndStorage) {
  constexpr std::size_t kM = 1 << 13;
  const Road roads[] = {{0, 1, kM / 8}};
  const auto states = sparse_fleet(8, kM, roads, kM / 8, 0xCAFE);

  DecodeOptions options;
  options.mode = DecodeMode::kPruned;
  options.prune.sample_stride = 2;
  options.prune.min_volume = 700.0;
  DecodeStats stats;
  const OdMatrix pruned = estimate_od_matrix(states, 2, 1.96, options, &stats);

  EXPECT_STREQ(stats.path, "pruned");
  EXPECT_EQ(stats.sample_stride, 2u);
  EXPECT_EQ(stats.pairs_decoded, stats.pairs_survived);
  EXPECT_EQ(stats.pairs_pruned + stats.pairs_survived, 28u);
  EXPECT_GT(stats.pairs_pruned, 0u);
  EXPECT_GE(stats.prune_seconds, 0.0);
  EXPECT_GE(stats.sweep_seconds, 0.0);
  EXPECT_GE(stats.estimate_seconds, 0.0);
  EXPECT_LE(stats.prune_seconds + stats.sweep_seconds + stats.estimate_seconds,
            stats.wall_seconds + 1e-9);
  // 28 pairs, few survivors: CSR storage pays for itself.
  if (stats.pairs_survived * 4 < 28) {
    EXPECT_STREQ(stats.storage, "sparse");
    EXPECT_TRUE(pruned.sparse());
  }
}

}  // namespace
}  // namespace vlm::core
