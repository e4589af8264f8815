#include "traffic/multi_rsu_workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "common/visited_mask.h"

namespace vlm::traffic {
namespace {

MultiRsuConfig small_config() {
  MultiRsuConfig config;
  config.rsu_count = 10;
  config.vehicle_count = 20'000;
  config.zipf_exponent = 1.0;
  config.min_visits = 2;
  config.max_visits = 4;
  config.seed = 3;
  return config;
}

TEST(MultiRsuWorkload, VisitListsAreDistinctAndBounded) {
  MultiRsuWorkload workload(small_config());
  workload.for_each_vehicle([&](std::uint64_t, std::span<const std::uint32_t> rsus) {
    ASSERT_GE(rsus.size(), 2u);
    ASSERT_LE(rsus.size(), 4u);
    std::set<std::uint32_t> unique(rsus.begin(), rsus.end());
    ASSERT_EQ(unique.size(), rsus.size());
    for (std::uint32_t r : rsus) ASSERT_LT(r, 10u);
  });
}

TEST(MultiRsuWorkload, GroundTruthMatchesStream) {
  MultiRsuWorkload workload(small_config());
  std::vector<std::uint64_t> volumes(10, 0);
  std::uint64_t pair_0_1 = 0;
  workload.for_each_vehicle([&](std::uint64_t, std::span<const std::uint32_t> rsus) {
    bool has0 = false, has1 = false;
    for (std::uint32_t r : rsus) {
      ++volumes[r];
      has0 |= (r == 0);
      has1 |= (r == 1);
    }
    if (has0 && has1) ++pair_0_1;
  });
  EXPECT_EQ(workload.node_volumes(), volumes);
  EXPECT_EQ(workload.pair_volume(0, 1), pair_0_1);
  EXPECT_EQ(workload.pair_volume(1, 0), pair_0_1);  // symmetric
}

TEST(MultiRsuWorkload, ZipfSkewMakesVolumesHeterogeneous) {
  MultiRsuWorkload workload(small_config());
  workload.for_each_vehicle([](std::uint64_t, std::span<const std::uint32_t>) {});
  const auto& v = workload.node_volumes();
  // RSU 0 is the most popular under Zipf; the tail is much lighter.
  EXPECT_GT(v[0], 2 * v[9]);
}

TEST(MultiRsuWorkload, DeterministicPerSeed) {
  MultiRsuWorkload a(small_config()), b(small_config());
  a.for_each_vehicle([](std::uint64_t, std::span<const std::uint32_t>) {});
  b.for_each_vehicle([](std::uint64_t, std::span<const std::uint32_t>) {});
  EXPECT_EQ(a.node_volumes(), b.node_volumes());
  EXPECT_EQ(a.pair_volume(2, 5), b.pair_volume(2, 5));
}

// --- Splittable itineraries (random-access generation) ---

TEST(MultiRsuWorkload, ItineraryIsPureAndSorted) {
  const MultiRsuWorkload workload(small_config());
  common::VisitedMask visited(10);
  std::vector<std::uint32_t> first, again;
  // Call out of order and repeatedly: the result depends only on
  // (config, vehicle index), never on call history.
  for (const std::uint64_t v : {17u, 3u, 17u, 19'999u, 0u, 17u}) {
    workload.itinerary(v, visited, first);
    EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
    workload.itinerary(v, visited, again);
    EXPECT_EQ(first, again) << "vehicle " << v;
  }
}

TEST(MultiRsuWorkload, ItineraryMatchesForEachVehicleStream) {
  MultiRsuWorkload streamed(small_config());
  const MultiRsuWorkload random_access(small_config());
  common::VisitedMask visited(10);
  std::vector<std::uint32_t> expected;
  streamed.for_each_vehicle(
      [&](std::uint64_t v, std::span<const std::uint32_t> rsus) {
        random_access.itinerary(v, visited, expected);
        ASSERT_EQ(std::vector<std::uint32_t>(rsus.begin(), rsus.end()),
                  expected)
            << "vehicle " << v;
      });
}

TEST(MultiRsuWorkload, ItineraryGuards) {
  const MultiRsuWorkload workload(small_config());
  std::vector<std::uint32_t> out;
  common::VisitedMask right(10), wrong(9);
  EXPECT_THROW(workload.itinerary(20'000, right, out), std::invalid_argument);
  EXPECT_THROW(workload.itinerary(0, wrong, out), std::invalid_argument);
}

TEST(MultiRsuWorkload, BulkItinerariesMatchPerVehicleAndFuseCounts) {
  // The kernel-batched bulk form must concatenate exactly the per-vehicle
  // itineraries (same draws, same order) for any sub-range, and its fused
  // histogram must count exactly the emitted positions. Two configs: the
  // seed shape (scan dedup, short walks) and a wide high-skew one whose
  // spans exceed 16 visits (VisitedMask dedup) with rejection runs long
  // enough to reach the scalar continuation.
  MultiRsuConfig wide = small_config();
  wide.rsu_count = 40;
  wide.min_visits = 2;
  wide.max_visits = 24;
  wide.zipf_exponent = 1.4;
  wide.seed = 11;
  for (const MultiRsuConfig& config : {small_config(), wide}) {
    MultiRsuWorkload workload(config);
    common::VisitedMask visited(config.rsu_count);
    MultiRsuWorkload::BulkScratch scratch;
    common::UninitVector<std::uint32_t> positions;
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint64_t> counts;
    const struct { std::uint64_t begin, end; } ranges[] = {
        {0, 0}, {0, 1}, {0, 257}, {123, 1987}, {19'000, 20'000}};
    for (const auto& range : ranges) {
      workload.itineraries(range.begin, range.end, visited, scratch, positions,
                           offsets, counts);
      ASSERT_EQ(offsets.size(), range.end - range.begin + 1);
      ASSERT_EQ(counts.size(), config.rsu_count);
      std::vector<std::uint64_t> want_counts(config.rsu_count, 0);
      std::vector<std::uint32_t> want;
      for (std::uint64_t v = range.begin; v < range.end; ++v) {
        const std::size_t i = static_cast<std::size_t>(v - range.begin);
        workload.itinerary(v, visited, want);
        const std::span<const std::uint32_t> got(
            positions.data() + offsets[i], offsets[i + 1] - offsets[i]);
        ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
            << "vehicle " << v;
        for (const std::uint32_t r : want) ++want_counts[r];
      }
      EXPECT_EQ(counts, want_counts)
          << "range [" << range.begin << ", " << range.end << ")";
    }
  }
}

TEST(MultiRsuWorkload, SeedConfigItinerariesAreFrozen) {
  // Golden snapshot of the per-vehicle generator for the seed config
  // (rsus=10, vehicles=20000, zipf=1.0, visits 2..4, seed=3). Any change
  // to the seeding/dedup/sort pipeline shows up here before it silently
  // shifts every figure bench.
  const MultiRsuWorkload workload(small_config());
  const std::vector<std::vector<std::uint32_t>> expected{
      {1, 2, 4, 5},
      {1, 7},
      {0, 1, 2, 8},
      {0, 1, 4, 9},
      {0, 6, 8},
      {0, 1},
      {2, 4, 5},
      {0, 5},
  };
  common::VisitedMask visited(10);
  std::vector<std::uint32_t> rsus;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    workload.itinerary(v, visited, rsus);
    EXPECT_EQ(rsus, expected[v]) << "vehicle " << v;
  }
}

TEST(MultiRsuWorkload, SeedConfigVolumesAreFrozen) {
  // Aggregate golden values over the full 20k-vehicle seed workload.
  MultiRsuWorkload workload(small_config());
  workload.for_each_vehicle([](std::uint64_t, std::span<const std::uint32_t>) {});
  const std::vector<std::uint64_t> expected{14869, 10247, 7542, 5911, 4891,
                                            4227,  3710,  3184, 2904, 2474};
  EXPECT_EQ(workload.node_volumes(), expected);
  EXPECT_EQ(workload.pair_volume(0, 1), 7300u);
}

// --- Parallel ground-truth pass against the per-vehicle oracle ---

// The truth for_each_vehicle must reproduce: a serial loop over the
// per-vehicle itinerary(), counting node volumes and every pair (row-major
// K x K, upper triangle).
struct SerialTruth {
  std::vector<std::vector<std::uint32_t>> itineraries;
  std::vector<std::uint64_t> volumes;
  std::vector<std::uint64_t> pairs;
};

SerialTruth serial_truth(const MultiRsuWorkload& workload) {
  const MultiRsuConfig& config = workload.config();
  const std::size_t k = config.rsu_count;
  SerialTruth truth;
  truth.volumes.assign(k, 0);
  truth.pairs.assign(k * k, 0);
  common::VisitedMask visited(k);
  std::vector<std::uint32_t> rsus;
  for (std::uint64_t v = 0; v < config.vehicle_count; ++v) {
    workload.itinerary(v, visited, rsus);
    for (std::size_t i = 0; i < rsus.size(); ++i) {
      ++truth.volumes[rsus[i]];
      for (std::size_t j = i + 1; j < rsus.size(); ++j) {
        ++truth.pairs[rsus[i] * k + rsus[j]];
      }
    }
    truth.itineraries.push_back(rsus);
  }
  return truth;
}

// Runs one pass and checks the streamed itineraries and the recorded
// truth against the oracle.
void expect_pass_matches(MultiRsuWorkload& workload, const SerialTruth& want) {
  const std::size_t k = workload.config().rsu_count;
  std::uint64_t next = 0;
  workload.for_each_vehicle(
      [&](std::uint64_t v, std::span<const std::uint32_t> rsus) {
        ASSERT_EQ(v, next) << "vehicles out of order";
        ++next;
        ASSERT_LT(v, want.itineraries.size());
        ASSERT_EQ(std::vector<std::uint32_t>(rsus.begin(), rsus.end()),
                  want.itineraries[v])
            << "vehicle " << v;
      });
  EXPECT_EQ(next, workload.config().vehicle_count);
  EXPECT_EQ(workload.node_volumes(), want.volumes);
  for (std::uint32_t a = 0; a < k; ++a) {
    for (std::uint32_t b = a + 1; b < k; ++b) {
      ASSERT_EQ(workload.pair_volume(a, b), want.pairs[a * k + b])
          << "pair (" << a << ", " << b << ")";
      ASSERT_EQ(workload.pair_volume(b, a), want.pairs[a * k + b]);
    }
  }
}

// RSU counts on both sides of the word-dedup limit (64), the smallest
// deployment, and a wide one whose spans exceed 16 visits (mask dedup).
std::vector<MultiRsuConfig> oracle_configs() {
  std::vector<MultiRsuConfig> configs;
  const struct {
    std::size_t rsus;
    std::uint32_t min_visits, max_visits;
    double zipf;
  } shapes[] = {{2, 1, 2, 1.0},  {6, 2, 6, 1.0},  {63, 2, 6, 1.0},
                {64, 2, 8, 1.2}, {65, 2, 8, 1.2}, {300, 2, 24, 1.1}};
  for (const auto& shape : shapes) {
    MultiRsuConfig config;
    config.rsu_count = shape.rsus;
    config.min_visits = shape.min_visits;
    config.max_visits = shape.max_visits;
    config.zipf_exponent = shape.zipf;
    config.seed = 5 + shape.rsus;
    configs.push_back(config);
  }
  return configs;
}

TEST(MultiRsuWorkload, ParallelTruthMatchesSerialOracle) {
  constexpr std::uint64_t kBlock = MultiRsuWorkload::kTruthBlockVehicles;
  // One vehicle, a block boundary from both sides, and a fleet that ends
  // in a partial block of a partial round.
  for (MultiRsuConfig config : oracle_configs()) {
    for (const std::uint64_t vehicles :
         {std::uint64_t{1}, kBlock - 1, kBlock, kBlock + 1, 5 * kBlock + 17}) {
      config.vehicle_count = vehicles;
      SCOPED_TRACE(::testing::Message() << "rsus " << config.rsu_count
                                        << ", vehicles " << vehicles);
      MultiRsuWorkload workload(config);
      expect_pass_matches(workload, serial_truth(workload));
    }
  }
}

TEST(MultiRsuWorkload, ParallelTruthInsideAPoolTaskMatchesOracle) {
  // A pass launched from a pool task runs its rounds inline; the truth
  // must not change.
  std::vector<MultiRsuConfig> configs = oracle_configs();
  for (MultiRsuConfig& config : configs) {
    config.vehicle_count = 3 * MultiRsuWorkload::kTruthBlockVehicles + 5;
  }
  std::vector<std::uint8_t> ran(configs.size(), 0);
  common::parallel_for(configs.size(), 3, [&](std::size_t i) {
    MultiRsuWorkload workload(configs[i]);
    expect_pass_matches(workload, serial_truth(workload));
    ran[i] = 1;
  });
  EXPECT_EQ(ran, std::vector<std::uint8_t>(configs.size(), 1));
}

TEST(MultiRsuWorkload, ThrowingVisitKeepsThePreviousTruth) {
  MultiRsuConfig config = small_config();
  config.vehicle_count = 7 * MultiRsuWorkload::kTruthBlockVehicles + 3;
  MultiRsuWorkload workload(config);
  const SerialTruth want = serial_truth(workload);
  const std::uint64_t throw_at = 5 * MultiRsuWorkload::kTruthBlockVehicles + 9;
  const auto throwing = [&](std::uint64_t v, std::span<const std::uint32_t>) {
    if (v == throw_at) throw std::runtime_error("visit failed");
  };

  // Before any complete pass there is no truth to read.
  EXPECT_THROW(workload.for_each_vehicle(throwing), std::runtime_error);
  EXPECT_TRUE(workload.node_volumes().empty());
  EXPECT_THROW((void)workload.pair_volume(0, 1), std::invalid_argument);

  // After a complete pass, a throwing one leaves that pass's truth whole.
  expect_pass_matches(workload, want);
  EXPECT_THROW(workload.for_each_vehicle(throwing), std::runtime_error);
  EXPECT_EQ(workload.node_volumes(), want.volumes);
  for (std::uint32_t a = 0; a < config.rsu_count; ++a) {
    for (std::uint32_t b = a + 1; b < config.rsu_count; ++b) {
      EXPECT_EQ(workload.pair_volume(a, b),
                want.pairs[a * config.rsu_count + b]);
    }
  }
}

TEST(MultiRsuWorkload, Guards) {
  MultiRsuConfig config = small_config();
  config.max_visits = 20;  // > rsu_count
  EXPECT_THROW(MultiRsuWorkload{config}, std::invalid_argument);
  config = small_config();
  config.rsu_count = 1;
  EXPECT_THROW(MultiRsuWorkload{config}, std::invalid_argument);
  MultiRsuWorkload workload(small_config());
  workload.for_each_vehicle([](std::uint64_t, std::span<const std::uint32_t>) {});
  EXPECT_THROW((void)workload.pair_volume(0, 0), std::invalid_argument);
  EXPECT_THROW((void)workload.pair_volume(0, 10), std::invalid_argument);
}

}  // namespace
}  // namespace vlm::traffic
