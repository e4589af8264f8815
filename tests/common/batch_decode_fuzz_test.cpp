// Differential fuzz of the batch decode (tiled sweep for r <= 2,
// fold-plane sweep for r >= 4): random fleets (K, mixed power-of-two
// sizes down to the sub-word sizing floor, size ratios up to 1024),
// random tile sizes, random worker counts, and both the all-pairs and
// the pair-list (pruned survivor) forms, asserted bit-identical — every
// zero count of JointZeroCounts — to the per-pair fused kernel, on every
// kernel variant compiled in and available on this host. Neither sweep
// nor the parallel reduction may change a single count.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bit_array.h"
#include "common/kernels/kernels.h"
#include "common/rng.h"

namespace vlm::common {
namespace {

// words_scanned the batch decode reports for a pair: plane plus partner
// words, (log2 r + 2)·n_small, for a folded pair (power-of-two r >= 4);
// the per-pair kernel's count for every other pair.
std::size_t batch_words(const JointZeroCounts& counts) {
  const std::size_t ratio = counts.size_large / counts.size_small;
  if (counts.size_small % 64 != 0 || ratio < 4 || !std::has_single_bit(ratio)) {
    return counts.words_scanned;
  }
  return (static_cast<std::size_t>(std::countr_zero(ratio)) + 2) *
         (counts.size_small / 64);
}

void expect_matches_pair(const JointZeroCounts& got,
                         const JointZeroCounts& expected) {
  EXPECT_EQ(got.size_small, expected.size_small);
  EXPECT_EQ(got.size_large, expected.size_large);
  EXPECT_EQ(got.zeros_small, expected.zeros_small);
  EXPECT_EQ(got.zeros_large, expected.zeros_large);
  EXPECT_EQ(got.zeros_or, expected.zeros_or);
  EXPECT_EQ(got.words_scanned, batch_words(expected));
}

BitArray random_array(std::size_t bits, Xoshiro256ss& rng) {
  BitArray out(bits);
  // Load factors from sparse to near-saturated, so zero counts span the
  // whole range (including saturation corner cases).
  const std::size_t sets = rng.uniform(2 * bits + 1);
  for (std::size_t i = 0; i < sets; ++i) {
    out.set(static_cast<std::size_t>(rng.uniform(bits)));
  }
  return out;
}

class BatchDecodeFuzz : public ::testing::TestWithParam<kernels::Isa> {
 protected:
  void SetUp() override {
    if (!kernels::available(GetParam())) {
      GTEST_SKIP() << kernels::isa_name(GetParam())
                   << " not available on this host";
    }
  }
};

TEST_P(BatchDecodeFuzz, BlockedMatchesPerPairEverywhere) {
  const kernels::KernelTable& table = kernels::table_for(GetParam());
  Xoshiro256ss rng(0xB10C + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t k = 2 + rng.uniform(9);  // 2..10 arrays
    std::vector<BitArray> arrays;
    arrays.reserve(k);
    for (std::size_t r = 0; r < k; ++r) {
      // Power-of-two sizes from the sub-word sizing floor (8 bits) to
      // 2^14, so unfold ratios, sub-word fallbacks, and equal-size pairs
      // all occur.
      const std::size_t bits = std::size_t{1} << (3 + rng.uniform(12));
      arrays.push_back(random_array(bits, rng));
    }
    std::vector<const BitArray*> ptrs;
    for (const BitArray& a : arrays) ptrs.push_back(&a);

    BatchDecodeOptions options;
    const std::size_t tile_choices[] = {1, 2, 3, 8, 64, 1024, 0};
    options.tile_words = tile_choices[rng.uniform(7)];
    const unsigned worker_choices[] = {1, 2, 3, 7};
    options.workers = worker_choices[rng.uniform(4)];
    options.table = &table;
    BatchDecodeStats stats;
    const std::vector<JointZeroCounts> got =
        joint_zero_counts_batch(ptrs, options, &stats);

    ASSERT_EQ(got.size(), k * (k - 1) / 2);
    std::size_t p = 0;
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b, ++p) {
        SCOPED_TRACE(::testing::Message()
                     << "trial=" << trial << " pair (" << a << "," << b
                     << ") tile=" << options.tile_words
                     << " workers=" << options.workers);
        expect_matches_pair(got[p], joint_zero_counts(arrays[a], arrays[b]));
      }
    }
  }
}

// Skewed fleets, shaped like a Zipf deployment: sizes spread over ratios
// 1..1024 from a random base, with sub-word arrays mixed in. Each fleet
// is decoded all-pairs and over a random sorted pair subset (the shape
// of a pruned decode's survivor list) at every worker count.
TEST_P(BatchDecodeFuzz, SkewedSizesMatchPerPairForEveryPairListAndWorkerCount) {
  const kernels::KernelTable& table = kernels::table_for(GetParam());
  Xoshiro256ss rng(0x5CE3 + static_cast<std::uint64_t>(GetParam()));
  std::size_t folded = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t k = 2 + rng.uniform(11);  // 2..12 arrays
    const std::size_t base_exp = 6 + rng.uniform(5);  // 64..1024 bits
    std::vector<BitArray> arrays;
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t bits = rng.uniform(6) == 0
                                   ? std::size_t{1} << (3 + rng.uniform(3))
                                   : std::size_t{1}
                                         << (base_exp + rng.uniform(11));
      arrays.push_back(random_array(bits, rng));
    }
    std::vector<const BitArray*> ptrs;
    for (const BitArray& a : arrays) ptrs.push_back(&a);

    std::vector<std::pair<std::uint32_t, std::uint32_t>> all_pairs;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> survivors;
    for (std::uint32_t a = 0; a < k; ++a) {
      for (std::uint32_t b = a + 1; b < k; ++b) {
        all_pairs.emplace_back(a, b);
        if (rng.uniform(3) != 0) survivors.emplace_back(a, b);
      }
    }
    for (const unsigned workers : {1u, 2u, 4u, 7u}) {
      BatchDecodeOptions options;
      options.workers = workers;
      options.table = &table;
      for (const auto* list : {&all_pairs, &survivors}) {
        BatchDecodeStats stats;
        const std::vector<JointZeroCounts> got =
            joint_zero_counts_batch(ptrs, *list, options, &stats);
        ASSERT_EQ(got.size(), list->size());
        for (std::size_t p = 0; p < list->size(); ++p) {
          const auto [a, b] = (*list)[p];
          SCOPED_TRACE(::testing::Message()
                       << "trial=" << trial << " pair (" << a << "," << b
                       << ") workers=" << workers
                       << (list == &all_pairs ? " all" : " survivors"));
          expect_matches_pair(got[p],
                              joint_zero_counts(arrays[a], arrays[b]));
        }
        folded += stats.fold_pairs;
      }
    }
  }
  EXPECT_GT(folded, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllIsas, BatchDecodeFuzz,
                         ::testing::Values(kernels::Isa::kScalar,
                                           kernels::Isa::kAvx2,
                                           kernels::Isa::kAvx512),
                         [](const ::testing::TestParamInfo<kernels::Isa>&
                                param) {
                           return kernels::isa_name(param.param);
                         });

}  // namespace
}  // namespace vlm::common
