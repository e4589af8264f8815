#include "common/bit_array.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/kernels/kernels.h"
#include "common/parallel.h"
#include "common/require.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vlm::common {

BitArray::BitArray(std::size_t bit_count)
    : bit_count_(bit_count), words_(word_count_for(bit_count), 0) {
  VLM_REQUIRE(bit_count > 0, "bit array must have at least one bit");
}

void BitArray::set(std::size_t index) {
  VLM_REQUIRE(index < bit_count_, "bit index out of range");
  std::uint64_t& word = words_[index / kWordBits];
  const std::uint64_t mask = std::uint64_t{1} << (index % kWordBits);
  ones_ += static_cast<std::size_t>((word & mask) == 0);
  word |= mask;
}

bool BitArray::test(std::size_t index) const {
  VLM_REQUIRE(index < bit_count_, "bit index out of range");
  return (words_[index / kWordBits] >> (index % kWordBits)) & 1u;
}

void BitArray::reset() {
  for (auto& w : words_) w = 0;
  ones_ = 0;
  ones_stale_ = false;
}

std::size_t BitArray::count_ones() const {
  if (ones_stale_) {
    ones_ = kernels::active().popcount(words_.data(), words_.size());
    ones_stale_ = false;
  }
  return ones_;
}

double BitArray::zero_fraction() const {
  VLM_REQUIRE(bit_count_ > 0, "zero_fraction of an empty array is undefined");
  return static_cast<double>(count_zeros()) / static_cast<double>(bit_count_);
}

BitArray BitArray::unfolded(std::size_t target_size) const {
  VLM_REQUIRE(bit_count_ > 0, "cannot unfold an empty array");
  VLM_REQUIRE(target_size >= bit_count_ && target_size % bit_count_ == 0,
              "unfold target must be a positive multiple of the array size");
  BitArray out(target_size);
  if (bit_count_ % kWordBits == 0) {
    // Word-aligned source: every output word is a whole source word.
    const std::size_t src_words = words_.size();
    for (std::size_t w = 0; w < out.words_.size(); ++w) {
      out.words_[w] = words_[w % src_words];
    }
  } else {
    // Non-word-aligned source (sub-64-bit arrays from very light RSUs,
    // or odd sizes in tests): assemble each output word from source
    // fragments read with word-level shifts — a fragment is bounded by
    // the end of the output word, the end of the source, or the end of
    // the array, so this is O(words_out · max(1, 64/size)) instead of
    // the former one-bit-at-a-time set/test loop.
    auto read_bits = [&](std::size_t pos, std::size_t len) {
      const std::size_t w = pos / kWordBits;
      const std::size_t off = pos % kWordBits;
      std::uint64_t bits = words_[w] >> off;
      if (off + len > kWordBits) {
        bits |= words_[w + 1] << (kWordBits - off);
      }
      if (len < kWordBits) bits &= (std::uint64_t{1} << len) - 1;
      return bits;
    };
    std::size_t out_bit = 0;
    std::size_t src_pos = 0;
    while (out_bit < target_size) {
      const std::size_t len =
          std::min({kWordBits - out_bit % kWordBits, bit_count_ - src_pos,
                    target_size - out_bit});
      out.words_[out_bit / kWordBits] |= read_bits(src_pos, len)
                                         << (out_bit % kWordBits);
      out_bit += len;
      src_pos += len;
      if (src_pos == bit_count_) src_pos = 0;
    }
  }
  // Unfolding repeats the pattern exactly target/size times, so the
  // ones count scales with the ratio — no recount sweep needed (beyond
  // flushing a pending set_bulk recount on the source).
  out.ones_ = count_ones() * (target_size / bit_count_);
  return out;
}

BitArray& BitArray::merge_or(const BitArray& other) {
  VLM_REQUIRE(bit_count_ == other.bit_count_,
              "bitwise OR requires equal-sized arrays (unfold first)");
  ones_ = kernels::active().merge_or(words_.data(), other.words_.data(),
                                     words_.size());
  ones_stale_ = false;
  return *this;
}

void BitArray::set_bulk(std::span<const std::size_t> indices) {
  if (indices.empty()) return;
  if (indices.size() < words_.size()) {
    // Small batch relative to the array — the common case under the
    // sub-slice pipeline schedule, which hands each bucket many small
    // chunks per period. Just write the bits and defer the recount to
    // the next count_ones() read (or to the merge sweep, which recounts
    // anyway), so the cost is O(n) per call, never O(m/64).
    const std::size_t n = indices.size();
    for (std::size_t i = 0; i < n; ++i) {
      // The word touched 32 iterations ahead is a data-dependent random
      // address — prefetching it keeps several misses in flight instead
      // of serializing on each RMW. (Prefetch never faults, so the
      // not-yet-validated index is safe to feed it.)
      if (i + 32 < n) {
        __builtin_prefetch(&words_[indices[i + 32] / kWordBits], 1, 1);
      }
      const std::size_t index = indices[i];
      VLM_REQUIRE(index < bit_count_, "bit index out of range");
      words_[index / kWordBits] |= std::uint64_t{1} << (index % kWordBits);
    }
    ones_stale_ = true;
    return;
  }
  ones_ = kernels::active().set_scatter(words_.data(), bit_count_,
                                        indices.data(), indices.size());
  ones_stale_ = false;
}

ShardedBitArray::ShardedBitArray(std::size_t bit_count, unsigned shard_count) {
  VLM_REQUIRE(shard_count >= 1, "need at least one shard");
  shards_.reserve(shard_count);
  for (unsigned s = 0; s < shard_count; ++s) shards_.emplace_back(bit_count);
}

BitArray& ShardedBitArray::shard(unsigned s) {
  VLM_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s];
}

const BitArray& ShardedBitArray::shard(unsigned s) const {
  VLM_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s];
}

BitArray ShardedBitArray::merged() const {
  static obs::Histogram& merge_phase = obs::phase("ingest/shard_merge");
  static obs::Counter& merge_words =
      obs::MetricsRegistry::global().counter("ingest/merge_words");
  const obs::Span span(merge_phase);
  BitArray out = shards_.front();
  for (std::size_t s = 1; s < shards_.size(); ++s) out.merge_or(shards_[s]);
  merge_words.add(static_cast<std::uint64_t>(out.words().size()) *
                  (shards_.size() - 1));
  return out;
}

void ShardedBitArray::reset() {
  for (BitArray& shard : shards_) shard.reset();
}

// The serialized layout is the words' little-endian bytes, truncated to
// ceil(bit_count / 8), so on a little-endian host both directions are a
// single copy.
static_assert(std::endian::native == std::endian::little,
              "to_bytes/from_bytes copy words_ as little-endian bytes");

std::vector<std::uint8_t> BitArray::to_bytes() const {
  const auto* first = reinterpret_cast<const std::uint8_t*>(words_.data());
  return {first, first + (bit_count_ + 7) / 8};
}

JointZeroCounts joint_zero_counts(const BitArray& a, const BitArray& b) {
  VLM_REQUIRE(!a.empty() && !b.empty(),
              "joint zero counts need two non-empty arrays");
  const BitArray& small = a.size() <= b.size() ? a : b;
  const BitArray& large = a.size() <= b.size() ? b : a;
  VLM_REQUIRE(large.size() % small.size() == 0,
              "array sizes are not unfold-compatible: the smaller size must "
              "divide the larger — size both arrays as powers of two "
              "(Section IV-A) and this holds automatically");

  JointZeroCounts out;
  out.size_small = small.size();
  out.size_large = large.size();

  const std::span<const std::uint64_t> sw = small.words();
  const std::span<const std::uint64_t> lw = large.words();
  if (small.size() % BitArray::kWordBits == 0) {
    // Word-aligned sizes: the per-array zero counts are maintained by the
    // arrays themselves (O(1)), so the only sweep is the fused OR +
    // popcount kernel — streaming the larger array once and indexing the
    // smaller array's words cyclically instead of materializing the
    // unfold. The sweep runs on whichever ISA the dispatch selected.
    const std::size_t ones_or = kernels::active().or_popcount_cyclic(
        lw.data(), lw.size(), sw.data(), sw.size());
    out.zeros_small = small.count_zeros();
    out.zeros_large = large.count_zeros();
    out.zeros_or = large.size() - ones_or;
    out.words_scanned = sw.size() + lw.size();
  } else {
    // Sub-word sizes (the sizing floor can produce 8..32-bit arrays):
    // fall back to the materializing reference path; these arrays are a
    // handful of bytes, so the copy is irrelevant.
    const BitArray combined = small.size() == large.size()
                                  ? small | large
                                  : small.unfolded(large.size()) | large;
    out.zeros_small = small.count_zeros();
    out.zeros_large = large.count_zeros();
    out.zeros_or = combined.count_zeros();
    out.words_scanned = sw.size() + 2 * lw.size() + combined.words().size();
  }
  return out;
}

namespace {

// Auto tile size: budget ~1 MiB of L2 for one tile of every array, so a
// whole tile sweep (anchor + every partner tile) stays cache-resident
// while the batch kernel reuses it K−1 times. Clamped so tiny
// deployments still amortize the per-tile kernel-call overhead and huge
// ones never fall below a vector-friendly tile.
std::size_t auto_tile_words(std::size_t array_count) {
  constexpr std::size_t kBudgetWords = (std::size_t{1} << 20) / sizeof(std::uint64_t);
  const std::size_t per_array =
      std::clamp<std::size_t>(kBudgetWords / std::max<std::size_t>(1, array_count),
                              std::size_t{256}, std::size_t{65536});
  return std::bit_floor(per_array);
}

}  // namespace

std::vector<JointZeroCounts> joint_zero_counts_batch(
    std::span<const BitArray* const> arrays, const BatchDecodeOptions& options,
    BatchDecodeStats* stats) {
  const std::size_t k = arrays.size();
  VLM_REQUIRE(k >= 2, "batch decode needs at least two arrays");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(k * (k - 1) / 2);
  for (std::uint32_t a = 0; a < k; ++a) {
    for (std::uint32_t b = a + 1; b < k; ++b) pairs.emplace_back(a, b);
  }
  return joint_zero_counts_batch(arrays, pairs, options, stats);
}

std::vector<JointZeroCounts> joint_zero_counts_batch(
    std::span<const BitArray* const> arrays,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs,
    const BatchDecodeOptions& options, BatchDecodeStats* stats) {
  const std::size_t k = arrays.size();
  for (const BitArray* array : arrays) {
    VLM_REQUIRE(array != nullptr && !array->empty(),
                "joint zero counts need two non-empty arrays");
  }
  const kernels::KernelTable& table =
      options.table != nullptr ? *options.table : kernels::active();

  // Pass 1 (serial, cheap): order every pair exactly as joint_zero_counts
  // does (small = first operand on size ties, so the anchor — the larger
  // array — is the second), validate unfold-compatibility up front, fill
  // the O(1) per-array fields, and group the word-aligned pairs by anchor
  // so one tile of the anchor can be swept against all its partners. A
  // pair list sorted by (first, second) — the survivor lists the pruned
  // mode produces, and the all-pairs enumeration — keeps each anchor
  // group a contiguous run of accumulator slots.
  struct GroupEntry {
    const std::uint64_t* partner_words;
    std::size_t partner_n;
    std::size_t pair;  // this pair's slot in `out`
  };
  std::vector<JointZeroCounts> out(pairs.size());
  std::vector<std::vector<GroupEntry>> groups(k);
  std::vector<std::size_t> pairs_touching(k, 0);
  std::size_t fallback_pairs = 0;
  std::size_t max_anchor_words = 0;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::size_t a = pairs[p].first;
    const std::size_t b = pairs[p].second;
    VLM_REQUIRE(a < k && b < k && a != b,
                "batch decode pair indices must be distinct and in range");
    const BitArray& first = *arrays[a];
    const BitArray& second = *arrays[b];
    const bool first_is_small = first.size() <= second.size();
    const BitArray& small = first_is_small ? first : second;
    const BitArray& large = first_is_small ? second : first;
    VLM_REQUIRE(large.size() % small.size() == 0,
                "array sizes are not unfold-compatible: the smaller size "
                "must divide the larger — size both arrays as powers of two "
                "(Section IV-A) and this holds automatically");
    if (small.size() % BitArray::kWordBits != 0) {
      // Sub-word arrays (sizing floor): a handful of bytes — reuse the
      // per-pair materializing fallback, bit for bit.
      out[p] = joint_zero_counts(first, second);
      ++fallback_pairs;
      continue;
    }
    JointZeroCounts& counts = out[p];
    counts.size_small = small.size();
    counts.size_large = large.size();
    counts.zeros_small = small.count_zeros();
    counts.zeros_large = large.count_zeros();
    counts.words_scanned = small.words().size() + large.words().size();
    const std::size_t anchor = first_is_small ? b : a;
    groups[anchor].push_back(
        GroupEntry{small.words().data(), small.words().size(), p});
    ++pairs_touching[a];
    ++pairs_touching[b];
    max_anchor_words = std::max(max_anchor_words, large.words().size());
  }

  std::size_t tile_words = 0;
  std::size_t tiles = 0;
  if (max_anchor_words > 0) {
    tile_words = options.tile_words != 0 ? options.tile_words
                                         : auto_tile_words(k);
    tiles = (max_anchor_words + tile_words - 1) / tile_words;

    // Flatten the anchor groups: each batch gets a contiguous run of
    // accumulator slots, so the kernel can += straight into the worker's
    // slab and slot → pair stays a precomputed lookup.
    struct AnchorBatch {
      const std::uint64_t* anchor_words;
      std::size_t anchor_n;
      std::vector<const std::uint64_t*> partner_ptrs;
      std::vector<std::size_t> partner_words;
      std::size_t slot_offset;
    };
    std::vector<AnchorBatch> batches;
    std::vector<std::size_t> slot_pair;
    batches.reserve(k);
    for (std::size_t anchor = 0; anchor < k; ++anchor) {
      if (groups[anchor].empty()) continue;
      AnchorBatch batch;
      batch.anchor_words = arrays[anchor]->words().data();
      batch.anchor_n = arrays[anchor]->words().size();
      batch.slot_offset = slot_pair.size();
      for (const GroupEntry& entry : groups[anchor]) {
        batch.partner_ptrs.push_back(entry.partner_words);
        batch.partner_words.push_back(entry.partner_n);
        slot_pair.push_back(entry.pair);
      }
      batches.push_back(std::move(batch));
    }

    // Pass 2 (parallel over tiles): every worker accumulates OR+popcount
    // partials for its own tile slice into its own slab. Slices are
    // contiguous and integer partials are summed in fixed slot order
    // below, so the result is bit-identical for every (workers,
    // tile_words) choice.
    const unsigned workers =
        options.workers == 0 ? default_worker_count() : options.workers;
    const unsigned slabs =
        static_cast<unsigned>(std::min<std::size_t>(workers, tiles));
    std::vector<std::vector<std::size_t>> acc(
        slabs, std::vector<std::size_t>(slot_pair.size(), 0));
    parallel_slices(
        tiles, workers,
        [&](unsigned worker, std::size_t tile_begin, std::size_t tile_end) {
          std::vector<std::size_t>& slab = acc[worker];
          for (std::size_t t = tile_begin; t < tile_end; ++t) {
            const obs::trace::TraceScope tile_scope("decode/tile");
            const std::size_t begin = t * tile_words;
            for (const AnchorBatch& batch : batches) {
              if (begin >= batch.anchor_n) continue;
              const std::size_t end =
                  std::min(batch.anchor_n, begin + tile_words);
              table.or_popcount_cyclic_batch(
                  batch.anchor_words, begin, end, batch.partner_ptrs.data(),
                  batch.partner_words.data(), batch.partner_ptrs.size(),
                  slab.data() + batch.slot_offset);
            }
          }
        });

    for (std::size_t slot = 0; slot < slot_pair.size(); ++slot) {
      std::size_t ones = 0;
      for (const std::vector<std::size_t>& slab : acc) ones += slab[slot];
      JointZeroCounts& counts = out[slot_pair[slot]];
      counts.zeros_or = counts.size_large - ones;
    }
  }

  if (stats != nullptr) {
    stats->tile_words = tile_words;
    stats->tiles = tiles;
    stats->fallback_pairs = fallback_pairs;
    stats->dram_passes_saved = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (pairs_touching[i] > 0) {
        stats->dram_passes_saved += pairs_touching[i] - 1;
      }
    }
  }
  return out;
}

BitArray BitArray::from_bytes(std::size_t bit_count,
                              std::span<const std::uint8_t> bytes) {
  VLM_REQUIRE(bytes.size() == (bit_count + 7) / 8,
              "byte buffer does not match the declared bit count");
  BitArray out(bit_count);
  std::memcpy(out.words_.data(), bytes.data(), bytes.size());
  // Trailing bits past bit_count must stay zero; reject buffers that set
  // them, since they would silently corrupt zero counting.
  const std::size_t tail = bit_count % kWordBits;
  if (tail != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << tail) - 1;
    VLM_REQUIRE((out.words_.back() & ~mask) == 0,
                "byte buffer sets bits past the declared bit count");
  }
  out.ones_ = kernels::active().popcount(out.words_.data(), out.words_.size());
  return out;
}

}  // namespace vlm::common
