#include "common/bit_array.h"

#include <algorithm>
#include <atomic>
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

// Fold-plane scratch budget per worker: 256 KiB, well inside L2. Long
// anchors are folded window by window so the planes of one anchor never
// outgrow it (a 2^26-bit anchor folded whole would need ~20 MiB per
// worker, at the RSS peak of an ingest-heavy run). A larger budget only
// widens the windows, which saves kernel calls but adds to that peak.
constexpr std::size_t kFoldScratchWords =
    (std::size_t{1} << 18) / sizeof(std::uint64_t);

// The fold crossover: a pair is folded when its size ratio r is a power
// of two of at least this. Folding reads the partner against log2(r) + 1
// planes where the tiled sweep reads r anchor copies, so it wins from
// r = 4 (3 passes vs 4) and ties at r = 2 (2 vs 2), where the tiled
// sweep's tile reuse across anchors still pays (docs/DERIVATIONS.md).
constexpr std::size_t kFoldMinRatio = 4;

// One anchor's fold-plane work. The anchor is summed over a binary tree
// whose node (k, ρ) holds, as k + 1 bit-sliced planes of `chunk` words,
// the ones count of every bit position in window ρ of the anchor folded
// to period anchor_n >> k. Node (k, ρ) is the bit-sliced sum of (k − 1, ρ)
// and (k − 1, ρ + (anchor_n >> k) / chunk); the root (levels, 0) folds to
// period `chunk`, and halving it in place reaches shorter periods. The
// tree is walked depth first, so scratch is one node per level.
//
// A partner at fold level k = log2(r) has period anchor_n >> k words.
// Partners are stored grouped by level: those at level k are
// partners[level_begin[k] .. level_begin[k + 1]), and partner i adds into
// accumulator slot slot_offset + i.
struct FoldJob {
  const std::uint64_t* anchor;
  std::size_t anchor_n;
  std::size_t chunk;
  std::size_t levels;   // log2(anchor_n / chunk)
  // log2(anchor_n / smallest partner period), at least `levels`.
  std::size_t deepest;
  std::vector<const std::uint64_t*> partners;
  std::vector<std::size_t> level_begin;  // deepest + 2 entries
  std::size_t slot_offset;
};

// Scratch of one FoldJob: carry row, root planes, and one node per tree
// level 1 .. levels − 1.
std::size_t fold_scratch_words(std::size_t chunk, std::size_t levels,
                               std::size_t deepest) {
  return chunk *
         ((levels - 1) * (levels + 2) / 2 + std::max(levels, deepest) + 2);
}

// Bit-sliced add of two `planes`-plane counts of `width` words (plane
// stride `stride`): acc += other, carrying into plane `planes` of acc.
// `other` may alias the upper half of acc's own rows (in-place halving).
void add_planes(std::uint64_t* acc, const std::uint64_t* other,
                std::size_t planes, std::size_t width, std::size_t stride,
                std::uint64_t* carry) {
  for (std::size_t i = 0; i < width; ++i) {
    const std::uint64_t a = acc[i];
    const std::uint64_t b = other[i];
    acc[i] = a ^ b;
    carry[i] = a & b;
  }
  for (std::size_t p = 1; p < planes; ++p) {
    std::uint64_t* ap = acc + p * stride;
    const std::uint64_t* bp = other + p * stride;
    for (std::size_t i = 0; i < width; ++i) {
      const std::uint64_t a = ap[i];
      const std::uint64_t b = bp[i];
      const std::uint64_t x = a ^ b;
      ap[i] = x ^ carry[i];
      carry[i] = (a & b) | (x & carry[i]);
    }
  }
  std::memcpy(acc + planes * stride, carry, width * sizeof(std::uint64_t));
}

// Runs one FoldJob in `scratch` (fold_scratch_words of the job), adding
// Σ_p 2^p·or_popcount(P_p, S) per partner into `slab` (the caller
// subtracts (r − 1)·ones(S) once the slabs are summed).
class FoldPlaneSweep {
 public:
  FoldPlaneSweep(const FoldJob& job, const kernels::KernelTable& table,
                 std::uint64_t* scratch, std::size_t* slab)
      : job_(job), table_(table), slab_(slab) {
    const std::size_t c = job.chunk;
    carry_ = scratch;
    root_ = carry_ + c;
    std::uint64_t* next = root_ + (job.deepest + 1) * c;
    node_.assign(job.levels, nullptr);
    for (std::size_t level = 1; level < job.levels; ++level) {
      node_[level] = next;
      next += (level + 1) * c;
    }
  }

  void run() {
    const std::size_t c = job_.chunk;
    build(job_.levels, 0, root_);
    std::size_t width = c;
    for (std::size_t level = job_.levels + 1; level <= job_.deepest; ++level) {
      width /= 2;
      add_planes(root_, root_ + width, level, width, c, carry_);
      evaluate(level, root_, width, 0);
    }
  }

 private:
  void build(std::size_t level, std::size_t window, std::uint64_t* out) {
    const std::size_t c = job_.chunk;
    const std::size_t sibling = window + (job_.anchor_n >> level) / c;
    if (level == 1) {
      const std::uint64_t* a = job_.anchor + window * c;
      const std::uint64_t* b = job_.anchor + sibling * c;
      for (std::size_t i = 0; i < c; ++i) {
        out[i] = a[i] ^ b[i];
        out[c + i] = a[i] & b[i];
      }
    } else {
      build(level - 1, window, out);
      build(level - 1, sibling, node_[level - 1]);
      add_planes(out, node_[level - 1], level, c, c, carry_);
    }
    evaluate(level, out, c, window * c);
  }

  // Partners at `level` against the level + 1 planes at `planes`
  // (stride chunk), over partner words [offset, offset + width).
  void evaluate(std::size_t level, const std::uint64_t* planes,
                std::size_t width, std::size_t offset) {
    for (std::size_t i = job_.level_begin[level];
         i < job_.level_begin[level + 1]; ++i) {
      std::size_t weighted = 0;
      for (std::size_t p = 0; p <= level; ++p) {
        weighted += table_.or_popcount_cyclic(planes + p * job_.chunk, width,
                                              job_.partners[i] + offset, width)
                    << p;
      }
      slab_[job_.slot_offset + i] += weighted;
    }
  }

  const FoldJob& job_;
  const kernels::KernelTable& table_;
  std::size_t* slab_;
  std::uint64_t* carry_ = nullptr;
  std::uint64_t* root_ = nullptr;
  std::vector<std::uint64_t*> node_;  // node_[level], 1 <= level < levels
};

}  // namespace

std::size_t fold_window_words(std::size_t anchor_words,
                              std::size_t longest_period,
                              std::size_t shortest_period) {
  std::size_t chunk = longest_period;
  auto levels = static_cast<std::size_t>(
      std::countr_zero(anchor_words / longest_period));
  const auto deepest = static_cast<std::size_t>(
      std::countr_zero(anchor_words / shortest_period));
  while (chunk % 2 == 0 &&
         fold_scratch_words(chunk, levels, deepest) > kFoldScratchWords) {
    chunk /= 2;
    ++levels;
  }
  return chunk;
}

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
  // the O(1) per-array fields, and route the pair: the sub-word fallback,
  // the tiled sweep (r <= 2, or a ratio that is not a power of two), or
  // the fold-plane sweep at level log2(r) (power-of-two r >= 4). Routes
  // are counted per anchor so pass 2 can lay the partners out flat, each
  // anchor's run contiguous.
  constexpr std::uint8_t kTiled = 0;
  constexpr std::uint8_t kFallback = 0xFF;
  constexpr std::size_t kMaxLevels = 64;
  auto anchor_of = [&](std::size_t p) -> std::size_t {
    return arrays[pairs[p].first]->size() <= arrays[pairs[p].second]->size()
               ? pairs[p].second
               : pairs[p].first;
  };
  std::vector<JointZeroCounts> out(pairs.size());
  std::vector<std::uint8_t> route(pairs.size(), kTiled);
  std::vector<std::size_t> tiled_count(k, 0);
  std::vector<std::size_t> fold_count(k * kMaxLevels, 0);
  std::vector<std::uint8_t> in_tiled_sweep(k, 0);
  std::size_t fallback_pairs = 0;
  std::size_t fold_pairs = 0;
  std::size_t max_tiled_anchor_words = 0;
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
      route[p] = kFallback;
      ++fallback_pairs;
      continue;
    }
    JointZeroCounts& counts = out[p];
    counts.size_small = small.size();
    counts.size_large = large.size();
    counts.zeros_small = small.count_zeros();
    counts.zeros_large = large.count_zeros();
    counts.zeros_or = large.size();
    const std::size_t anchor = first_is_small ? b : a;
    const std::size_t n = small.words().size();
    const std::size_t ratio = large.size() / small.size();
    if (ratio >= kFoldMinRatio && std::has_single_bit(ratio)) {
      // The slabs will hold Σ_p 2^p·or_popcount(P_p, S), which exceeds
      // the OR's ones count by (r − 1)·ones(S).
      const auto level = static_cast<std::size_t>(std::countr_zero(ratio));
      counts.zeros_or += (ratio - 1) * small.count_ones();
      counts.words_scanned = (level + 2) * n;
      route[p] = static_cast<std::uint8_t>(level);
      ++fold_count[anchor * kMaxLevels + level];
      ++fold_pairs;
      continue;
    }
    counts.words_scanned = n + large.words().size();
    ++tiled_count[anchor];
    in_tiled_sweep[a] = 1;
    in_tiled_sweep[b] = 1;
    max_tiled_anchor_words =
        std::max(max_tiled_anchor_words, large.words().size());
  }

  // Accumulator slots: each tiled anchor batch gets a contiguous run, so
  // the tile kernel can += straight into the worker's slab; the fold
  // jobs' runs follow. `tiled_count` and `fold_count` become the next
  // free slot of each run.
  struct AnchorBatch {
    const std::uint64_t* anchor_words;
    std::size_t anchor_n;
    std::size_t slot_offset;
    std::size_t partners;
  };
  std::vector<AnchorBatch> batches;
  std::vector<FoldJob> fold_jobs;
  std::vector<std::size_t> fold_job_of(k, 0);
  std::size_t slots = 0;
  std::size_t fold_anchor_words = 0;
  for (std::size_t anchor = 0; anchor < k; ++anchor) {
    if (tiled_count[anchor] == 0) continue;
    const std::span<const std::uint64_t> words = arrays[anchor]->words();
    const std::size_t partners = tiled_count[anchor];
    batches.push_back(AnchorBatch{words.data(), words.size(), slots, partners});
    tiled_count[anchor] = slots;
    slots += partners;
  }
  for (std::size_t anchor = 0; anchor < k; ++anchor) {
    std::size_t* levels = fold_count.data() + anchor * kMaxLevels;
    std::size_t shallowest = kMaxLevels;
    std::size_t deepest = 0;
    for (std::size_t level = 0; level < kMaxLevels; ++level) {
      if (levels[level] == 0) continue;
      shallowest = std::min(shallowest, level);
      deepest = level;
    }
    if (shallowest == kMaxLevels) continue;
    FoldJob job;
    job.anchor = arrays[anchor]->words().data();
    job.anchor_n = arrays[anchor]->words().size();
    job.chunk = fold_window_words(job.anchor_n, job.anchor_n >> shallowest,
                                  job.anchor_n >> deepest);
    job.levels =
        static_cast<std::size_t>(std::countr_zero(job.anchor_n / job.chunk));
    job.deepest = std::max(deepest, job.levels);
    job.slot_offset = slots;
    job.level_begin.assign(job.deepest + 2, 0);
    for (std::size_t level = 0; level <= job.deepest; ++level) {
      const std::size_t begin = job.level_begin[level];
      job.level_begin[level + 1] = begin + levels[level];
      levels[level] = begin;
    }
    job.partners.resize(job.level_begin.back());
    slots += job.partners.size();
    fold_anchor_words += job.anchor_n;
    fold_job_of[anchor] = fold_jobs.size();
    fold_jobs.push_back(std::move(job));
  }

  // Pass 2 (serial): lay every routed pair's partner into its slot.
  std::vector<std::size_t> slot_pair(slots);
  std::vector<const std::uint64_t*> tiled_partners(slots - fold_pairs);
  std::vector<std::size_t> tiled_partner_words(slots - fold_pairs);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (route[p] == kFallback) continue;
    const std::size_t anchor = anchor_of(p);
    const BitArray& partner =
        *arrays[anchor == pairs[p].first ? pairs[p].second : pairs[p].first];
    if (route[p] == kTiled) {
      const std::size_t slot = tiled_count[anchor]++;
      tiled_partners[slot] = partner.words().data();
      tiled_partner_words[slot] = partner.words().size();
      slot_pair[slot] = p;
      continue;
    }
    FoldJob& job = fold_jobs[fold_job_of[anchor]];
    const std::size_t i = fold_count[anchor * kMaxLevels + route[p]]++;
    job.partners[i] = partner.words().data();
    slot_pair[job.slot_offset + i] = p;
  }

  std::size_t tile_words = 0;
  std::size_t tiles = 0;
  if (max_tiled_anchor_words > 0) {
    tile_words = options.tile_words != 0 ? options.tile_words
                                         : auto_tile_words(k);
    tiles = (max_tiled_anchor_words + tile_words - 1) / tile_words;
  }

  // Work units, pulled dynamically by the workers: one per fold job,
  // largest anchor first, then the tiles in order. A tile unit sweeps one
  // tile of a run of tiled anchors; with the anchors sorted longest
  // first, the anchors a tile reaches are a prefix. Runs are cut at a
  // bounded cost so the first tiles, which every anchor reaches, do not
  // serialize the sweep, and a run keeps its tile of every partner
  // cache-hot.
  auto longer = [](const auto& x, const auto& y) {
    return x.anchor_n > y.anchor_n;
  };
  std::stable_sort(fold_jobs.begin(), fold_jobs.end(), longer);
  std::stable_sort(batches.begin(), batches.end(), longer);
  struct TileUnit {
    std::size_t tile;
    std::size_t batch_begin;
    std::size_t batch_end;
  };
  const unsigned workers =
      options.workers == 0 ? default_worker_count() : options.workers;
  std::size_t tiled_cost = 0;
  for (const AnchorBatch& batch : batches) {
    tiled_cost += batch.anchor_n * batch.partners;
  }
  const std::size_t unit_budget =
      std::max<std::size_t>(1, tiled_cost / (8 * std::size_t{workers}));
  std::vector<TileUnit> tile_units;
  std::size_t reached = batches.size();
  for (std::size_t t = 0; t < tiles; ++t) {
    const std::size_t begin = t * tile_words;
    while (batches[reached - 1].anchor_n <= begin) --reached;
    std::size_t run_begin = 0;
    std::size_t cost = 0;
    for (std::size_t i = 0; i < reached; ++i) {
      cost += std::min(tile_words, batches[i].anchor_n - begin) *
              batches[i].partners;
      if (cost >= unit_budget || i + 1 == reached) {
        tile_units.push_back(TileUnit{t, run_begin, i + 1});
        run_begin = i + 1;
        cost = 0;
      }
    }
  }

  // Pass 3 (parallel): every worker adds exact integer partials into its
  // own slab, so the summed counts are identical for every worker count,
  // unit order and tile size.
  const std::size_t unit_count = fold_jobs.size() + tile_units.size();
  const unsigned slabs =
      static_cast<unsigned>(std::min<std::size_t>(workers, unit_count));
  std::vector<std::vector<std::size_t>> acc(
      slabs, std::vector<std::size_t>(slot_pair.size(), 0));

  std::atomic<std::size_t> next_unit{0};
  auto drain = [&](unsigned worker, std::size_t, std::size_t) {
    std::vector<std::size_t>& slab = acc[worker];
    std::vector<std::uint64_t> scratch;
    for (std::size_t u = next_unit++; u < unit_count; u = next_unit++) {
      if (u < fold_jobs.size()) {
        const obs::trace::TraceScope fold_scope("decode/fold");
        const FoldJob& job = fold_jobs[u];
        scratch.resize(std::max(
            scratch.size(),
            fold_scratch_words(job.chunk, job.levels, job.deepest)));
        FoldPlaneSweep(job, table, scratch.data(), slab.data()).run();
        continue;
      }
      const obs::trace::TraceScope tile_scope("decode/tile");
      const TileUnit& unit = tile_units[u - fold_jobs.size()];
      const std::size_t begin = unit.tile * tile_words;
      for (std::size_t i = unit.batch_begin; i < unit.batch_end; ++i) {
        const AnchorBatch& batch = batches[i];
        const std::size_t end = std::min(batch.anchor_n, begin + tile_words);
        table.or_popcount_cyclic_batch(
            batch.anchor_words, begin, end,
            tiled_partners.data() + batch.slot_offset,
            tiled_partner_words.data() + batch.slot_offset, batch.partners,
            slab.data() + batch.slot_offset);
      }
    }
  };
  if (unit_count > 0) parallel_slices(slabs, slabs, drain);

  // zeros_or was preset to size_large plus the fold correction.
  for (std::size_t slot = 0; slot < slot_pair.size(); ++slot) {
    std::size_t ones = 0;
    for (const std::vector<std::size_t>& slab : acc) ones += slab[slot];
    out[slot_pair[slot]].zeros_or -= ones;
  }

  if (stats != nullptr) {
    stats->tile_words = tile_words;
    stats->tiles = tiles;
    stats->fallback_pairs = fallback_pairs;
    stats->fold_pairs = fold_pairs;
    stats->fold_anchor_words = fold_anchor_words;
    const std::size_t word_pairs = pairs.size() - fallback_pairs;
    std::size_t loads = fold_jobs.size() + fold_pairs;
    for (const std::uint8_t in_sweep : in_tiled_sweep) loads += in_sweep;
    stats->dram_passes_saved = 2 * word_pairs - loads;
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
