// Dense bit array: the storage primitive of both masking schemes.
//
// An RSU's state in the paper is exactly one of these plus a counter. The
// operations the decoding phase needs — zero counting, bitwise OR, and the
// paper's "unfolding" expansion (Section IV-C, Eq. 3) — are all word-level
// and O(m/64).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace vlm::common {

class BitArray {
 public:
  static constexpr std::size_t kWordBits = 64;

  BitArray() = default;

  // Creates an all-zero array of `bit_count` bits. `bit_count` may be any
  // positive value; the power-of-two restriction the paper imposes is a
  // property of the sizing policy (core/sizing.h), not of the container.
  explicit BitArray(std::size_t bit_count);

  std::size_t size() const { return bit_count_; }
  bool empty() const { return bit_count_ == 0; }

  void set(std::size_t index);
  bool test(std::size_t index) const;

  // Bulk ingest: sets every index in `indices` (duplicates are fine — OR
  // is idempotent). Batches of at least one index per array word use
  // plain word writes plus one vectorized popcount recount; smaller
  // batches — the common case under the sub-slice pipeline schedule —
  // maintain the ones count incrementally so the cost is O(n), never
  // O(m/64) per call.
  void set_bulk(std::span<const std::size_t> indices);

  // Clears every bit (start of a new measurement period).
  void reset();

  // O(1) when the count is clean. `set` and `merge_or` keep it exact
  // incrementally; `set_bulk` defers, and the first read afterwards pays
  // one vectorized popcount sweep. Decode paths only ever see clean
  // arrays (merging recounts), so per-array zero counts stay free there.
  std::size_t count_ones() const;
  std::size_t count_zeros() const { return size() - count_ones(); }

  // V_x in the paper: the fraction of '0' bits. Requires a non-empty array.
  double zero_fraction() const;

  // The paper's "unfolding" technique (Eq. 3): returns an array of
  // `target_size` bits with B^u[i] = B[i mod m]. Requires `target_size`
  // to be a positive multiple of size(). Unfolding to size() returns a
  // copy. The zero fraction is invariant under unfolding.
  BitArray unfolded(std::size_t target_size) const;

  // Word-level OR-merge (Eq. 4): the shard-combining primitive of the
  // parallel ingestion engine. `ones_` is recomputed by popcount during
  // the single word sweep, never per bit. Both operands must have equal
  // size. Returns *this.
  BitArray& merge_or(const BitArray& other);

  // Bitwise OR (Eq. 4). Both operands must have equal size.
  BitArray& operator|=(const BitArray& other) { return merge_or(other); }
  friend BitArray operator|(BitArray lhs, const BitArray& rhs) {
    lhs |= rhs;
    return lhs;
  }

  friend bool operator==(const BitArray& a, const BitArray& b) {
    return a.bit_count_ == b.bit_count_ && a.words_ == b.words_;
  }

  // Raw 64-bit words, little-endian bit order within a word; trailing bits
  // past size() are guaranteed zero. Exposed for serialization and tests.
  std::span<const std::uint64_t> words() const { return words_; }

  // Serialization for RSU -> central-server reports.
  std::vector<std::uint8_t> to_bytes() const;
  static BitArray from_bytes(std::size_t bit_count,
                             std::span<const std::uint8_t> bytes);

 private:
  static std::size_t word_count_for(std::size_t bits) {
    return (bits + kWordBits - 1) / kWordBits;
  }

  std::size_t bit_count_ = 0;
  // `ones_` is exact while `ones_stale_` is false; `set_bulk` only
  // writes words and raises the flag, and `count_ones` recounts behind
  // the const read API (hence mutable). Flushing is not safe from
  // concurrent readers — ingest keeps stale arrays worker-private and
  // every cross-thread hand-off (merge, serialization) recounts.
  mutable std::size_t ones_ = 0;
  mutable bool ones_stale_ = false;
  std::vector<std::uint64_t> words_;
};

// One bit array per worker over the same index space. Each ingest worker
// sets bits into its own shard with zero synchronization; the period
// close OR-merges the shards into one array. Because the period array is
// exactly the OR of every vehicle's single set bit and OR is commutative
// and associative, the merged array is bit-identical to a serial ingest
// of the same replies — for ANY shard count and ANY assignment of
// vehicles to shards.
class ShardedBitArray {
 public:
  ShardedBitArray(std::size_t bit_count, unsigned shard_count);

  std::size_t size() const { return shards_.front().size(); }
  unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }

  BitArray& shard(unsigned s);
  const BitArray& shard(unsigned s) const;

  // OR of all shards (merge_or pairwise, ones by popcount).
  BitArray merged() const;

  // Clears every shard for a new period.
  void reset();

 private:
  std::vector<BitArray> shards_;
};

// Result of the fused decode kernel below. `zeros_or` is the zero count
// of unfold(small) | large, measured at the larger size — exactly the
// three quantities Eq. 5 reads (V_x, V_y, V_c after dividing by size).
struct JointZeroCounts {
  std::size_t size_small = 0;   // smaller array's bit count (m_x)
  std::size_t size_large = 0;   // larger array's bit count (m_y)
  std::size_t zeros_small = 0;  // zero bits of the smaller array
  std::size_t zeros_large = 0;  // zero bits of the larger array
  std::size_t zeros_or = 0;     // zero bits of unfold(small) | large
  std::size_t words_scanned = 0;  // 64-bit words the kernel touched
};

// Fused decode kernel: the three zero counts the pair estimator needs in
// one pass, without ever materializing the unfolded array — the OR is
// formed word by word, indexing the smaller array's words cyclically
// (unfolding is periodic repetition, Eq. 3). Accepts the operands in
// either order. Requires the smaller size to divide the larger, which
// power-of-two sizes (Section IV-A) guarantee; anything else throws with
// a sizing hint. O(m_y / 64) time, O(1) extra space.
JointZeroCounts joint_zero_counts(const BitArray& a, const BitArray& b);

namespace kernels {
struct KernelTable;
}  // namespace kernels

// Options for the batch decode below.
struct BatchDecodeOptions {
  // Anchor-tile size in 64-bit words for the tiled sweep (pairs with
  // size ratio r <= 2); 0 picks a power of two sized so that one tile of
  // every array together fits comfortably in L2 (the classic GEMM
  // blocking budget). Any positive value is correct — the tiling never
  // changes the counts, only the cache behavior.
  std::size_t tile_words = 0;
  // Threads the work is spread over (0 = one per core, 1 = serial).
  // Every worker accumulates exact integer partials into its own
  // per-pair slots and the partials are summed afterwards, so the counts
  // are bit-identical for any worker count and any tile size.
  unsigned workers = 1;
  // Kernel variant to run the sweeps on; nullptr = kernels::active().
  // The differential fuzz suite uses this to pin each compiled ISA.
  const kernels::KernelTable* table = nullptr;
};

// Observability for one joint_zero_counts_batch call.
struct BatchDecodeStats {
  std::size_t tile_words = 0;  // tiled-sweep tile size (0: no tiled pair)
  std::size_t tiles = 0;       // tiles over the largest tiled anchor
  // Full-array loads a per-pair decode would do (two per pair) minus the
  // loads this call does: one per array in the tiled sweep, one per
  // folded anchor, one per folded partner. The DRAM-traffic reduction.
  std::size_t dram_passes_saved = 0;
  // Pairs routed through the sub-word materializing fallback (arrays
  // below one word, from the sizing floor).
  std::size_t fallback_pairs = 0;
  // Pairs the fold-plane sweep measured (power-of-two ratio r >= 4), and
  // the anchor words its plane builds read (each folded anchor once).
  std::size_t fold_pairs = 0;
  std::size_t fold_anchor_words = 0;
};

// Batch decode: JointZeroCounts for EVERY unordered pair of `arrays`, in
// upper-triangle row-major order ((0,1), (0,2), ..., (1,2), ...) — the
// K-RSU form of joint_zero_counts, with identical zero counts. Pairs are
// grouped by anchor (the larger array) and measured by one of two exact
// sweeps, chosen by the size ratio r = m_large / m_small:
//   - r <= 2 (and any ratio that is not a power of two): the tiled
//     sweep. The word range is cut into L2-sized tiles and each tile of
//     every anchor is ORed+popcounted against its partners while it is
//     cache-hot, so each array is loaded once per sweep, not once per
//     pair.
//   - r >= 4, a power of two: the fold-plane sweep. The anchor is folded
//     down to the partner's period as bit-sliced count planes (the ones
//     count of every bit position over the r unfolded copies), and
//     ones(L | S^r) = Σ_p 2^p·or_popcount(P_p, S) − (r − 1)·ones(S)
//     (docs/DERIVATIONS.md). One plane build per anchor serves all its
//     partners, and each partner is read once, in log2(r) + 1 plane
//     passes instead of r copies.
// Both sweeps sum exact integer partials, so the result never depends
// on tiling, chunking or worker count. Pairs whose smaller array is below
// one word fall back to the per-pair kernel. `words_scanned` of a folded
// pair is its plane words plus its partner words, (log2(r) + 2)·n_small;
// every other pair reports what joint_zero_counts does. Size
// incompatibility throws exactly as joint_zero_counts does, before any
// counting starts.
std::vector<JointZeroCounts> joint_zero_counts_batch(
    std::span<const BitArray* const> arrays,
    const BatchDecodeOptions& options = {},
    BatchDecodeStats* stats = nullptr);

// Pair-list form: JointZeroCounts for exactly the given (first, second)
// index pairs into `arrays`, in the order given — the sweep the pruned
// decode mode runs over its survivor list. Each entry's zero counts equal
// joint_zero_counts(*arrays[first], *arrays[second]), so any subset's
// counts are bit-identical to the corresponding entries of the all-pairs
// call (which delegates here). Pairs may be empty; indices must be in
// range and distinct.
std::vector<JointZeroCounts> joint_zero_counts_batch(
    std::span<const BitArray* const> arrays,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs,
    const BatchDecodeOptions& options = {},
    BatchDecodeStats* stats = nullptr);

// Window width, in words, of the fold-plane sweep over an anchor of
// `anchor_words` words whose folded partners' periods run from
// `longest_period` down to `shortest_period` words (each anchor_words / r
// for a power-of-two r >= 4): the longest period, halved until the
// sweep's plane scratch fits its fixed per-worker budget (256 KiB), so a
// long anchor is folded window by window instead of whole.
std::size_t fold_window_words(std::size_t anchor_words,
                              std::size_t longest_period,
                              std::size_t shortest_period);

}  // namespace vlm::common
