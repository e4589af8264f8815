#include "core/od_matrix.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/bit_array.h"
#include "common/kernels/kernels.h"
#include "common/parallel.h"
#include "common/require.h"
#include "core/estimator.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace vlm::core {

namespace {

// Decode metrics. The DecodeStats a caller receives is a per-run view
// over exactly these atoms: every field is incremented here and added to
// the registry at the same site, so a registry delta across one decode
// equals the struct (a test pins this). The handles register together on
// the first decode, keeping the exported key set independent of pruning,
// worker count, and tile size.
struct DecodeMetrics {
  obs::Counter& runs;
  obs::Counter& pairs;
  obs::Counter& words_scanned;
  obs::Counter& pairs_pruned;    // pruned path: pairs the sample skipped
  obs::Counter& pairs_survived;  // pruned path: pairs the exact sweep ran
  obs::Counter& pairs_saturated;  // pairs whose MLE hit the saturation floor
  obs::Gauge& workers;
  obs::Gauge& tile_words;
  obs::Gauge& dram_passes_saved;
  obs::Info& kernel_isa;
  obs::Info& path;
  obs::Histogram& total;       // whole estimate_od_matrix call
  obs::Histogram& prune;       // pruned path: the sampled-union skip stage
  obs::Histogram& tile_sweep;  // the batched zero-count sweep
  obs::Histogram& estimate;    // Eq. 5 / interval math over the pair list
};

DecodeMetrics& decode_metrics() {
  static DecodeMetrics* metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    return new DecodeMetrics{r.counter("decode/runs"),
                             r.counter("decode/pairs"),
                             r.counter("decode/words_scanned"),
                             r.counter("decode/pairs_pruned"),
                             r.counter("decode/pairs_survived"),
                             r.counter("decode/pairs_saturated"),
                             r.gauge("decode/workers"),
                             r.gauge("decode/tile_words"),
                             r.gauge("decode/dram_passes_saved"),
                             r.info("kernel/isa"),
                             r.info("decode/path"),
                             obs::phase("decode/total"),
                             obs::phase("decode/prune"),
                             obs::phase("decode/tile_sweep"),
                             obs::phase("decode/estimate")};
  }();
  return *metrics;
}

// Sampled-union skip rule for one pair. Returns true when the pair can
// be skipped: even an upper confidence bound on the OR zero fraction —
// taken over a strided sample of the larger array — implies an overlap
// estimate at or below min_volume. Every precondition failure (saturated
// arrays, sub-word sizes, m_y <= s) returns false, i.e. keeps the pair
// for the exact sweep, so the rule only ever errs toward measuring.
bool prune_pair(const RsuState& first, const RsuState& second,
                const PairEstimator& point_estimator, const PruneOptions& prune,
                const common::kernels::KernelTable& table,
                std::size_t* words_sampled) {
  const bool first_is_small = first.array_size() <= second.array_size();
  const RsuState& small = first_is_small ? first : second;
  const RsuState& large = first_is_small ? second : first;
  const std::size_t m_x = small.array_size();
  const std::size_t m_y = large.array_size();
  // Conservative keeps: anything the closed-form bound below cannot
  // describe goes to the exact sweep (which also owns the error
  // messages for genuinely incompatible sizes).
  if (m_x % common::BitArray::kWordBits != 0 || m_y % m_x != 0) return false;
  if (m_y <= point_estimator.s() || m_y <= 1) return false;
  const std::size_t zeros_small = small.zero_count();
  const std::size_t zeros_large = large.zero_count();
  if (zeros_small == 0 || zeros_large == 0) return false;  // saturated

  const std::span<const std::uint64_t> sw = small.bits().words();
  const std::span<const std::uint64_t> lw = large.bits().words();
  const std::size_t ones_sampled = table.or_popcount_sampled(
      lw.data(), lw.size(), sw.data(), sw.size(), prune.sample_stride);
  const std::size_t n_sampled_words =
      common::kernels::sampled_word_count(lw.size(), prune.sample_stride);
  *words_sampled = n_sampled_words;
  const double n_bits =
      static_cast<double>(n_sampled_words) * common::BitArray::kWordBits;
  const double p_hat =
      static_cast<double>(n_sampled_words * common::BitArray::kWordBits -
                          ones_sampled) /
      n_bits;

  // One-sided upper bound on the true OR zero fraction v_c. The sample
  // is n_bits of N = m_y bits without replacement, so the binomial
  // standard error carries the finite-population correction
  // (1/n − 1/N); the additive z²/n term keeps the bound positive and
  // honest in the p_hat ≈ 0 regime where the normal approximation's se
  // collapses (a Wilson-style widening). See DESIGN.md for the math.
  const double total_bits = static_cast<double>(m_y);
  const double fpc = 1.0 / n_bits - 1.0 / total_bits;
  const double se = std::sqrt(std::max(0.0, p_hat * (1.0 - p_hat) * fpc));
  const double v_c_ub =
      std::min(1.0, p_hat + prune.z_prune * se +
                        prune.z_prune * prune.z_prune / n_bits);
  if (!(v_c_ub > 0.0)) return false;

  // Eq. 5 with the bounded v_c: monotone increasing in v_c (the
  // denominator is positive), so an upper bound on v_c is an upper
  // bound on the overlap estimate.
  const double v_x =
      static_cast<double>(zeros_small) / static_cast<double>(m_x);
  const double v_y = static_cast<double>(zeros_large) / total_bits;
  const double n_c_ub =
      (std::log(v_c_ub) - std::log(v_x) - std::log(v_y)) /
      point_estimator.log_ratio_denominator(m_y);
  return n_c_ub <= prune.min_volume;
}

// The factored interval terms of one decode (docs/DERIVATIONS.md §8):
// RsuTerms once per RSU and SizePairTerms once per distinct (m_x, m_y),
// so each pair keeps only its n_c-dependent work. A size pair's terms are
// built only when two RSUs have those sizes, so the sizing checks throw
// only for a size pair the fleet has.
class PairTerms {
 public:
  PairTerms(std::span<const RsuState> states,
            const IntervalEstimator& estimator) {
    rsus_.reserve(states.size());
    for (const RsuState& state : states) {
      rsus_.push_back(IntervalEstimator::rsu_terms(state));
    }
    std::vector<std::size_t> all;
    all.reserve(rsus_.size());
    for (const RsuTerms& t : rsus_) all.push_back(t.bits.m);
    std::sort(all.begin(), all.end());
    std::vector<std::size_t> sizes = all;  // distinct, ascending
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    size_index_.reserve(rsus_.size());
    for (const RsuTerms& t : rsus_) {
      size_index_.push_back(static_cast<std::uint32_t>(
          std::lower_bound(sizes.begin(), sizes.end(), t.bits.m) -
          sizes.begin()));
    }
    distinct_ = sizes.size();
    sizes_.resize(distinct_ * distinct_);
    for (std::size_t i = 0; i < distinct_; ++i) {
      for (std::size_t j = i; j < distinct_; ++j) {
        // A size held by one RSU never pairs with itself.
        if (i == j && std::count(all.begin(), all.end(), sizes[i]) < 2) {
          continue;
        }
        sizes_[i * distinct_ + j] =
            estimator.size_pair_terms(sizes[i], sizes[j]);
      }
    }
  }

  // IntervalEstimator::estimate of RSUs a and b, given their OR's zeros.
  EstimateInterval estimate(const IntervalEstimator& estimator,
                            std::uint32_t a, std::uint32_t b,
                            std::size_t zeros_or, PairEstimate* point) const {
    const bool a_is_x = IntervalEstimator::takes_x_role(rsus_[a], rsus_[b]);
    const std::uint32_t x = a_is_x ? a : b;
    const std::uint32_t y = a_is_x ? b : a;
    return estimator.from_terms(
        rsus_[x], rsus_[y],
        sizes_[size_index_[x] * distinct_ + size_index_[y]], zeros_or,
        point);
  }

 private:
  std::vector<RsuTerms> rsus_;
  std::vector<std::uint32_t> size_index_;  // RSU -> index of its size
  std::size_t distinct_ = 0;
  std::vector<SizePairTerms> sizes_;  // [i * distinct_ + j], i <= j
};

}  // namespace

OdMatrix::OdMatrix(std::size_t rsu_count)
    : k_(rsu_count), cells_(rsu_count * (rsu_count - 1) / 2) {
  VLM_REQUIRE(rsu_count >= 2, "an OD matrix needs at least two RSUs");
  measured_pairs_ = cells_.size();
}

OdMatrix OdMatrix::for_survivors(
    std::size_t rsu_count,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> survivors) {
  OdMatrix matrix(rsu_count);
  matrix.measured_pairs_ = survivors.size();
  const std::size_t total_pairs = matrix.cells_.size();
  if (survivors.size() * 4 >= total_pairs) {
    // Dense fallback: at this density the CSR index costs more than the
    // zero-filled cells it would save. Keep the triangle and mark the
    // measured cells.
    matrix.measured_.assign(total_pairs, 0);
    for (const auto& [a, b] : survivors) {
      matrix.measured_[matrix.triangle_index(a, b)] = 1;
    }
    return matrix;
  }
  // CSR over the survivor list (already sorted by (row, col) — the
  // prune stage compacts in pair order). Survivor slot p backs cells_[p],
  // so the exact sweep's pair order and the cell order coincide.
  matrix.cells_.assign(survivors.size(), EstimateInterval{});
  matrix.cells_.shrink_to_fit();
  matrix.row_offsets_.assign(rsu_count + 1, 0);
  matrix.cols_.reserve(survivors.size());
  std::uint32_t row = 0;
  for (const auto& [a, b] : survivors) {
    VLM_REQUIRE(a < b && b < rsu_count && a >= row,
                "survivor list must be sorted upper-triangle pairs");
    while (row < a) {
      matrix.row_offsets_[++row] =
          static_cast<std::uint32_t>(matrix.cols_.size());
    }
    matrix.cols_.push_back(b);
  }
  while (row < rsu_count) {
    matrix.row_offsets_[++row] =
        static_cast<std::uint32_t>(matrix.cols_.size());
  }
  return matrix;
}

std::size_t OdMatrix::sparse_slot(std::size_t lo, std::size_t hi) const {
  const auto begin = cols_.begin() + row_offsets_[lo];
  const auto end = cols_.begin() + row_offsets_[lo + 1];
  const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(hi));
  if (it == end || *it != hi) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - cols_.begin());
}

EstimateInterval& OdMatrix::cell(std::size_t a, std::size_t b) {
  if (sparse()) {
    const std::size_t lo = a < b ? a : b;
    const std::size_t hi = a < b ? b : a;
    const std::size_t slot = sparse_slot(lo, hi);
    VLM_REQUIRE(slot != static_cast<std::size_t>(-1),
                "cannot write a pruned-away OD matrix cell");
    return cells_[slot];
  }
  return const_cast<EstimateInterval&>(
      static_cast<const OdMatrix*>(this)->at(a, b));
}

const EstimateInterval& OdMatrix::at(std::size_t a, std::size_t b) const {
  VLM_REQUIRE(a < k_ && b < k_ && a != b,
              "OD matrix lookup needs two distinct RSU positions");
  const std::size_t lo = a < b ? a : b;
  const std::size_t hi = a < b ? b : a;
  if (sparse()) {
    const std::size_t slot = sparse_slot(lo, hi);
    if (slot == static_cast<std::size_t>(-1)) {
      // Pruned away: the estimate is zero by construction. A shared
      // default-constructed interval (n_c_hat = 0, zero-width bounds) is
      // exactly that reading.
      static const EstimateInterval kPrunedZero{};
      return kPrunedZero;
    }
    return cells_[slot];
  }
  return cells_[triangle_index(lo, hi)];
}

bool OdMatrix::measured(std::size_t a, std::size_t b) const {
  VLM_REQUIRE(a < k_ && b < k_ && a != b,
              "OD matrix lookup needs two distinct RSU positions");
  const std::size_t lo = a < b ? a : b;
  const std::size_t hi = a < b ? b : a;
  if (sparse()) return sparse_slot(lo, hi) != static_cast<std::size_t>(-1);
  if (!measured_.empty()) return measured_[triangle_index(lo, hi)] != 0;
  return true;
}

double OdMatrix::total_estimated_common() const {
  // Sparse storage holds exactly the survivors, the dense layouts hold
  // zeros in unmeasured cells — either way the sum over cells_ is the
  // matrix total.
  double total = 0.0;
  for (const EstimateInterval& e : cells_) total += e.n_c_hat;
  return total;
}

OdMatrix estimate_od_matrix(std::span<const RsuState> states, std::uint32_t s,
                            double z, const DecodeOptions& options,
                            DecodeStats* stats) {
  DecodeMetrics& metrics = decode_metrics();
  obs::Span total_span(metrics.total);
  const std::uint64_t pool_before = common::WorkerPool::instance().dispatch_count();
  const std::size_t k = states.size();
  VLM_REQUIRE(k >= 2, "an OD matrix needs at least two RSUs");
  const IntervalEstimator estimator(s, z);
  const unsigned used =
      options.workers == 0 ? common::default_worker_count() : options.workers;

  // Pruning stays opt-in: it changes skipped pairs' cells.
  const bool pruned = options.mode == DecodeMode::kPruned;

  // Flatten the upper triangle into an index list so the pair loop can be
  // sliced across workers. Pair p covers exactly one cell, and every
  // worker writes only its own pairs' cells (plus its own slot of the
  // per-pair word counters), so the result is deterministic: identical
  // for any worker count and any scheduling.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(k * (k - 1) / 2);
  for (std::uint32_t a = 0; a < k; ++a) {
    for (std::uint32_t b = a + 1; b < k; ++b) pairs.emplace_back(a, b);
  }

  // Pruned path, stage 1: per-pair skip decisions over a strided sample
  // of each pair's OR zero fraction. Decisions are computed
  // independently per pair into keep[p] and compacted serially, so the
  // survivor list — and therefore the whole decode — is identical for
  // every worker count. Compaction preserves (a, b) order, which keeps
  // the batch sweep's anchor groups contiguous.
  double prune_seconds = 0.0;
  std::size_t prune_words = 0;
  std::size_t pairs_pruned = 0;
  if (pruned) {
    obs::Span prune_span(metrics.prune);
    const PairEstimator point_estimator(s);
    const common::kernels::KernelTable& table = common::kernels::active();
    std::vector<std::uint8_t> keep(pairs.size(), 0);
    std::vector<std::size_t> sampled(pairs.size(), 0);
    common::parallel_for(pairs.size(), used, [&](std::size_t p) {
      const auto [a, b] = pairs[p];
      keep[p] = prune_pair(states[a], states[b], point_estimator,
                           options.prune, table, &sampled[p])
                    ? 0
                    : 1;
    });
    std::size_t kept = 0;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      prune_words += sampled[p];
      if (keep[p] != 0) pairs[kept++] = pairs[p];
    }
    pairs_pruned = pairs.size() - kept;
    pairs.resize(kept);
    prune_seconds = prune_span.finish();
  }

  OdMatrix matrix = pruned ? OdMatrix::for_survivors(k, pairs) : OdMatrix(k);

  std::vector<std::size_t> words_per_pair(pairs.size(), 0);
  std::vector<std::uint8_t> pair_saturated(pairs.size(), 0);
  // Measure the pair list's zero counts with the batch sweep (tiled for
  // r <= 2, fold-plane for r >= 4), then map them through the Eq. 5 /
  // interval math of IntervalEstimator::estimate. Both stages are
  // deterministic, so so is the composition — and because the batch
  // sweep's integer partials are exact for any pair subset, a survivor's
  // counts (and therefore its estimate) are bit-identical to the
  // unpruned decode.
  std::vector<const common::BitArray*> arrays;
  arrays.reserve(k);
  for (const RsuState& state : states) arrays.push_back(&state.bits());
  common::BatchDecodeOptions batch_options;
  batch_options.tile_words = options.tile_words;
  batch_options.workers = used;
  common::BatchDecodeStats batch_stats;
  std::vector<common::JointZeroCounts> counts;
  double sweep_seconds = 0.0;
  {
    obs::Span sweep_span(metrics.tile_sweep);
    counts = common::joint_zero_counts_batch(arrays, pairs, batch_options,
                                             &batch_stats);
    sweep_seconds = sweep_span.finish();
  }
  obs::Span estimate_span(metrics.estimate);
  const PairTerms pair_terms(states, estimator);
  common::parallel_for(pairs.size(), used, [&](std::size_t p) {
    const auto [a, b] = pairs[p];
    PairEstimate point;
    matrix.cell(a, b) =
        pair_terms.estimate(estimator, a, b, counts[p].zeros_or, &point);
    words_per_pair[p] = counts[p].words_scanned;
    pair_saturated[p] = point.saturated ? 1 : 0;
  });
  const double estimate_seconds = estimate_span.finish();

  // Registry and struct are fed from the same values: DecodeStats is the
  // per-run view of what this call just added to the global counters.
  const std::size_t words_scanned =
      prune_words + batch_stats.fold_anchor_words +
      std::accumulate(words_per_pair.begin(), words_per_pair.end(),
                      std::size_t{0});
  const std::size_t pairs_saturated = static_cast<std::size_t>(
      std::accumulate(pair_saturated.begin(), pair_saturated.end(),
                      std::size_t{0}));
  metrics.runs.inc();
  metrics.pairs.add(pairs.size());
  metrics.words_scanned.add(words_scanned);
  metrics.pairs_pruned.add(pairs_pruned);
  metrics.pairs_survived.add(pruned ? pairs.size() : 0);
  metrics.pairs_saturated.add(pairs_saturated);
  metrics.workers.set(static_cast<double>(used));
  metrics.tile_words.set(static_cast<double>(batch_stats.tile_words));
  metrics.dram_passes_saved.set(
      static_cast<double>(batch_stats.dram_passes_saved));
  metrics.kernel_isa.set(common::kernels::active_name());
  const char* path = pruned ? "pruned" : "blocked";
  metrics.path.set(path);
  const double wall_seconds = total_span.finish();

  if (stats != nullptr) {
    stats->pairs_decoded = pairs.size();
    stats->pairs_saturated = pairs_saturated;
    stats->words_scanned = words_scanned;
    stats->workers = used;
    stats->kernel_isa = common::kernels::active_name();
    stats->path = path;
    stats->tile_words = batch_stats.tile_words;
    stats->dram_passes_saved = batch_stats.dram_passes_saved;
    stats->pairs_pruned = pairs_pruned;
    stats->pairs_survived = pruned ? pairs.size() : 0;
    stats->sample_stride = pruned ? options.prune.sample_stride : 0;
    stats->prune_seconds = prune_seconds;
    stats->sweep_seconds = sweep_seconds;
    stats->estimate_seconds = estimate_seconds;
    stats->storage = matrix.sparse() ? "sparse" : "dense";
    const common::WorkerPool& pool = common::WorkerPool::instance();
    stats->pool_lifetime_dispatches = pool.dispatch_count();
    stats->pool_dispatches = stats->pool_lifetime_dispatches - pool_before;
    stats->pool_threads = pool.thread_count();
    stats->wall_seconds = wall_seconds;
  }
  return matrix;
}

OdMatrix estimate_od_matrix(std::span<const RsuState> states, std::uint32_t s,
                            double z, unsigned workers, DecodeStats* stats) {
  DecodeOptions options;
  options.workers = workers;
  return estimate_od_matrix(states, s, z, options, stats);
}

}  // namespace vlm::core
