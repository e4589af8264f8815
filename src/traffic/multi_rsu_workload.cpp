#include "traffic/multi_rsu_workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/hashing.h"
#include "common/kernels/kernels.h"
#include "common/parallel.h"
#include "common/require.h"
#include "common/uninit.h"

namespace vlm::traffic {

namespace {
// splitmix64's stream increment — the gamma splitmix64_next adds before
// mixing. The bulk path reconstructs stream positions as base + k*gamma
// instead of stepping a mutable state, which is what lets whole blocks
// of draws go through the batch kernels.
constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;

// Pre-generated visit draws per vehicle: span_count accepted entries
// need at least span_count draws, plus headroom for Zipf rejections
// (duplicate ranks). Half the span again plus two covers the vast
// majority of vehicles even under heavy skew; the rare overflow
// continues on the exact scalar path, consuming the same stream.
constexpr std::size_t draw_slots_for(std::uint64_t span_count) {
  return static_cast<std::size_t>(span_count + 2 + span_count / 2);
}

// Per-thread scratch for the bulk generator, reused across slices so
// steady-state ingest does not reallocate. UninitVector: every slot is
// written by a kernel or the fill loop before it is read.
struct BulkScratch {
  common::UninitVector<std::uint64_t> inputs;  // encode_batch key blocks
  common::UninitVector<std::uint64_t> bases;   // mix64(seed ^ v)
  common::UninitVector<std::uint64_t> draws;      // span-count draws
  common::UninitVector<std::uint32_t> run_slots;  // draw slots per vehicle
  common::UninitVector<std::uint32_t> ranks;      // zipf_rank_runs output
};
}  // namespace

MultiRsuWorkload::MultiRsuWorkload(const MultiRsuConfig& config)
    : config_(config) {
  VLM_REQUIRE(config.rsu_count >= 2, "need at least two RSUs");
  VLM_REQUIRE(config.vehicle_count > 0, "need at least one vehicle");
  VLM_REQUIRE(config.min_visits >= 1 &&
                  config.min_visits <= config.max_visits &&
                  config.max_visits <= config.rsu_count,
              "visit range must satisfy 1 <= min <= max <= rsu_count");
  VLM_REQUIRE(config.zipf_exponent >= 0.0, "zipf exponent must be >= 0");

  popularity_cdf_.resize(config.rsu_count);
  double total = 0.0;
  for (std::size_t r = 0; r < config.rsu_count; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), config.zipf_exponent);
    popularity_cdf_[r] = total;
  }
  for (double& c : popularity_cdf_) c /= total;

  // 2^53-scaled thresholds: cdf * 2^53 is exact (power-of-two scale), so
  // floor(...) + 1 is exactly the first draw value strictly above cdf[r].
  cdf_thresholds_.resize(config.rsu_count);
  for (std::size_t r = 0; r < config.rsu_count; ++r) {
    cdf_thresholds_[r] =
        static_cast<std::uint64_t>(popularity_cdf_[r] * 0x1p53) + 1;
  }

  // Guide table: 8 buckets per rank keeps the per-draw scan at ~1 step
  // even under heavy skew, while staying a few KiB for city-scale K.
  // Bucket j covers draws d with (d * buckets) >> 53 == j, whose smallest
  // member is ceil(j * 2^53 / buckets); the guide entry is that draw's
  // selected rank, a valid scan start for the whole bucket.
  const std::uint64_t buckets = config.rsu_count * 8;
  zipf_guide_.resize(buckets + 1);
  std::uint32_t rank = 0;
  for (std::uint64_t j = 0; j <= buckets; ++j) {
    const std::uint64_t smallest_draw = static_cast<std::uint64_t>(
        ((static_cast<unsigned __int128>(j) << 53) + buckets - 1) / buckets);
    while (rank < config.rsu_count && cdf_thresholds_[rank] <= smallest_draw) {
      ++rank;
    }
    zipf_guide_[j] = rank;
  }
}

void MultiRsuWorkload::sample_into(std::uint64_t vehicle_index,
                                   common::VisitedMask& visited,
                                   std::vector<std::uint32_t>& out) const {
  // Counter-based splitmix64 stream, seeded per vehicle: no generator
  // state to expand (a Xoshiro construction costs four splitmix rounds
  // before the first draw) and each draw is one add plus two multiplies.
  // Plenty of stream quality for a synthetic workload, and the same
  // splittability: any worker generates any vehicle independently.
  std::uint64_t stream = common::mix64(config_.seed ^ vehicle_index);
  // Bounded draw by 128-bit multiply; the bias (< range / 2^64) is far
  // below anything a 20k..1M-vehicle workload can resolve.
  const std::uint64_t visit_range =
      config_.max_visits - config_.min_visits + 1;
  const std::uint64_t span_count =
      config_.min_visits +
      static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(common::splitmix64_next(stream)) *
           visit_range) >>
          64);
  const std::size_t first = out.size();
  const std::uint64_t* thresholds = cdf_thresholds_.data();
  const std::uint64_t buckets = zipf_guide_.size() - 1;
  // Exactly span_count entries get accepted, so size once and fill
  // through a raw cursor — no per-accept growth/size bookkeeping. Dedup
  // by scanning the few entries already accepted for this vehicle: at
  // itinerary sizes (a handful of visits) that beats the epoch-mask
  // lookup, and for the rare wide-itinerary config it falls back to the
  // caller's mask. Either way the accept/reject sequence — and therefore
  // every draw — is unchanged.
  out.resize(first + span_count);
  std::uint32_t* cursor = out.data() + first;
  std::uint32_t* const cursor_end = cursor + span_count;
  const bool scan_dedup = span_count <= 16;
  if (!scan_dedup) visited.begin_pass();
  while (cursor != cursor_end) {
    // Rank selection is lower_bound(popularity_cdf_, draw * 2^-53) — the
    // number of CDF entries < the uniform — done entirely on the
    // 2^53-scaled integer thresholds. The guide table jumps straight to
    // the answer's neighborhood, so the scan below runs ~one iteration
    // instead of a branch-mispredicting binary search. Same rank either
    // way.
    const std::uint64_t draw = common::splitmix64_next(stream) >> 11;
    std::uint32_t r = zipf_guide_[static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(draw) * buckets) >> 53)];
    while (thresholds[r] <= draw) ++r;
    if (scan_dedup) {
      bool seen = false;
      for (const std::uint32_t* it = out.data() + first; it != cursor; ++it) {
        seen |= (*it == r);
      }
      if (!seen) *cursor++ = r;
    } else if (visited.insert(r)) {
      *cursor++ = r;
    }
  }
  // Itineraries are at most max_visits (<= rsu_count) entries; insertion
  // sort beats the std::sort dispatch at these sizes.
  for (std::size_t i = first + 1; i < out.size(); ++i) {
    const std::uint32_t value = out[i];
    std::size_t j = i;
    for (; j > first && out[j - 1] > value; --j) out[j] = out[j - 1];
    out[j] = value;
  }
}

void MultiRsuWorkload::itinerary(std::uint64_t vehicle_index,
                                 common::VisitedMask& visited,
                                 std::vector<std::uint32_t>& out) const {
  VLM_REQUIRE(vehicle_index < config_.vehicle_count,
              "vehicle index out of range");
  VLM_REQUIRE(visited.universe_size() == config_.rsu_count,
              "visited mask must be sized to the RSU count");
  out.clear();
  sample_into(vehicle_index, visited, out);
}

void MultiRsuWorkload::itineraries(std::uint64_t begin, std::uint64_t end,
                                   common::VisitedMask& visited,
                                   common::UninitVector<std::uint32_t>& positions,
                                   std::vector<std::uint64_t>& offsets,
                                   std::vector<std::uint64_t>& counts) const {
  VLM_REQUIRE(begin <= end && end <= config_.vehicle_count,
              "vehicle range out of bounds");
  VLM_REQUIRE(visited.universe_size() == config_.rsu_count,
              "visited mask must be sized to the RSU count");
  const std::size_t n = static_cast<std::size_t>(end - begin);
  // `positions` is sized exactly (one resize, after the spans are known
  // below) rather than cleared here: clear + resize would value-init the
  // whole block every call, while resize alone only touches the growth
  // delta — and the emission loop overwrites every slot in range anyway.
  offsets.clear();
  offsets.reserve(n + 1);
  offsets.push_back(0);
  counts.assign(config_.rsu_count, 0);
  if (n == 0) {
    positions.clear();
    return;
  }

  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "encode_batch writes size_t lanes reused as uint64_t");
  const common::kernels::KernelTable& kt = common::kernels::active();
  static constexpr std::uint64_t kZeroSalt[1] = {0};
  thread_local BulkScratch scratch;

  // Stream bases: mix64(seed ^ v) for the whole block, through the
  // batch-encode kernel (salt 0, full fold mask reduce it to a plain
  // lane-parallel mix64).
  scratch.inputs.resize(n);
  scratch.bases.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.inputs[i] = config_.seed ^ (begin + i);
  }
  kt.encode_batch(scratch.inputs.data(), n, 0, kZeroSalt, 1, ~std::uint64_t{0},
                  reinterpret_cast<std::size_t*>(scratch.bases.data()));

  // Span-count draws: the first splitmix64_next of every stream,
  // mix64(base + gamma), again one kernel call for the block.
  scratch.draws.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.inputs[i] = scratch.bases[i] + kGamma;
  }
  kt.encode_batch(scratch.inputs.data(), n, 0, kZeroSalt, 1, ~std::uint64_t{0},
                  reinterpret_cast<std::size_t*>(scratch.draws.data()));

  // Visit-draw stream runs: vehicle i's draws start at base + 2*gamma
  // (the span draw consumed one step) and advance by gamma for
  // draw_slots_for(span) steps, covering the expected rejection runs
  // too. The run description (start, slot count) per vehicle is all the
  // rank kernel needs — it expands each run into a cache-resident chunk
  // internally, so the flat block-wide state array (and its DRAM round
  // trip) is gone.
  const std::uint64_t visit_range =
      config_.max_visits - config_.min_visits + 1;
  scratch.run_slots.resize(n);
  std::size_t total_slots = 0;
  std::size_t total_span = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t span_count =
        config_.min_visits +
        static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(scratch.draws[i]) * visit_range) >>
            64);
    scratch.draws[i] = span_count;  // draw consumed; slot reused
    scratch.inputs[i] = scratch.bases[i] + 2 * kGamma;
    const std::size_t slots = draw_slots_for(span_count);
    scratch.run_slots[i] = static_cast<std::uint32_t>(slots);
    total_span += span_count;
    total_slots += slots;
  }
  // Spans are known for the whole block now, so size the output once —
  // the per-vehicle loop below just advances a raw cursor instead of
  // paying a resize call per vehicle.
  positions.resize(total_span);

  // Rank selection for every pre-generated draw in one kernel call —
  // the vectorized form of sample_into's guide-table walk, fused with
  // the run expansion above.
  scratch.ranks.resize(total_slots);
  const std::uint64_t* thresholds = cdf_thresholds_.data();
  const std::uint64_t buckets = zipf_guide_.size() - 1;
  kt.zipf_rank_runs(scratch.inputs.data(), scratch.run_slots.data(), n, kGamma,
                    thresholds, zipf_guide_.data(), buckets,
                    scratch.ranks.data());

  // Accept/reject, dedup, and sort — scalar, but over pre-computed
  // ranks. The sequence below consumes draws in exactly sample_into's
  // order (the pre-generated ranks ARE its draws, in order), so accepted
  // itineraries are bit-identical; the per-RSU histogram is accumulated
  // on the same pass instead of by a later counting sweep.
  // Dedup strategy: accepting a rank is "not seen before this vehicle",
  // which any membership structure answers identically. For city-scale
  // K (≤ 64) the accepted set fits one word of seen-bits, which makes
  // the consume loop branchless (no stores at all — just mask updates)
  // and the sorted emission a countr_zero walk over the final mask; the
  // dedup scan and the insertion sort both disappear without changing
  // which draws are consumed or accepted. Larger deployments keep
  // sample_into's scan/epoch-mask pair.
  const bool word_dedup = config_.rsu_count <= 64;
  std::size_t slot_cursor = 0;
  std::size_t write_pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto span_count = static_cast<std::uint64_t>(scratch.draws[i]);
    const std::size_t slots = draw_slots_for(span_count);
    const std::uint32_t* pre = scratch.ranks.data() + slot_cursor;
    slot_cursor += slots;
    const std::size_t first = write_pos;
    write_pos += span_count;
    if (word_dedup) {
      std::uint64_t seen_bits = 0;
      std::uint64_t accepted = 0;
      std::size_t used = 0;
      while (accepted < span_count && used < slots) {
        const std::uint64_t bit = std::uint64_t{1} << pre[used++];
        accepted += static_cast<std::uint64_t>((seen_bits & bit) == 0);
        seen_bits |= bit;
      }
      if (accepted < span_count) {
        // Rejection run outlasted the pre-generated draws: continue on
        // the scalar path from the exact stream position after the last
        // consumed draw (base + (1 + used)*gamma — the span draw plus
        // `used` visit draws), so the realization is unchanged.
        std::uint64_t stream = scratch.bases[i] + (1 + used) * kGamma;
        while (accepted < span_count) {
          const std::uint64_t draw = common::splitmix64_next(stream) >> 11;
          std::uint32_t r = zipf_guide_[static_cast<std::uint64_t>(
              (static_cast<unsigned __int128>(draw) * buckets) >> 53)];
          while (thresholds[r] <= draw) ++r;
          const std::uint64_t bit = std::uint64_t{1} << r;
          accepted += static_cast<std::uint64_t>((seen_bits & bit) == 0);
          seen_bits |= bit;
        }
      }
      // Every distinct rank consumed was accepted, so the final mask IS
      // the itinerary; bits enumerate in ascending rank order for free.
      std::uint32_t* out_it = positions.data() + first;
      while (seen_bits) {
        const auto r =
            static_cast<std::uint32_t>(std::countr_zero(seen_bits));
        seen_bits &= seen_bits - 1;
        ++counts[r];
        *out_it++ = r;
      }
      offsets.push_back(write_pos);
      continue;
    }
    std::uint32_t* cursor = positions.data() + first;
    std::uint32_t* const cursor_end = cursor + span_count;
    const bool scan_dedup = span_count <= 16;
    if (!scan_dedup) visited.begin_pass();
    std::size_t used = 0;
    while (cursor != cursor_end && used < slots) {
      const std::uint32_t r = pre[used++];
      if (scan_dedup) {
        bool seen = false;
        for (const std::uint32_t* it = positions.data() + first; it != cursor;
             ++it) {
          seen |= (*it == r);
        }
        if (!seen) *cursor++ = r;
      } else if (visited.insert(r)) {
        *cursor++ = r;
      }
    }
    if (cursor != cursor_end) {
      // Same continuation as above, for the wide-deployment paths.
      std::uint64_t stream = scratch.bases[i] + (1 + used) * kGamma;
      while (cursor != cursor_end) {
        const std::uint64_t draw = common::splitmix64_next(stream) >> 11;
        std::uint32_t r = zipf_guide_[static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(draw) * buckets) >> 53)];
        while (thresholds[r] <= draw) ++r;
        if (scan_dedup) {
          bool seen = false;
          for (const std::uint32_t* it = positions.data() + first;
               it != cursor; ++it) {
            seen |= (*it == r);
          }
          if (!seen) *cursor++ = r;
        } else if (visited.insert(r)) {
          *cursor++ = r;
        }
      }
    }
    for (const std::uint32_t* it = positions.data() + first; it != cursor_end;
         ++it) {
      ++counts[*it];
    }
    // Same insertion sort as sample_into — itineraries stay ascending.
    for (std::size_t j = first + 1; j < write_pos; ++j) {
      const std::uint32_t value = positions[j];
      std::size_t p = j;
      for (; p > first && positions[p - 1] > value; --p) {
        positions[p] = positions[p - 1];
      }
      positions[p] = value;
    }
    offsets.push_back(write_pos);
  }
}

void MultiRsuWorkload::for_each_vehicle(
    const std::function<void(std::uint64_t, std::span<const std::uint32_t>)>&
        visit) {
  const std::size_t k = config_.rsu_count;
  const std::uint64_t n = config_.vehicle_count;
  const std::size_t triangle = k * (k - 1) / 2;
  // Strict upper triangle, row-major (pair_volume's layout): pair
  // (lo, hi) lives at row_base[lo] + hi. row_base[0] wraps below zero,
  // which the unsigned add with hi >= 1 undoes.
  std::vector<std::size_t> row_base(k);
  for (std::size_t lo = 0; lo < k; ++lo) {
    row_base[lo] = lo * k - lo * (lo + 1) / 2 - lo - 1;
  }

  // One slot per task of a round: the block's CSR, kept until the
  // calling thread has visited it. Slot s only ever runs block
  // (round * width + s) and counts into shard s, so a shard is written by
  // one task at a time and the merged sums do not depend on which thread
  // ran which block. Slots sit on their own cache lines (itineraries()
  // grows `offsets` once per vehicle), and the shards are strided apart
  // by at least a line for the same reason.
  struct alignas(64) Slot {
    explicit Slot(std::size_t rsu_count) : visited(rsu_count) {}
    common::VisitedMask visited;
    common::UninitVector<std::uint32_t> positions;
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint64_t> counts;
  };
  const std::uint64_t blocks =
      (n + kTruthBlockVehicles - 1) / kTruthBlockVehicles;
  const auto width = static_cast<unsigned>(std::min<std::uint64_t>(
      common::WorkerPool::instance().thread_count() + 1, blocks));
  std::vector<Slot> slots;
  slots.reserve(width);
  for (unsigned s = 0; s < width; ++s) slots.emplace_back(k);
  const std::size_t stride = (triangle + 31) / 16 * 16;
  std::vector<std::uint32_t> shards(width * stride, 0);

  // The truth accumulates locally and replaces the members only after a
  // complete pass, so a throwing `visit` leaves the previous truth.
  std::vector<std::uint64_t> volumes(k, 0);
  std::vector<std::uint64_t> pairs(triangle, 0);
  const auto merge_shards = [&] {
    for (unsigned s = 0; s < width; ++s) {
      const std::uint32_t* shard = shards.data() + s * stride;
      for (std::size_t i = 0; i < triangle; ++i) pairs[i] += shard[i];
    }
    std::fill(shards.begin(), shards.end(), 0);
  };
  // A shard count grows by at most one per vehicle of its slot, so
  // merging this often keeps the uint32 shards exact at any fleet size.
  constexpr std::uint64_t kRoundsPerMerge =
      std::numeric_limits<std::uint32_t>::max() / kTruthBlockVehicles;

  std::uint64_t rounds_unmerged = 0;
  for (std::uint64_t first = 0; first < blocks; first += width) {
    const auto used =
        static_cast<unsigned>(std::min<std::uint64_t>(width, blocks - first));
    common::WorkerPool::instance().run(used, [&](unsigned s) {
      Slot& slot = slots[s];
      const std::uint64_t begin = (first + s) * kTruthBlockVehicles;
      const std::uint64_t end = std::min(n, begin + kTruthBlockVehicles);
      itineraries(begin, end, slot.visited, slot.positions, slot.offsets,
                  slot.counts);
      // Itineraries are sorted, so every (it, jt) below is (lo, hi).
      const std::uint32_t* positions = slot.positions.data();
      std::uint32_t* shard = shards.data() + s * stride;
      for (std::size_t i = 0; i + 1 < slot.offsets.size(); ++i) {
        const std::uint32_t* const stop = positions + slot.offsets[i + 1];
        for (const std::uint32_t* it = positions + slot.offsets[i]; it != stop;
             ++it) {
          const std::size_t base = row_base[*it];
          for (const std::uint32_t* jt = it + 1; jt != stop; ++jt) {
            ++shard[base + *jt];
          }
        }
      }
    });
    for (unsigned s = 0; s < used; ++s) {
      const Slot& slot = slots[s];
      for (std::size_t r = 0; r < k; ++r) volumes[r] += slot.counts[r];
      const std::uint64_t begin = (first + s) * kTruthBlockVehicles;
      for (std::size_t i = 0; i + 1 < slot.offsets.size(); ++i) {
        visit(begin + i,
              std::span<const std::uint32_t>(
                  slot.positions.data() + slot.offsets[i],
                  slot.offsets[i + 1] - slot.offsets[i]));
      }
    }
    if (++rounds_unmerged == kRoundsPerMerge) {
      merge_shards();
      rounds_unmerged = 0;
    }
  }
  merge_shards();
  volumes_ = std::move(volumes);
  pair_counts_ = std::move(pairs);
}

std::uint64_t MultiRsuWorkload::pair_volume(std::uint32_t a,
                                            std::uint32_t b) const {
  VLM_REQUIRE(a < config_.rsu_count && b < config_.rsu_count && a != b,
              "pair volume needs two distinct registered RSUs");
  VLM_REQUIRE(!volumes_.empty(),
              "no ground truth yet: run for_each_vehicle first");
  const std::size_t lo = std::min(a, b);
  const std::size_t hi = std::max(a, b);
  const std::size_t k = config_.rsu_count;
  return pair_counts_[lo * k - lo * (lo + 1) / 2 + (hi - lo - 1)];
}

}  // namespace vlm::traffic
