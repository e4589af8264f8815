// Decode-throughput bench: the seed's serial materializing decode vs the
// batch decode, on a 64-RSU workload at m = 2^22 and on a Zipf-sized
// fleet.
//
//   $ bench_decode_throughput                  # full-size run, JSON out
//   $ bench_decode_throughput --m-exp 14 --rsus 6 --repeat 1   # smoke
//   $ bench_decode_throughput --sweep --m-exp 16 --repeat 1    # CI sweep
//
// Emits one JSON object so CI and scripts can track the speedup:
//   - "naive_serial_seconds": per-pair unfold-copy + OR materialization +
//     three separate popcount sweeps (the decode path before the fused
//     kernel existed), run serially over all K(K-1)/2 pairs — the
//     reference every other decode is checked against;
//   - "blocked_serial_seconds" / "blocked_parallel_seconds": the
//     cache-blocked batch decode — asserted bit-identical to the naive
//     result cell by cell ("blocked_bit_identical_to_naive") and across
//     worker counts ("parallel_bit_identical_to_serial");
//   - with --sweep, a "sweep" array covering K ∈ {8, 24, 64} × several
//     tile sizes, each entry carrying its own identity flag, summarized
//     in "sweep_all_identical";
//   - a "pruned" section on a ring-topology SPARSE fleet (adjacent RSUs
//     share one road of common vehicles, everyone else shares none —
//     the city-scale shape where most of the K(K-1)/2 pairs carry no
//     traffic): the sampled-union pruned decode vs the exact blocked
//     sweep, with two accuracy gates — "pruned_no_dropped_pairs" (no
//     skipped pair's exact estimate exceeds the volume floor) and
//     "pruned_survivors_bit_identical" (every surviving cell equals the
//     blocked cell bit for bit);
//   - a "zipf" section on a fleet sized like the e2ebench zipf-city
//     workload (MultiRsuWorkload popularity, VLM sizing at f̄ = 8, so
//     array sizes spread over two orders of magnitude and a third or
//     more of the pairs take the fold-plane sweep): naive vs batch
//     decode, gated by
//     "zipf_bit_identical_to_naive" (serial and parallel);
//   - "host": core count, kernel ISA, build type and compiler.
// Exit status is 0 only if every identity/accuracy assertion held (and,
// with --min-speedup, the pruned wall-time speedup met the bar).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/bit_array.h"
#include "common/cli.h"
#include "common/hashing.h"
#include "common/kernels/kernels.h"
#include "common/parallel.h"
#include "core/encoder.h"
#include "core/interval.h"
#include "core/od_matrix.h"
#include "core/rsu_state.h"
#include "core/sizing.h"
#include "host_json.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "traffic/multi_rsu_workload.h"

namespace {

using namespace vlm;

// The seed's zero counting: a full popcount sweep over the words (the
// array did not maintain its count incrementally back then).
std::size_t sweep_zeros(const common::BitArray& bits) {
  std::size_t ones = 0;
  for (std::uint64_t w : bits.words()) {
    ones += static_cast<std::size_t>(std::popcount(w));
  }
  return bits.size() - ones;
}

// The seed decode path for one pair: materialize the combined array,
// then three independent zero-count sweeps, then Eq. 5 + interval.
core::EstimateInterval naive_pair(const core::IntervalEstimator& interval,
                                  const core::PairEstimator& estimator,
                                  const core::RsuState& x,
                                  const core::RsuState& y) {
  // The decode's operand roles (IntervalEstimator::takes_x_role).
  const bool x_first = core::IntervalEstimator::takes_x_role(
      core::IntervalEstimator::rsu_terms(x),
      core::IntervalEstimator::rsu_terms(y));
  const core::RsuState& small = x_first ? x : y;
  const core::RsuState& large = x_first ? y : x;
  const std::size_t m_x = small.array_size();
  const std::size_t m_y = large.array_size();
  const common::BitArray combined =
      m_x == m_y ? small.bits() | large.bits()
                 : small.bits().unfolded(m_y) | large.bits();

  const core::PairEstimate point = core::eq5_estimate(
      core::zero_fraction(sweep_zeros(small.bits()), m_x),
      core::zero_fraction(sweep_zeros(large.bits()), m_y),
      sweep_zeros(combined), estimator.log_ratio_denominator(m_y));
  core::EstimateInterval out =
      interval.annotate(point, static_cast<double>(small.counter()),
                        static_cast<double>(large.counter()));
  out.degraded = out.degraded || point.saturated;
  return out;
}

// The naive decode of every pair, in (a, b) order with a < b.
std::vector<core::EstimateInterval> naive_decode(
    std::span<const core::RsuState> states,
    const core::IntervalEstimator& interval,
    const core::PairEstimator& estimator) {
  std::vector<core::EstimateInterval> cells;
  cells.reserve(states.size() * (states.size() - 1) / 2);
  for (std::size_t a = 0; a < states.size(); ++a) {
    for (std::size_t b = a + 1; b < states.size(); ++b) {
      cells.push_back(naive_pair(interval, estimator, states[a], states[b]));
    }
  }
  return cells;
}

bool cells_equal(const core::EstimateInterval& a,
                 const core::EstimateInterval& b) {
  return a.n_c_hat == b.n_c_hat && a.stddev == b.stddev &&
         a.lower == b.lower && a.upper == b.upper &&
         a.floor_stddev == b.floor_stddev && a.degraded == b.degraded;
}

bool cells_identical(const core::OdMatrix& a, const core::OdMatrix& b) {
  for (std::size_t i = 0; i < a.rsu_count(); ++i) {
    for (std::size_t j = i + 1; j < a.rsu_count(); ++j) {
      if (!cells_equal(a.at(i, j), b.at(i, j))) return false;
    }
  }
  return true;
}

// `reference` holds the naive cells of `matrix`'s pairs in (a, b) order.
bool matches_naive(std::span<const core::EstimateInterval> reference,
                   const core::OdMatrix& matrix) {
  std::size_t p = 0;
  for (std::size_t a = 0; a < matrix.rsu_count(); ++a) {
    for (std::size_t b = a + 1; b < matrix.rsu_count(); ++b, ++p) {
      if (!cells_equal(reference[p], matrix.at(a, b))) return false;
    }
  }
  return p == reference.size();
}

// A fleet sized like the e2ebench zipf-city workload: MultiRsuWorkload
// itineraries (Zipf popularity, 2..6 visits per trip), each RSU's array
// sized by the VLM rule at f̄ = 8 from its true volume, and every visit
// recorded through the vehicle-side encoder.
std::vector<core::RsuState> zipf_fleet(std::size_t rsus,
                                       std::uint64_t vehicles) {
  traffic::MultiRsuConfig config;
  config.rsu_count = rsus;
  config.vehicle_count = vehicles;
  config.max_visits = static_cast<std::uint32_t>(
      std::min<std::size_t>(config.max_visits, rsus));
  config.min_visits = std::min(config.min_visits, config.max_visits);
  traffic::MultiRsuWorkload workload(config);
  workload.for_each_vehicle(
      [](std::uint64_t, std::span<const std::uint32_t>) {});
  const core::VlmSizingPolicy sizing(8.0);
  std::vector<core::RsuState> states;
  std::vector<std::size_t> sizes;
  for (const std::uint64_t volume : workload.node_volumes()) {
    sizes.push_back(sizing.array_size_for(static_cast<double>(volume)));
    states.emplace_back(sizes.back());
  }
  const core::Encoder encoder(core::EncoderConfig{});
  workload.for_each_vehicle(
      [&](std::uint64_t v, std::span<const std::uint32_t> visits) {
        core::VehicleIdentity vehicle;
        vehicle.id = core::VehicleId{common::mix64(v + 1)};
        vehicle.private_key = common::mix64(~v);
        for (const std::uint32_t r : visits) {
          states[r].record(
              encoder.bit_index(vehicle, core::RsuId{r + 1}, sizes[r]));
        }
      });
  return states;
}

core::OdMatrix decode(std::span<const core::RsuState> states,
                      unsigned workers, std::size_t tile_words,
                      core::DecodeStats* stats) {
  core::DecodeOptions options;
  options.workers = workers;
  options.tile_words = tile_words;
  return core::estimate_od_matrix(states, 2, 1.96, options, stats);
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser parser(
      "bench_decode_throughput",
      "cache-blocked K×K decode vs the seed serial path");
  parser.add_int("rsus", 64, "deployment size K");
  parser.add_int("m-exp", 22, "log2 of every RSU's array size");
  parser.add_int("workers", 0, "parallel decode workers (0 = one per core)");
  parser.add_int("repeat", 3, "timing repetitions (best-of)");
  parser.add_int("tile-words", 0, "blocked-path tile size in words (0 = auto)");
  parser.add_flag("sweep", false,
                  "also sweep K in {8,24,64} x tile sizes and assert "
                  "blocked == naive for every combination");
  parser.add_int("prune-rsus", 0,
                 "pruned-section deployment size (0 = same as --rsus)");
  parser.add_int("prune-stride", 16,
                 "pruned-section sample stride (every Nth 8-word block)");
  parser.add_double("prune-z", 4.0,
                    "pruned-section confidence multiplier on the sampled "
                    "union");
  parser.add_double("min-volume", -1.0,
                    "pruned-section volume floor (-1 = auto: "
                    "15*sqrt(m*stride), above the sampling noise of a "
                    "zero-overlap pair)");
  parser.add_double("min-speedup", 0.0,
                    "fail unless blocked/pruned wall ratio >= this "
                    "(0 = report only)");
  parser.add_int("zipf-rsus", 256,
                 "Zipf-sized section deployment size (0 = skip)");
  parser.add_int("zipf-vehicles", 500000,
                 "Zipf-sized section vehicles (zipf-city's per-RSU "
                 "density at the default size)");
  if (!parser.parse(argc, argv)) return 0;

  const auto k = static_cast<std::size_t>(parser.get_int("rsus"));
  const std::size_t m = std::size_t{1}
                        << static_cast<unsigned>(parser.get_int("m-exp"));
  const int repeat = std::max(1, static_cast<int>(parser.get_int("repeat")));
  const auto workers =
      static_cast<unsigned>(std::max<std::int64_t>(0, parser.get_int("workers")));
  const auto tile_words = static_cast<std::size_t>(
      std::max<std::int64_t>(0, parser.get_int("tile-words")));
  const bool sweep = parser.get_flag("sweep");

  // Deterministic synthetic states at load factor ~8 (the paper's f̄).
  // The sweep reuses prefixes of the same fleet, so build the largest K
  // needed once.
  const std::size_t max_k = sweep ? std::max<std::size_t>(k, 64) : k;
  std::vector<core::RsuState> states;
  states.reserve(max_k);
  std::uint64_t h = 0xDEC0DEull;
  for (std::size_t r = 0; r < max_k; ++r) {
    core::RsuState rsu(m);
    const std::size_t records = m / 8;
    for (std::size_t i = 0; i < records; ++i) {
      rsu.record(static_cast<std::size_t>(common::mix64(++h) % m));
    }
    states.push_back(std::move(rsu));
  }
  const std::span<const core::RsuState> main_states(states.data(), k);

  const core::IntervalEstimator interval(2, 1.96);
  const core::PairEstimator estimator(2);

  double naive_best = 1e300, blocked_serial_best = 1e300,
         blocked_parallel_best = 1e300;
  std::vector<core::EstimateInterval> naive;
  core::OdMatrix blocked_serial(k), blocked_parallel(k);
  core::DecodeStats blocked_serial_stats, blocked_parallel_stats;
  for (int rep = 0; rep < repeat; ++rep) {
    // Seed path: serial loop, materializing decode per pair.
    const obs::Stopwatch t0;
    naive = naive_decode(main_states, interval, estimator);
    naive_best = std::min(naive_best, t0.seconds());

    const obs::Stopwatch t2;
    blocked_serial = decode(main_states, 1, tile_words, &blocked_serial_stats);
    blocked_serial_best = std::min(blocked_serial_best, t2.seconds());

    const obs::Stopwatch t3;
    blocked_parallel =
        decode(main_states, workers, tile_words, &blocked_parallel_stats);
    blocked_parallel_best = std::min(blocked_parallel_best, t3.seconds());
  }

  const bool blocked_identical = matches_naive(naive, blocked_serial);
  const bool parallel_identical =
      cells_identical(blocked_serial, blocked_parallel);

  // Optional sweep: every (K, tile_words) combination must reproduce the
  // naive cells bit for bit — the blocking is a traffic optimization,
  // never an approximation.
  std::string sweep_json;
  bool sweep_identical = true;
  if (sweep) {
    static constexpr std::size_t kSweepK[] = {8, 24, 64};
    static constexpr std::size_t kSweepTiles[] = {256, 1024, 4096, 0};
    sweep_json = ",\n \"sweep\": [";
    bool first = true;
    for (const std::size_t kk : kSweepK) {
      const std::span<const core::RsuState> subset(states.data(), kk);
      const std::vector<core::EstimateInterval> reference =
          naive_decode(subset, interval, estimator);
      for (const std::size_t tiles : kSweepTiles) {
        core::DecodeStats stats;
        const obs::Stopwatch ts;
        const core::OdMatrix candidate =
            decode(subset, workers, tiles, &stats);
        const double elapsed = ts.seconds();
        const bool identical = matches_naive(reference, candidate);
        sweep_identical = sweep_identical && identical;
        char entry[256];
        std::snprintf(entry, sizeof entry,
                      "%s\n  {\"rsus\": %zu, \"tile_words\": %zu, "
                      "\"seconds\": %.6f, \"pairs_per_second\": %.0f, "
                      "\"identical\": %s}",
                      first ? "" : ",", kk, stats.tile_words, elapsed,
                      elapsed > 0.0
                          ? static_cast<double>(stats.pairs_decoded) / elapsed
                          : 0.0,
                      identical ? "true" : "false");
        sweep_json += entry;
        first = false;
      }
    }
    sweep_json += "\n ],\n \"sweep_all_identical\": ";
    sweep_json += sweep_identical ? "true" : "false";
  }

  // Pruned section: ring-topology sparse fleet. Each ring edge e is one
  // road of m/8 common vehicles recorded identically at RSUs e and
  // (e+1) mod pk; every RSU also carries m/8 of its own local traffic.
  // Adjacent pairs therefore share a large exact overlap while every
  // non-adjacent pair shares nothing — the workload shape where the
  // sampled-union prune should skip ~all of the K(K-1)/2 pairs and the
  // exact sweep should run only on the ring edges.
  const auto prune_rsus = static_cast<std::size_t>(
      std::max<std::int64_t>(0, parser.get_int("prune-rsus")));
  const std::size_t pk = prune_rsus == 0 ? k : prune_rsus;
  const auto prune_stride = static_cast<std::size_t>(
      std::max<std::int64_t>(1, parser.get_int("prune-stride")));
  const double prune_z = parser.get_double("prune-z");
  double min_volume = parser.get_double("min-volume");
  if (min_volume < 0.0) {
    // The z_prune-inflated upper bound of a ZERO-overlap pair lands a
    // few sqrt(m * stride) above zero (binomial noise of ~m/stride
    // sampled bits, scaled through Eq. 5's ~m/s slope); 15x clears that
    // tail so the prune actually skips the empty pairs, while staying
    // an order of magnitude below the ring edges' m/8 common vehicles.
    min_volume =
        15.0 * std::sqrt(static_cast<double>(m) *
                         static_cast<double>(prune_stride));
  }

  std::vector<core::RsuState> ring;
  ring.reserve(pk);
  for (std::size_t r = 0; r < pk; ++r) ring.emplace_back(m);
  std::uint64_t rh = 0x51AB5Eull;
  for (std::size_t r = 0; r < pk; ++r) {
    // Local traffic: vehicles seen only at this RSU.
    for (std::size_t i = 0; i < m / 8; ++i) {
      ring[r].record(static_cast<std::size_t>(common::mix64(++rh) % m));
    }
  }
  for (std::size_t e = 0; e < pk; ++e) {
    // One road per ring edge: the same vehicle hits both endpoints, so
    // the identical bit index lands in both arrays (equal sizes — the
    // hashed index is the same at both RSUs).
    const std::size_t other = (e + 1) % pk;
    for (std::size_t i = 0; i < m / 8; ++i) {
      const auto index = static_cast<std::size_t>(common::mix64(++rh) % m);
      ring[e].record(index);
      ring[other].record(index);
    }
  }

  core::DecodeOptions pruned_options;
  pruned_options.workers = workers;
  pruned_options.mode = core::DecodeMode::kPruned;
  pruned_options.tile_words = tile_words;
  pruned_options.prune.sample_stride = prune_stride;
  pruned_options.prune.z_prune = prune_z;
  pruned_options.prune.min_volume = min_volume;

  double ring_blocked_best = 1e300, pruned_best = 1e300;
  core::OdMatrix ring_blocked(pk), pruned(pk);
  core::DecodeStats ring_blocked_stats, pruned_stats;
  for (int rep = 0; rep < repeat; ++rep) {
    const obs::Stopwatch t4;
    ring_blocked = decode(ring, workers, tile_words, &ring_blocked_stats);
    ring_blocked_best = std::min(ring_blocked_best, t4.seconds());

    const obs::Stopwatch t5;
    pruned =
        core::estimate_od_matrix(ring, 2, 1.96, pruned_options, &pruned_stats);
    pruned_best = std::min(pruned_best, t5.seconds());
  }

  // Accuracy gates. The prune rule promises it only ever skips pairs
  // whose exact estimate is at or below the volume floor, and that the
  // survivors go through the identical blocked sweep — so a dropped
  // real pair or a drifted survivor cell is a bug, not a tolerance.
  bool pruned_no_dropped = true;
  bool pruned_survivors_identical = true;
  for (std::size_t a = 0; a < pk; ++a) {
    for (std::size_t b = a + 1; b < pk; ++b) {
      const core::EstimateInterval& exact = ring_blocked.at(a, b);
      if (!pruned.measured(a, b)) {
        pruned_no_dropped = pruned_no_dropped && exact.n_c_hat <= min_volume;
        continue;
      }
      const core::EstimateInterval& got = pruned.at(a, b);
      pruned_survivors_identical =
          pruned_survivors_identical && got.n_c_hat == exact.n_c_hat &&
          got.stddev == exact.stddev && got.lower == exact.lower &&
          got.upper == exact.upper && got.floor_stddev == exact.floor_stddev &&
          got.degraded == exact.degraded;
    }
  }
  const double pruned_speedup =
      pruned_best > 0.0 ? ring_blocked_best / pruned_best : 0.0;
  const double min_speedup = parser.get_double("min-speedup");
  const bool speedup_ok = min_speedup <= 0.0 || pruned_speedup >= min_speedup;

  // Zipf-sized section: the skewed-size fleet where most pairs take the
  // fold-plane sweep, checked cell by cell against the naive decode.
  const auto zipf_rsus = static_cast<std::size_t>(
      std::max<std::int64_t>(0, parser.get_int("zipf-rsus")));
  const auto zipf_vehicles = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, parser.get_int("zipf-vehicles")));
  bool zipf_identical = true;
  if (zipf_rsus >= 2) {
    const std::vector<core::RsuState> fleet =
        zipf_fleet(zipf_rsus, zipf_vehicles);
    std::size_t min_words = SIZE_MAX, max_words = 0, skewed_pairs = 0;
    for (std::size_t a = 0; a < fleet.size(); ++a) {
      const std::size_t words = fleet[a].bits().words().size();
      min_words = std::min(min_words, words);
      max_words = std::max(max_words, words);
      for (std::size_t b = a + 1; b < fleet.size(); ++b) {
        const std::size_t lo =
            std::min(fleet[a].array_size(), fleet[b].array_size());
        const std::size_t hi =
            std::max(fleet[a].array_size(), fleet[b].array_size());
        if (hi / lo >= 4) ++skewed_pairs;
      }
    }
    const obs::Stopwatch tn;
    const std::vector<core::EstimateInterval> reference =
        naive_decode(fleet, interval, estimator);
    const double zipf_naive = tn.seconds();
    double zipf_serial_best = 1e300, zipf_parallel_best = 1e300;
    core::DecodeStats zipf_stats;
    for (int rep = 0; rep < repeat; ++rep) {
      const obs::Stopwatch ts;
      const core::OdMatrix serial = decode(fleet, 1, tile_words, nullptr);
      zipf_serial_best = std::min(zipf_serial_best, ts.seconds());
      const obs::Stopwatch tp;
      const core::OdMatrix parallel =
          decode(fleet, workers, tile_words, &zipf_stats);
      zipf_parallel_best = std::min(zipf_parallel_best, tp.seconds());
      zipf_identical = zipf_identical && matches_naive(reference, serial) &&
                       matches_naive(reference, parallel);
    }
    char zipf_json[768];
    std::snprintf(
        zipf_json, sizeof zipf_json,
        ",\n \"zipf\": {\"rsus\": %zu, \"vehicles\": %llu, \"pairs\": %zu, "
        "\"min_words\": %zu, \"max_words\": %zu, \"skewed_pairs\": %zu,\n"
        "  \"naive_serial_seconds\": %.6f, \"blocked_serial_seconds\": %.6f, "
        "\"blocked_parallel_seconds\": %.6f,\n"
        "  \"speedup_blocked_over_naive\": %.2f, \"words_scanned\": %zu},\n"
        " \"zipf_bit_identical_to_naive\": %s",
        zipf_rsus, static_cast<unsigned long long>(zipf_vehicles),
        reference.size(), min_words, max_words, skewed_pairs, zipf_naive,
        zipf_serial_best, zipf_parallel_best, zipf_naive / zipf_serial_best,
        zipf_stats.words_scanned, zipf_identical ? "true" : "false");
    sweep_json += zipf_json;
  }

  // Estimator-health telemetry over the main fleet and its decoded
  // matrix: the synthetic states sit at load factor ~8, so this tracks
  // the accuracy model's predicted relative error at the paper's
  // operating point run to run.
  obs::health::HealthOptions health_options;
  health_options.s = 2;
  obs::health::HealthSummary health_summary =
      obs::health::assess_rsus(main_states, health_options);
  obs::health::assess_pairs(main_states, blocked_parallel, health_options,
                            health_summary);

  char pruned_json[768];
  std::snprintf(
      pruned_json, sizeof pruned_json,
      ",\n \"pruned\": {\"rsus\": %zu, \"pairs\": %zu, "
      "\"sample_stride\": %zu, \"prune_z\": %.1f, \"min_volume\": %.1f,\n"
      "  \"path\": \"%s\", \"storage\": \"%s\",\n"
      "  \"blocked_seconds\": %.6f, \"pruned_seconds\": %.6f,\n"
      "  \"prune_seconds\": %.6f, \"sweep_seconds\": %.6f, "
      "\"estimate_seconds\": %.6f,\n"
      "  \"pairs_skipped\": %zu, \"pairs_survived\": %zu,\n"
      "  \"speedup_pruned_over_blocked\": %.2f},\n"
      " \"pruned_no_dropped_pairs\": %s,\n"
      " \"pruned_survivors_bit_identical\": %s",
      pk, pk * (pk - 1) / 2, pruned_stats.sample_stride, prune_z, min_volume,
      pruned_stats.path, pruned_stats.storage, ring_blocked_best, pruned_best,
      pruned_stats.prune_seconds, pruned_stats.sweep_seconds,
      pruned_stats.estimate_seconds, pruned_stats.pairs_pruned,
      pruned_stats.pairs_survived, pruned_speedup,
      pruned_no_dropped ? "true" : "false",
      pruned_survivors_identical ? "true" : "false");
  sweep_json += pruned_json;

  std::printf(
      "{\"rsus\": %zu, \"m\": %zu, \"pairs\": %zu, \"workers\": %u,\n"
      " \"host\": %s,\n"
      " \"kernel_isa\": \"%s\",\n"
      " \"tile_words\": %zu,\n"
      " \"dram_passes_saved\": %zu,\n"
      " \"naive_serial_seconds\": %.6f,\n"
      " \"blocked_serial_seconds\": %.6f,\n"
      " \"blocked_parallel_seconds\": %.6f,\n"
      " \"speedup_blocked_over_naive\": %.2f,\n"
      " \"blocked_pairs_per_second\": %.0f,\n"
      " \"blocked_scan_mib_per_second\": %.0f,\n"
      " \"pool_threads\": %u,\n"
      " \"pool_lifetime_dispatches\": %llu,\n"
      " \"blocked_bit_identical_to_naive\": %s,\n"
      " \"parallel_bit_identical_to_serial\": %s%s,\n"
      " \"health\": {\"rsus_assessed\": %zu, \"rsus_saturated\": %zu, "
      "\"max_fill_fraction\": %.4f, \"min_load_factor\": %.2f, "
      "\"pairs_assessed\": %zu, \"pairs_degraded\": %zu, "
      "\"predicted_rel_err_max\": %.4f, \"predicted_rel_err_mean\": %.4f},\n"
      " \"metrics\": %s}\n",
      k, m, blocked_serial_stats.pairs_decoded, blocked_parallel_stats.workers,
      bench::host_json().c_str(), blocked_parallel_stats.kernel_isa, blocked_serial_stats.tile_words,
      blocked_serial_stats.dram_passes_saved, naive_best, blocked_serial_best,
      blocked_parallel_best, naive_best / blocked_serial_best,
      blocked_serial_best > 0.0
          ? static_cast<double>(blocked_serial_stats.pairs_decoded) /
                blocked_serial_best
          : 0.0,
      blocked_serial_stats.mib_per_second(),
      blocked_parallel_stats.pool_threads,
      static_cast<unsigned long long>(
          blocked_parallel_stats.pool_lifetime_dispatches),
      blocked_identical ? "true" : "false",
      parallel_identical ? "true" : "false", sweep_json.c_str(),
      health_summary.rsus_assessed, health_summary.rsus_saturated,
      health_summary.max_fill_fraction, health_summary.min_load_factor,
      health_summary.pairs_assessed, health_summary.pairs_degraded,
      health_summary.max_predicted_rel_err,
      health_summary.mean_predicted_rel_err,
      obs::to_json(obs::MetricsRegistry::global().snapshot(), {}, 2).c_str());
  return blocked_identical && parallel_identical && sweep_identical &&
                 pruned_no_dropped && pruned_survivors_identical &&
                 zipf_identical && speedup_ok
             ? 0
             : 1;
}
