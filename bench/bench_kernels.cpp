// Kernel microbench: the four dispatched bit-kernels (bulk popcount,
// fused OR+popcount — equal-size and cyclic-unfold forms — in-place
// OR-merge with recount, and bulk-set scatter+recount), swept over
// array sizes m = 2^min-exp .. 2^max-exp, scalar baseline vs whatever
// ISA the runtime dispatch selected.
//
//   $ bench_kernels                                   # full sweep, JSON out
//   $ bench_kernels --min-exp 10 --max-exp 12 --repeat 1     # smoke
//   $ VLM_KERNELS=avx2 bench_kernels                  # pin a variant
//
// Every timed result is first cross-checked against the scalar table on
// the same inputs (counts AND merged words); the process exits non-zero
// on any mismatch, so CI runs double as a bit-exactness gate. The JSON
// opens with the "host" object (core count, ISA, build type, compiler).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/kernels/kernels.h"
#include "common/rng.h"
#include "host_json.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace {

using namespace vlm;
namespace kernels = vlm::common::kernels;

std::vector<std::uint64_t> random_words(std::size_t n,
                                        common::Xoshiro256ss& rng) {
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = rng.next();
  return out;
}

// Seconds per call: `iters` back-to-back calls, best of `repeat` runs.
template <typename Fn>
double time_kernel(int repeat, std::size_t iters, Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < repeat; ++rep) {
    const obs::Stopwatch t0;
    for (std::size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, t0.seconds() / static_cast<double>(iters));
  }
  return best;
}

struct KernelRow {
  const char* key;
  double scalar_seconds = 0.0;
  double dispatched_seconds = 0.0;
  std::size_t words_touched = 0;  // per call, for bandwidth

  double speedup() const {
    return dispatched_seconds > 0.0 ? scalar_seconds / dispatched_seconds
                                    : 0.0;
  }
  double dispatched_gib_per_second() const {
    return dispatched_seconds > 0.0
               ? static_cast<double>(words_touched) * 8.0 /
                     (dispatched_seconds * 1024.0 * 1024.0 * 1024.0)
               : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser parser("bench_kernels",
                           "scalar vs dispatched SIMD bit-kernel sweep");
  parser.add_int("min-exp", 10, "smallest log2 array size (bits)");
  parser.add_int("max-exp", 24, "largest log2 array size (bits)");
  parser.add_int("exp-step", 2, "exponent stride of the sweep");
  parser.add_int("unfold", 16, "unfold ratio for the cyclic fused kernel");
  parser.add_int("repeat", 3, "timing repetitions (best-of)");
  parser.add_int("seed", 11, "input data seed");
  if (!parser.parse(argc, argv)) return 0;

  const auto min_exp = static_cast<unsigned>(parser.get_int("min-exp"));
  const auto max_exp = static_cast<unsigned>(parser.get_int("max-exp"));
  const auto exp_step =
      std::max<unsigned>(1, static_cast<unsigned>(parser.get_int("exp-step")));
  const auto unfold =
      std::max<std::size_t>(1, static_cast<std::size_t>(parser.get_int("unfold")));
  const int repeat = std::max(1, static_cast<int>(parser.get_int("repeat")));
  common::Xoshiro256ss rng(static_cast<std::uint64_t>(parser.get_int("seed")));

  const kernels::KernelTable& scalar = kernels::scalar_table();
  const kernels::KernelTable& dispatched = kernels::active();

  bool identical = true;
  std::string sizes_json;
  char buf[512];
  // Fused-OR speedups at m >= 2^20 — the headline the decode pipeline
  // inherits (acceptance: >= 2x on SIMD hosts).
  double min_large_fused_speedup = 1e300;

  for (unsigned exp = min_exp; exp <= max_exp; exp += exp_step) {
    // One span per sweep size, so the embedded snapshot carries the
    // sweep's own phase trace alongside the kernel timings.
    const obs::Span sweep_span(obs::phase("bench/kernel_sweep"));
    const std::size_t m = std::size_t{1} << exp;
    const std::size_t n = std::max<std::size_t>(1, m / 64);
    const std::size_t ns = std::max<std::size_t>(1, n / unfold);
    // Enough iterations that even the fastest kernel accumulates
    // measurable wall time at small sizes.
    const std::size_t iters =
        std::max<std::size_t>(1, (std::size_t{1} << 24) / n);

    const std::vector<std::uint64_t> a = random_words(n, rng);
    const std::vector<std::uint64_t> b = random_words(n, rng);
    const std::vector<std::uint64_t> small = random_words(ns, rng);
    std::vector<std::size_t> indices(m / 8);
    for (auto& idx : indices) idx = rng.uniform(m);

    // --- Cross-check every kernel before timing it. ---
    identical = identical &&
                scalar.popcount(a.data(), n) == dispatched.popcount(a.data(), n);
    identical = identical &&
                scalar.or_popcount_cyclic(a.data(), n, b.data(), n) ==
                    dispatched.or_popcount_cyclic(a.data(), n, b.data(), n);
    identical = identical &&
                scalar.or_popcount_cyclic(a.data(), n, small.data(), ns) ==
                    dispatched.or_popcount_cyclic(a.data(), n, small.data(), ns);
    {
      std::vector<std::uint64_t> ds = a, dd = a;
      const std::size_t ones_s = scalar.merge_or(ds.data(), b.data(), n);
      const std::size_t ones_d = dispatched.merge_or(dd.data(), b.data(), n);
      identical = identical && ones_s == ones_d && ds == dd;
    }
    {
      std::vector<std::uint64_t> ws((m + 63) / 64, 0), wd((m + 63) / 64, 0);
      const std::size_t ones_s =
          scalar.set_scatter(ws.data(), m, indices.data(), indices.size());
      const std::size_t ones_d =
          dispatched.set_scatter(wd.data(), m, indices.data(), indices.size());
      identical = identical && ones_s == ones_d && ws == wd;
    }

    // --- Timed sweeps (merged/scattered buffers pre-saturated so every
    // iteration does identical work). ---
    std::vector<std::uint64_t> merged = a;
    scalar.merge_or(merged.data(), b.data(), n);
    std::vector<std::uint64_t> scattered((m + 63) / 64, 0);
    scalar.set_scatter(scattered.data(), m, indices.data(), indices.size());

    KernelRow rows[] = {
        {"popcount", 0, 0, n},
        {"or_popcount_fused", 0, 0, 2 * n},
        {"or_popcount_unfold", 0, 0, n + ns},
        {"merge_or", 0, 0, 2 * n},
        {"set_scatter", 0, 0, n + indices.size()},
    };
    for (const bool use_dispatched : {false, true}) {
      const kernels::KernelTable& t = use_dispatched ? dispatched : scalar;
      double* slot[] = {
          use_dispatched ? &rows[0].dispatched_seconds : &rows[0].scalar_seconds,
          use_dispatched ? &rows[1].dispatched_seconds : &rows[1].scalar_seconds,
          use_dispatched ? &rows[2].dispatched_seconds : &rows[2].scalar_seconds,
          use_dispatched ? &rows[3].dispatched_seconds : &rows[3].scalar_seconds,
          use_dispatched ? &rows[4].dispatched_seconds : &rows[4].scalar_seconds,
      };
      *slot[0] = time_kernel(repeat, iters, [&] { t.popcount(a.data(), n); });
      *slot[1] = time_kernel(repeat, iters, [&] {
        t.or_popcount_cyclic(a.data(), n, b.data(), n);
      });
      *slot[2] = time_kernel(repeat, iters, [&] {
        t.or_popcount_cyclic(a.data(), n, small.data(), ns);
      });
      *slot[3] = time_kernel(repeat, iters, [&] {
        t.merge_or(merged.data(), b.data(), n);
      });
      *slot[4] = time_kernel(repeat, iters, [&] {
        t.set_scatter(scattered.data(), m, indices.data(), indices.size());
      });
    }
    if (exp >= 20) {
      min_large_fused_speedup =
          std::min({min_large_fused_speedup, rows[1].speedup(),
                    rows[2].speedup()});
    }

    std::snprintf(buf, sizeof(buf), "%s  {\"m\": %zu, \"words\": %zu,\n",
                  sizes_json.empty() ? "" : ",\n", m, n);
    sizes_json += buf;
    for (std::size_t r = 0; r < 5; ++r) {
      std::snprintf(
          buf, sizeof(buf),
          "   \"%s\": {\"scalar_seconds\": %.3e, \"dispatched_seconds\": "
          "%.3e, \"speedup\": %.2f, \"dispatched_gib_s\": %.1f}%s\n",
          rows[r].key, rows[r].scalar_seconds, rows[r].dispatched_seconds,
          rows[r].speedup(), rows[r].dispatched_gib_per_second(),
          r + 1 < 5 ? "," : "}");
      sizes_json += buf;
    }
  }

  std::string isas;
  for (const kernels::Isa isa : kernels::available_isas()) {
    isas += isas.empty() ? "\"" : ", \"";
    isas += kernels::isa_name(isa);
    isas += "\"";
  }
  std::printf(
      "{\"host\": %s,\n"
      " \"kernel_isa\": \"%s\",\n"
      " \"isas_available\": [%s],\n"
      " \"unfold_ratio\": %zu,\n"
      " \"sizes\": [\n%s\n ],\n"
      " \"min_fused_speedup_m_ge_2e20\": %.2f,\n"
      " \"identical\": %s,\n"
      " \"metrics\": %s}\n",
      bench::host_json().c_str(), dispatched.name, isas.c_str(), unfold, sizes_json.c_str(),
      min_large_fused_speedup < 1e300 ? min_large_fused_speedup : 0.0,
      identical ? "true" : "false",
      obs::to_json(obs::MetricsRegistry::global().snapshot(), {}, 2).c_str());
  return identical ? 0 : 1;
}
