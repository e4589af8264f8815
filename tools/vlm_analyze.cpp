// vlm_analyze — offline decoding of an archived measurement period.
//
//   $ vlm_analyze --in period.bin                       # per-RSU health
//   $ vlm_analyze --in period.bin --pair 10:15          # one estimate
//   $ vlm_analyze --in period.bin --matrix --top 12     # largest flows
//
// Validates every report (occupancy z-score), then answers
// point-to-point queries with confidence intervals — the central-server
// side of the paper, run from files instead of a live deployment.
#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/bit_array.h"
#include "common/cli.h"
#include "common/csv.h"
#include "common/table.h"
#include "core/interval.h"
#include "core/multi_period.h"
#include "core/od_matrix.h"
#include "core/report_validator.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/stats_text.h"
#include "obs/trace.h"
#include "vcps/archive.h"

namespace {

using namespace vlm;

struct LoadedReport {
  core::RsuId id;
  core::RsuState state;
};

// Parses "a:b" into two RSU ids.
bool parse_pair(const std::string& text, std::uint64_t& a, std::uint64_t& b) {
  const auto colon = text.find(':');
  if (colon == std::string::npos) return false;
  try {
    a = std::stoull(text.substr(0, colon));
    b = std::stoull(text.substr(colon + 1));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser parser("vlm_analyze",
                           "decode an archived measurement period");
  parser.add_string("in", "period.bin",
                    "archive path(s); comma-separate multiple periods to "
                    "aggregate pair estimates across them");
  parser.add_int("s", 2, "logical bit array size the deployment used");
  parser.add_string("pair", "", "estimate one pair, format '<id>:<id>'");
  parser.add_flag("matrix", false, "estimate all pairs");
  parser.add_int("top", 10, "with --matrix: print the N largest flows");
  parser.add_double("z", 1.96, "interval width (normal quantile)");
  parser.add_int("workers", 0,
                 "decode threads for --matrix (0 = one per core, 1 = serial; "
                 "any value gives bit-identical estimates)");
  parser.add_string("decode", "auto",
                    "decode path for --matrix: auto (the exact blocked "
                    "sweep) or pruned");
  parser.add_int("prune-stride", 16,
                 "--decode pruned: sample every Nth 8-word block");
  parser.add_double("prune-z", 4.0,
                    "--decode pruned: confidence multiplier on the sampled "
                    "union (higher keeps more pairs)");
  parser.add_double("min-volume", 0.0,
                    "--decode pruned: skip pairs whose overlap upper bound "
                    "is at or below this");
  parser.add_string("csv", "", "with --matrix: also write every pair to CSV");
  parser.add_string("metrics", "",
                    "write the metrics snapshot here (VLM_METRICS when empty)");
  parser.add_string("metrics-format", "",
                    "json|prom|csv (VLM_METRICS_FORMAT when empty; default "
                    "json)");
  parser.add_string("trace", "",
                    "write a Chrome Trace Event JSON flight-recorder timeline "
                    "here (VLM_TRACE when empty)");
  // The catch below flushes the flight recorder to this path; it stays
  // empty until the flags parse.
  std::string trace_path;
  try {
    if (!parser.parse(argc, argv)) return 0;

    // Resolve export destinations before any fallible work: a bad flag or
    // unreadable archive must still flush the metrics measured so far (the
    // guard's plain snapshot) instead of silently skipping --metrics.
    const obs::ExportConfig metrics_config = obs::resolve_export_config(
        parser.get_string("metrics"), parser.get_string("metrics-format"));
    obs::MetricsExportGuard metrics_guard(metrics_config);
    trace_path = obs::trace::resolve_trace_path(parser.get_string("trace"));
    if (!trace_path.empty()) {
      obs::trace::set_thread_name("main");
      obs::trace::set_enabled(true);
    }

    // Split --in on commas: one or more period archives.
    std::vector<std::string> paths;
    {
      std::string remaining = parser.get_string("in");
      std::size_t comma;
      while ((comma = remaining.find(',')) != std::string::npos) {
        paths.push_back(remaining.substr(0, comma));
        remaining = remaining.substr(comma + 1);
      }
      if (!remaining.empty()) paths.push_back(remaining);
    }
    if (paths.empty()) {
      std::fprintf(stderr, "error: --in needs at least one path\n");
      return 1;
    }
    std::vector<vcps::PeriodArchive> archives;
    archives.reserve(paths.size());
    for (const std::string& path : paths) {
      archives.push_back(vcps::load_archive(path));
    }
    const vcps::PeriodArchive& archive = archives.back();
    const auto s = static_cast<std::uint32_t>(parser.get_int("s"));
    const double z = parser.get_double("z");

    std::vector<LoadedReport> rsus;
    rsus.reserve(archive.reports.size());
    for (const vcps::RsuReport& report : archive.reports) {
      rsus.push_back(LoadedReport{
          report.rsu,
          core::RsuState::from_report(
              report.counter,
              common::BitArray::from_bytes(report.array_size, report.bits))});
    }
    std::sort(rsus.begin(), rsus.end(),
              [](const LoadedReport& a, const LoadedReport& b) {
                return a.id < b.id;
              });
    std::printf("period %llu: %zu RSU reports\n\n",
                static_cast<unsigned long long>(archive.period), rsus.size());

    // Per-RSU health.
    const core::ReportValidator validator(6.0);
    common::TextTable health(
        {"RSU", "counter", "m", "load f", "zero frac", "z-score", "verdict"});
    for (const LoadedReport& r : rsus) {
      const auto a = validator.assess(r.state);
      const char* verdict = "ok";
      if (a.verdict == core::ReportVerdict::kTooFull) verdict = "TOO FULL";
      if (a.verdict == core::ReportVerdict::kTooEmpty) verdict = "TOO EMPTY";
      if (a.verdict == core::ReportVerdict::kInconsistent) {
        verdict = "INCONSISTENT";
      }
      health.add_row(
          {std::to_string(r.id.value),
           common::TextTable::fmt_int(
               static_cast<long long>(r.state.counter())),
           std::to_string(r.state.array_size()),
           common::TextTable::fmt(
               r.state.counter() > 0 ? r.state.load_factor() : 0.0, 2),
           common::TextTable::fmt(r.state.zero_fraction(), 4),
           common::TextTable::fmt(a.z_score, 2), verdict});
    }
    std::printf("%s", health.to_string().c_str());

    // Estimator-health telemetry over the archived states. Offline
    // archives do not carry the deployment's sizing plan, so the drift
    // check stays off (target_load_factor 0); saturation and fill still
    // publish through health/*.
    obs::health::HealthOptions health_options;
    health_options.s = s;
    std::vector<const core::RsuState*> state_ptrs;
    state_ptrs.reserve(rsus.size());
    for (const LoadedReport& r : rsus) state_ptrs.push_back(&r.state);
    obs::health::HealthSummary health_summary = obs::health::assess_rsus(
        std::span<const core::RsuState* const>(state_ptrs), health_options);

    if (!parser.get_string("pair").empty()) {
      std::uint64_t a = 0, b = 0;
      if (!parse_pair(parser.get_string("pair"), a, b)) {
        std::fprintf(stderr, "error: --pair expects '<id>:<id>'\n");
        return 1;
      }
      // Aggregate across every supplied period (inverse-variance).
      const core::IntervalEstimator estimator(s, z);
      core::MultiPeriodAggregator aggregator(z);
      for (const vcps::PeriodArchive& period : archives) {
        const vcps::RsuReport* ra = nullptr;
        const vcps::RsuReport* rb = nullptr;
        for (const vcps::RsuReport& r : period.reports) {
          if (r.rsu.value == a) ra = &r;
          if (r.rsu.value == b) rb = &r;
        }
        if (!ra || !rb) {
          std::fprintf(stderr, "error: pair RSU missing in period %llu\n",
                       static_cast<unsigned long long>(period.period));
          return 1;
        }
        auto rebuild = [](const vcps::RsuReport& r) {
          return core::RsuState::from_report(
              r.counter,
              common::BitArray::from_bytes(r.array_size, r.bits));
        };
        aggregator.add_period(estimator.estimate(rebuild(*ra), rebuild(*rb)));
      }
      const core::AggregateEstimate e = aggregator.aggregate();
      std::printf(
          "\npair (%llu, %llu) over %zu period(s): n_c^ = %.1f, interval "
          "[%.0f, %.0f], sigma %.1f\n",
          static_cast<unsigned long long>(a),
          static_cast<unsigned long long>(b), e.periods, e.n_c_hat, e.lower,
          e.upper, e.stddev);
    }

    if (parser.get_flag("matrix") && rsus.size() >= 2) {
      std::vector<core::RsuState> states;
      states.reserve(rsus.size());
      for (const LoadedReport& r : rsus) states.push_back(r.state);
      const auto workers =
          static_cast<unsigned>(std::max<std::int64_t>(0, parser.get_int("workers")));
      core::DecodeOptions decode_options;
      decode_options.workers = workers;
      const std::string decode_name = parser.get_string("decode");
      if (decode_name == "pruned") {
        decode_options.mode = core::DecodeMode::kPruned;
      } else if (decode_name == "auto") {
        decode_options.mode = core::DecodeMode::kAuto;
      } else {
        std::fprintf(stderr, "error: --decode expects auto|pruned\n");
        return 1;
      }
      decode_options.prune.sample_stride = static_cast<std::size_t>(
          std::max<std::int64_t>(1, parser.get_int("prune-stride")));
      decode_options.prune.z_prune = parser.get_double("prune-z");
      decode_options.prune.min_volume = parser.get_double("min-volume");
      core::DecodeStats decode_stats;
      const core::OdMatrix matrix =
          core::estimate_od_matrix(states, s, z, decode_options, &decode_stats);
      obs::health::assess_pairs(states, matrix, health_options, health_summary);
      struct Flow {
        std::size_t a, b;
        double estimate;
      };
      std::vector<Flow> flows;
      for (std::size_t a = 0; a < rsus.size(); ++a) {
        for (std::size_t b = a + 1; b < rsus.size(); ++b) {
          flows.push_back(Flow{a, b, matrix.at(a, b).n_c_hat});
        }
      }
      std::sort(flows.begin(), flows.end(),
                [](const Flow& x, const Flow& y) {
                  return x.estimate > y.estimate;
                });
      const auto top = std::min<std::size_t>(
          flows.size(), static_cast<std::size_t>(parser.get_int("top")));
      common::TextTable table({"pair", "estimate", "interval"});
      for (std::size_t i = 0; i < top; ++i) {
        const auto& e = matrix.at(flows[i].a, flows[i].b);
        table.add_row(
            {"(" + std::to_string(rsus[flows[i].a].id.value) + ", " +
                 std::to_string(rsus[flows[i].b].id.value) + ")",
             common::TextTable::fmt(e.n_c_hat, 1),
             "[" + common::TextTable::fmt(e.lower, 0) + ", " +
                 common::TextTable::fmt(e.upper, 0) + "]"});
      }
      std::printf("\ntop point-to-point flows (of %zu pairs):\n%s",
                  flows.size(), table.to_string().c_str());
      std::printf("total estimated pairwise common traffic: %.0f\n",
                  matrix.total_estimated_common());
      std::printf("%s", obs::format_decode_stats(decode_stats).c_str());
      if (!parser.get_string("csv").empty()) {
        common::CsvWriter csv(parser.get_string("csv"),
                              {"rsu_a", "rsu_b", "estimate", "lower", "upper",
                               "stddev", "degraded", "measured"});
        for (const Flow& flow : flows) {
          const auto& e = matrix.at(flow.a, flow.b);
          csv.add_row({std::to_string(rsus[flow.a].id.value),
                       std::to_string(rsus[flow.b].id.value),
                       common::TextTable::fmt(e.n_c_hat, 2),
                       common::TextTable::fmt(e.lower, 2),
                       common::TextTable::fmt(e.upper, 2),
                       common::TextTable::fmt(e.stddev, 2),
                       e.degraded ? "1" : "0",
                       matrix.measured(flow.a, flow.b) ? "1" : "0"});
        }
        std::printf("wrote %zu pairs to %s\n", flows.size(),
                    parser.get_string("csv").c_str());
      }
    }

    std::printf("%s",
                obs::health::format_health_summary(health_summary).c_str());

    // One registry snapshot covering the whole run (decode spans, pool
    // counters); format/destination shared with vlm_simulate.
    if (!metrics_config.path.empty()) {
      const obs::Snapshot snapshot = obs::MetricsRegistry::global().snapshot();
      std::string content;
      switch (metrics_config.format) {
        case obs::ExportFormat::kJson: {
          char extra[64];
          std::snprintf(extra, sizeof extra, "\"period\": %llu,",
                        static_cast<unsigned long long>(archive.period));
          content = obs::to_json(snapshot, extra);
          content += '\n';
          break;
        }
        case obs::ExportFormat::kPrometheus:
          content = obs::to_prometheus_text(snapshot);
          break;
        case obs::ExportFormat::kCsv:
          content = obs::csv_header() +
                    obs::to_csv_rows(snapshot, archive.period);
          break;
      }
      if (obs::write_text_file(metrics_config.path, content)) {
        std::printf("wrote %s metrics to %s\n",
                    obs::export_format_name(metrics_config.format),
                    metrics_config.path.c_str());
      }
    }
    metrics_guard.disarm();
    if (!trace_path.empty() &&
        obs::trace::write_chrome_trace(trace_path)) {
      std::printf("wrote chrome trace to %s\n", trace_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // Flush whatever the flight recorder captured before the failure;
    // the export guard does the same for the metrics registry.
    if (!trace_path.empty()) obs::trace::write_chrome_trace(trace_path);
    return 1;
  }
}
