// vlm_simulate — run one or more measurement periods end to end and
// archive the RSU reports for offline analysis with vlm_analyze.
//
//   $ vlm_simulate --network sioux-falls --out period.bin
//   $ vlm_simulate --network grid --rows 8 --cols 8 --demand 300000 ...
//   $ vlm_simulate --network zipf --rsus 40 --vehicles 250000 ...
//   $ vlm_simulate --periods 4 --metrics metrics.json        # phase trace
//
// The tool drives the FULL protocol (certificates, queries, replies,
// serialized reports) through vcps::VcpsSimulation, so the archive is
// exactly what a deployment's central server would hold. With --metrics
// (or VLM_METRICS=<path>) it also writes the obs registry trace: one
// snapshot per period, counters/spans keyed identically for every worker
// count, in json, prom, or csv (VLM_METRICS_FORMAT / --metrics-format).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/cli.h"
#include "common/parallel.h"
#include "common/visited_mask.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/stats_text.h"
#include "obs/trace.h"
#include "roadnet/assignment.h"
#include "roadnet/sioux_falls.h"
#include "roadnet/synthetic_city.h"
#include "roadnet/tntp_io.h"
#include "roadnet/trajectory.h"
#include "traffic/multi_rsu_workload.h"
#include "vcps/archive.h"
#include "vcps/simulation.h"

namespace {

using namespace vlm;

// Trajectory streams are sequential (one RNG stream), so for the sharded
// ingest we materialize them once (flat index list + offsets) and hand
// drive_vehicles an O(1) random-access itinerary provider. Ground-truth
// volumes are counted during materialization.
struct MaterializedTrips {
  std::vector<std::size_t> flat;
  std::vector<std::size_t> offsets{0};
  std::vector<std::uint64_t> volumes;

  std::uint64_t vehicle_count() const { return offsets.size() - 1; }

  vcps::ItineraryProvider provider() const {
    return [this](std::uint64_t v, std::vector<std::size_t>& positions) {
      positions.assign(flat.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                       flat.begin() +
                           static_cast<std::ptrdiff_t>(offsets[v + 1]));
    };
  }
};

MaterializedTrips materialize_network_workload(
    const roadnet::AssignmentResult& assignment, std::size_t node_count,
    std::uint64_t seed) {
  MaterializedTrips out;
  out.volumes.assign(node_count, 0);
  roadnet::TrajectorySampler sampler(assignment, seed);
  sampler.for_each_vehicle([&](std::span<const roadnet::NodeIndex> nodes) {
    for (roadnet::NodeIndex n : nodes) {
      out.flat.push_back(n);
      ++out.volumes[n];
    }
    out.offsets.push_back(out.flat.size());
  });
  return out;
}

// One period's registry state, captured right after end_period() so the
// exported series is cumulative (and therefore monotone) per metric.
struct PeriodTrace {
  std::uint64_t period = 0;
  double wall_seconds = 0.0;
  obs::Snapshot snapshot;
};

void write_metrics(const obs::ExportConfig& config, unsigned workers,
                   const std::vector<PeriodTrace>& traces) {
  if (config.path.empty() || traces.empty()) return;
  std::string content;
  switch (config.format) {
    case obs::ExportFormat::kJson: {
      content = "{\n \"tool\": \"vlm_simulate\",\n \"workers\": " +
                std::to_string(workers) + ",\n \"periods\": [";
      for (std::size_t i = 0; i < traces.size(); ++i) {
        char extra[96];
        std::snprintf(extra, sizeof extra,
                      "\"period\": %llu,\n  \"period_wall_seconds\": %.9g,",
                      static_cast<unsigned long long>(traces[i].period),
                      traces[i].wall_seconds);
        content += i == 0 ? "\n " : ",\n ";
        content += obs::to_json(traces[i].snapshot, extra, 2);
      }
      content += "\n ]\n}\n";
      break;
    }
    case obs::ExportFormat::kPrometheus:
      content = obs::to_prometheus_text(traces.back().snapshot);
      break;
    case obs::ExportFormat::kCsv:
      content = obs::csv_header();
      for (const PeriodTrace& trace : traces) {
        content += obs::to_csv_rows(trace.snapshot, trace.period);
      }
      break;
  }
  if (obs::write_text_file(config.path, content)) {
    std::printf("wrote %s metrics (%zu period(s)) to %s\n",
                obs::export_format_name(config.format), traces.size(),
                config.path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser parser("vlm_simulate",
                           "simulate measurement periods and archive them");
  parser.add_string("network", "sioux-falls",
                    "'sioux-falls', 'grid', 'zipf', or 'tntp'");
  parser.add_string("net-file", "", "TNTP network file (network=tntp)");
  parser.add_string("trips-file", "", "TNTP trips file (network=tntp)");
  parser.add_string("out", "period.bin", "archive output path (last period)");
  parser.add_string("scheme", "vlm", "'vlm' or 'fbm'");
  parser.add_int("s", 2, "logical bit array size");
  parser.add_double("load-factor", 8.0, "VLM load factor f̄");
  parser.add_double("fbm-m", 1 << 17, "FBM fixed array size (power of two)");
  parser.add_double("scale", 1.0, "demand scale (network workloads)");
  parser.add_int("rows", 8, "grid rows (grid network)");
  parser.add_int("cols", 8, "grid cols (grid network)");
  parser.add_double("demand", 200'000, "grid total demand/day");
  parser.add_int("rsus", 32, "RSU count (zipf workload)");
  parser.add_int("vehicles", 200'000, "vehicle count (zipf workload)");
  parser.add_int("seed", 1, "simulation seed");
  parser.add_int("workers", 0, "ingest worker threads (0 = one per core)");
  parser.add_int("periods", 1, "measurement periods to simulate");
  parser.add_flag("decode-matrix", false,
                  "decode the full OD matrix after the last period and print "
                  "the decode stats");
  parser.add_string("metrics", "",
                    "write the metrics/phase trace here (VLM_METRICS when "
                    "empty)");
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

    // Export destinations resolve before any fallible work so a run that
    // dies partway (bad flag value, unwritable archive) still flushes what
    // it measured: the guard writes a plain registry snapshot unless the
    // success path disarms it after the rich per-period write.
    const obs::ExportConfig metrics_config = obs::resolve_export_config(
        parser.get_string("metrics"), parser.get_string("metrics-format"));
    obs::MetricsExportGuard metrics_guard(metrics_config);
    trace_path = obs::trace::resolve_trace_path(parser.get_string("trace"));
    if (!trace_path.empty()) {
      obs::trace::set_thread_name("main");
      obs::trace::set_enabled(true);
    }

    const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));
    vcps::SimulationConfig config;
    config.seed = seed;
    // Scheme selection is one factory call; everything downstream
    // (server sizing, vehicle encoding, decode) is scheme-generic.
    core::SchemeOptions scheme_options;
    scheme_options.s = static_cast<std::uint32_t>(parser.get_int("s"));
    scheme_options.load_factor = parser.get_double("load-factor");
    scheme_options.array_size =
        static_cast<std::size_t>(parser.get_double("fbm-m"));
    config.server.scheme =
        core::make_scheme(parser.get_string("scheme"), scheme_options);

    const unsigned workers = common::resolve_worker_count(
        static_cast<unsigned>(std::max<std::int64_t>(0, parser.get_int("workers"))));
    const auto periods = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, parser.get_int("periods")));
    const std::string network = parser.get_string("network");

    // Workload setup happens entirely BEFORE the period loop, so the
    // per-period phase spans (period/begin + period/ingest +
    // period/close) tile the measured wall time of each period.
    std::unique_ptr<vcps::VcpsSimulation> sim;
    std::unique_ptr<traffic::MultiRsuWorkload> zipf_workload;
    MaterializedTrips trips_flat;
    vcps::ItineraryProvider itinerary;
    std::uint64_t vehicles_per_period = 0;
    if (network == "zipf") {
      traffic::MultiRsuConfig workload_config;
      workload_config.rsu_count =
          static_cast<std::size_t>(parser.get_int("rsus"));
      workload_config.vehicle_count =
          static_cast<std::uint64_t>(parser.get_int("vehicles"));
      workload_config.seed = seed;
      zipf_workload =
          std::make_unique<traffic::MultiRsuWorkload>(workload_config);
      zipf_workload->for_each_vehicle(
          [](std::uint64_t, std::span<const std::uint32_t>) {});
      std::vector<vcps::RsuSite> sites;
      for (std::size_t r = 0; r < workload_config.rsu_count; ++r) {
        sites.push_back(vcps::RsuSite{
            core::RsuId{r + 1},
            static_cast<double>(zipf_workload->node_volumes()[r])});
      }
      sim = std::make_unique<vcps::VcpsSimulation>(config, sites);
      // Zipf itineraries are splittable (pure per-vehicle RNG), so the
      // sharded engine generates them directly inside each worker.
      const std::size_t rsu_count = workload_config.rsu_count;
      const traffic::MultiRsuWorkload* workload = zipf_workload.get();
      itinerary = [workload, rsu_count](std::uint64_t v,
                                        std::vector<std::size_t>& positions) {
        thread_local common::VisitedMask visited(0);
        thread_local std::vector<std::uint32_t> rsus;
        if (visited.universe_size() != rsu_count) {
          visited = common::VisitedMask(rsu_count);
        }
        workload->itinerary(v, visited, rsus);
        positions.assign(rsus.begin(), rsus.end());
      };
      vehicles_per_period = workload_config.vehicle_count;
    } else {
      roadnet::Graph graph;
      roadnet::TripTable trips(2);
      if (network == "grid") {
        roadnet::SyntheticCityConfig city_config;
        city_config.rows = static_cast<std::uint32_t>(parser.get_int("rows"));
        city_config.cols = static_cast<std::uint32_t>(parser.get_int("cols"));
        city_config.total_demand = parser.get_double("demand");
        city_config.seed = seed;
        roadnet::SyntheticCity city = roadnet::make_synthetic_city(city_config);
        graph = std::move(city.graph);
        trips = std::move(city.trips);
      } else if (network == "sioux-falls") {
        graph = roadnet::sioux_falls_network();
        trips = roadnet::sioux_falls_trip_table();
      } else if (network == "tntp") {
        graph = roadnet::load_tntp_network(parser.get_string("net-file"));
        trips = roadnet::load_tntp_trips(parser.get_string("trips-file"));
      } else {
        std::fprintf(stderr, "unknown network '%s'\n", network.c_str());
        return 1;
      }
      if (parser.get_double("scale") != 1.0) {
        trips.scale(parser.get_double("scale"));
      }
      const auto assignment = roadnet::assign(graph, trips);
      std::vector<vcps::RsuSite> sites;
      for (roadnet::NodeIndex n = 0; n < graph.node_count(); ++n) {
        sites.push_back(vcps::RsuSite{core::RsuId{n + 1u},
                                      assignment.expected_node_volume(n)});
      }
      sim = std::make_unique<vcps::VcpsSimulation>(config, sites);
      trips_flat =
          materialize_network_workload(assignment, graph.node_count(), seed);
      itinerary = trips_flat.provider();
      vehicles_per_period = trips_flat.vehicle_count();
    }

    vcps::IngestStats ingest;
    std::vector<PeriodTrace> traces;
    traces.reserve(periods);
    for (std::uint64_t p = 0; p < periods; ++p) {
      const obs::Stopwatch period_wall;
      sim->begin_period();
      ingest = sim->drive_vehicles(vehicles_per_period, itinerary, workers);
      sim->end_period();
      PeriodTrace trace;
      trace.period = sim->current_period();
      trace.wall_seconds = period_wall.seconds();
      if (!metrics_config.path.empty()) {
        trace.snapshot = obs::MetricsRegistry::global().snapshot();
      }
      traces.push_back(std::move(trace));
    }

    // Archive every RSU's report for the final period.
    vcps::PeriodArchive archive;
    archive.period = sim->current_period();
    for (std::size_t r = 0; r < sim->rsu_count(); ++r) {
      archive.reports.push_back(sim->rsu(r).make_report(archive.period));
    }
    vcps::save_archive(parser.get_string("out"), archive);
    std::printf(
        "simulated %llu vehicles across %zu RSUs over %llu period(s); "
        "wrote %s\n",
        static_cast<unsigned long long>(sim->vehicles_driven()),
        sim->rsu_count(), static_cast<unsigned long long>(periods),
        parser.get_string("out").c_str());
    std::printf("%s", obs::format_ingest_stats(ingest).c_str());
    // Period-close estimator health for the final period (the decode
    // path below prints its own pair-level line via the pipeline stats).
    std::printf("%s",
                obs::health::format_health_summary(sim->last_health()).c_str());
    if (parser.get_flag("decode-matrix") && sim->rsu_count() >= 2) {
      // Decode the archived period's matrix through the server — the
      // same estimate path vlm_analyze runs offline — and surface the
      // decode phase stats.
      const core::OdMatrix matrix = sim->server().estimate_matrix();
      std::printf("total estimated pairwise common traffic: %.0f\n",
                  matrix.total_estimated_common());
      std::printf(
          "%s", obs::format_decode_stats(sim->server().stats().decode).c_str());
    }
    std::printf("%s", obs::format_pipeline_stats(sim->scheme().name(),
                                                 sim->server().stats())
                          .c_str());
    if (!metrics_config.path.empty() && !traces.empty()) {
      // The optional decode (and its pair-health pass) ran after the last
      // period's snapshot was captured; refresh that snapshot so the
      // exported series carries the decode-side metrics. Snapshots are
      // cumulative, so the period spans and wall tiling are unchanged.
      traces.back().snapshot = obs::MetricsRegistry::global().snapshot();
    }
    write_metrics(metrics_config, ingest.workers, traces);
    metrics_guard.disarm();
    if (!trace_path.empty() &&
        obs::trace::write_chrome_trace(trace_path)) {
      std::printf("wrote chrome trace to %s\n", trace_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // The flight recorder's whole point is the failing run: flush
    // whatever the rings hold. (metrics_guard flushes on unwind.)
    if (!trace_path.empty()) obs::trace::write_chrome_trace(trace_path);
    return 1;
  }
}
