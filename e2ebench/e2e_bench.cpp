// e2e_bench — end-to-end benchmark of the vlm_simulate -> archive ->
// vlm_analyze --matrix path.
//
//   $ e2e_bench --workload zipf-ingest --seed 1 --seconds 20 --trace 0
//
// One process runs one workload at one seed. It repeats the whole path
// until --seconds have elapsed (at least three times; four when traced),
// making the same public library calls in the same order as the two
// tools: workload setup, VcpsSimulation construction, begin_period /
// drive_vehicles / end_period per period, make_report x K and
// save_archive (vlm_simulate), then load_archive, from_bytes +
// from_report x K, ReportValidator::assess x K, health::assess_rsus,
// estimate_od_matrix and health::assess_pairs (vlm_analyze --matrix).
// The tools' table and CSV printing is presentation and is left out.
//
// Every output is checked against the simulator's exact ground truth
// after the timed section of each repetition, outside every timing. The
// last stdout line is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. End-to-end timings are
// medians scaled to a fixed host speed, measured by a reference kernel
// that runs between repetitions. The traced run alternates
// untraced and traced repetitions, records a span around every call of
// the path, and writes the spans to a JSON file when it exits.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/bit_array.h"
#include "common/cli.h"
#include "common/csv.h"
#include "common/hashing.h"
#include "common/table.h"
#include "common/visited_mask.h"
#include "core/od_matrix.h"
#include "core/report_validator.h"
#include "core/scheme.h"
#include "obs/health.h"
#include "roadnet/assignment.h"
#include "roadnet/sioux_falls.h"
#include "roadnet/trajectory.h"
#include "span_log.h"
#include "traffic/multi_rsu_workload.h"
#include "vcps/archive.h"
#include "vcps/simulation.h"

namespace {

using namespace vlm;
using e2ebench::CallbackTimer;
using e2ebench::Clock;
using e2ebench::median;
using e2ebench::Scope;
using e2ebench::seconds_between;
using e2ebench::SpanLog;
using e2ebench::SpanRecord;

// Ingest and decode threads: one per core of the 4-core benchmark host.
constexpr unsigned kWorkers = 4;
// The library defaults both tools run with.
constexpr std::uint32_t kS = 2;
constexpr double kLoadFactor = 8.0;
constexpr double kZ = 1.96;
constexpr double kNominalCoverage = 0.95;
// Plausibility gates on the decoded matrix against exact ground truth.
// They catch a broken decode, not a drift: every workload sits far inside
// them (od_rel_err <= ~1, coverage >= ~0.9).
constexpr double kMaxOdRelErr = 1.5;
constexpr double kMinCoverage = 0.8;

// Environment variables that steer the code under test. A run with any
// of them set would not measure the default path, so it is refused.
constexpr const char* kSteeringVariables[] = {
    "VLM_KERNELS", "VLM_DECODE",  "VLM_INGEST",
    "VLM_INGEST_PIPELINE", "VLM_METRICS", "VLM_TRACE"};

struct WorkloadSpec {
  std::string name;
  bool zipf = true;               // MultiRsuWorkload; else Sioux Falls
  std::size_t rsus = 0;           // zipf only
  std::uint64_t vehicles = 0;     // zipf only, per period
  double scale = 1.0;             // Sioux Falls demand multiplier
  std::uint64_t periods = 1;
};

std::optional<WorkloadSpec> preset(const std::string& name) {
  if (name == "zipf-ingest") {
    return WorkloadSpec{name, true, 64, 8'000'000, 1.0, 3};
  }
  if (name == "zipf-city") {
    return WorkloadSpec{name, true, 1024, 2'000'000, 1.0, 1};
  }
  if (name == "sioux-falls") return WorkloadSpec{name, false, 0, 0, 20.0, 3};
  return std::nullopt;
}

// vlm_simulate's random-access provider over materialized road trips:
// trajectory streams are sequential (one RNG stream), so they are
// materialized once and the ingest reads them back by vehicle index.
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

// vlm_simulate's per-vehicle Zipf provider: itineraries are pure
// functions of the vehicle index, generated inside each ingest worker.
vcps::ItineraryProvider zipf_provider(const traffic::MultiRsuWorkload* workload,
                                      std::size_t rsu_count) {
  return [workload, rsu_count](std::uint64_t v,
                               std::vector<std::size_t>& positions) {
    thread_local common::VisitedMask visited(0);
    thread_local std::vector<std::uint32_t> rsus;
    if (visited.universe_size() != rsu_count) {
      visited = common::VisitedMask(rsu_count);
    }
    workload->itinerary(v, visited, rsus);
    positions.assign(rsus.begin(), rsus.end());
  };
}

// Traced repetitions time one provider call in kTimerStride on each
// thread and scale the sum back up: reading the clock around every call
// would cost about as much as the call itself.
constexpr std::uint64_t kTimerStride = 16;

vcps::ItineraryProvider timed(vcps::ItineraryProvider inner) {
  return [inner = std::move(inner)](std::uint64_t v,
                                    std::vector<std::size_t>& positions) {
    thread_local std::uint64_t calls = 0;
    if (++calls % kTimerStride != 0) {
      inner(v, positions);
      return;
    }
    const Clock::time_point start = Clock::now();
    inner(v, positions);
    CallbackTimer::instance().add_since(start);
  };
}

struct LoadedReport {
  core::RsuId id;
  core::RsuState state;
};

// Everything one repetition builds. Destroyed inside a timed span, as
// the tools pay for releasing it too.
struct World {
  std::unique_ptr<traffic::MultiRsuWorkload> zipf;
  MaterializedTrips trips;
  std::unique_ptr<vcps::VcpsSimulation> sim;
  vcps::ItineraryProvider itinerary;
  std::uint64_t vehicles_per_period = 0;
  vcps::PeriodArchive archive;  // as saved
  vcps::PeriodArchive loaded;   // as read back
  std::vector<LoadedReport> rsus;
  std::vector<core::ReportAssessment> assessments;
  obs::health::HealthSummary health;
  std::vector<core::RsuState> states;
  std::optional<core::OdMatrix> matrix;
  core::DecodeStats decode;
};

struct PeriodSample {
  double period_s = 0.0;  // begin_period + drive_vehicles + end_period
  double drive_s = 0.0;
  double itinerary_cpu_s = 0.0;  // traced repetitions only
  vcps::IngestStats ingest;
  std::size_t quarantined = 0;
};

struct Repetition {
  bool traced = false;
  double setup_s = 0.0;
  double to_matrix_s = 0.0;  // start of setup until matrix and health
  double time_to_matrix_s = 0.0;
  double teardown_s = 0.0;
  std::vector<PeriodSample> periods;
  core::DecodeStats decode;
  std::uint64_t archive_bytes = 0;
  std::vector<SpanRecord> spans;
  double leaf_s = 0.0;
  // Reference-host seconds per measured second (untraced runs only).
  double host_scale = 1.0;

  double wall_s() const { return to_matrix_s + teardown_s; }
};

struct Settings {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  std::string archive_path;
};

void build_world(const Settings& settings, std::uint64_t seed, World& w,
                 SpanLog* log) {
  const WorkloadSpec& spec = settings.spec;
  vcps::SimulationConfig config;
  config.seed = seed;
  core::SchemeOptions scheme_options;
  scheme_options.s = kS;
  scheme_options.load_factor = kLoadFactor;
  config.server.scheme = core::make_scheme("vlm", scheme_options);

  std::vector<vcps::RsuSite> sites;
  if (spec.zipf) {
    traffic::MultiRsuConfig workload_config;
    workload_config.rsu_count = spec.rsus;
    workload_config.vehicle_count = spec.vehicles;
    workload_config.seed = seed;
    {
      const Scope span(log, "traffic.workload");
      w.zipf = std::make_unique<traffic::MultiRsuWorkload>(workload_config);
    }
    {
      const Scope span(log, "traffic.ground_truth");
      w.zipf->for_each_vehicle(
          [](std::uint64_t, std::span<const std::uint32_t>) {});
    }
    {
      const Scope span(log, "vcps.sim_setup");
      for (std::size_t r = 0; r < spec.rsus; ++r) {
        sites.push_back(vcps::RsuSite{
            core::RsuId{r + 1},
            static_cast<double>(w.zipf->node_volumes()[r])});
      }
      w.sim = std::make_unique<vcps::VcpsSimulation>(config, sites);
    }
    w.itinerary = zipf_provider(w.zipf.get(), spec.rsus);
    w.vehicles_per_period = spec.vehicles;
  } else {
    roadnet::Graph graph;
    roadnet::TripTable trips(2);
    {
      const Scope span(log, "roadnet.network");
      graph = roadnet::sioux_falls_network();
      trips = roadnet::sioux_falls_trip_table();
      if (spec.scale != 1.0) trips.scale(spec.scale);
    }
    std::optional<roadnet::AssignmentResult> assignment;
    {
      const Scope span(log, "roadnet.assign");
      assignment.emplace(roadnet::assign(graph, trips));
    }
    {
      const Scope span(log, "vcps.sim_setup");
      for (roadnet::NodeIndex n = 0; n < graph.node_count(); ++n) {
        sites.push_back(vcps::RsuSite{core::RsuId{n + 1u},
                                      assignment->expected_node_volume(n)});
      }
      w.sim = std::make_unique<vcps::VcpsSimulation>(config, sites);
    }
    {
      const Scope span(log, "roadnet.trajectories");
      w.trips = materialize_network_workload(*assignment, graph.node_count(),
                                             seed);
    }
    w.itinerary = w.trips.provider();
    w.vehicles_per_period = w.trips.vehicle_count();
  }
  if (log) w.itinerary = timed(std::move(w.itinerary));
}

// vlm_simulate's archive step, then vlm_analyze --matrix.
void archive_and_analyze(const Settings& settings, World& w, SpanLog* log) {
  {
    const Scope phase(log, "bench.archive");
    w.archive.period = w.sim->current_period();
    {
      const Scope span(log, "vcps.make_report");
      for (std::size_t r = 0; r < w.sim->rsu_count(); ++r) {
        w.archive.reports.push_back(
            w.sim->rsu(r).make_report(w.archive.period));
      }
    }
    {
      const Scope span(log, "vcps.archive_save");
      vcps::save_archive(settings.archive_path, w.archive);
    }
  }
  const Scope phase(log, "bench.analyze");
  {
    const Scope span(log, "vcps.archive_load");
    w.loaded = vcps::load_archive(settings.archive_path);
  }
  {
    const Scope span(log, "core.rebuild");
    w.rsus.reserve(w.loaded.reports.size());
    for (const vcps::RsuReport& report : w.loaded.reports) {
      w.rsus.push_back(LoadedReport{
          report.rsu,
          core::RsuState::from_report(
              report.counter,
              common::BitArray::from_bytes(report.array_size, report.bits))});
    }
    std::sort(w.rsus.begin(), w.rsus.end(),
              [](const LoadedReport& a, const LoadedReport& b) {
                return a.id < b.id;
              });
  }
  {
    const Scope span(log, "core.validate");
    const core::ReportValidator validator(6.0);
    w.assessments.reserve(w.rsus.size());
    for (const LoadedReport& r : w.rsus) {
      w.assessments.push_back(validator.assess(r.state));
    }
  }
  obs::health::HealthOptions health_options;
  health_options.s = kS;
  {
    const Scope span(log, "obs.assess_rsus");
    std::vector<const core::RsuState*> state_ptrs;
    state_ptrs.reserve(w.rsus.size());
    for (const LoadedReport& r : w.rsus) state_ptrs.push_back(&r.state);
    w.health = obs::health::assess_rsus(
        std::span<const core::RsuState* const>(state_ptrs), health_options);
  }
  if (w.rsus.size() < 2) return;
  {
    const Scope span(log, "core.copy_states");
    w.states.reserve(w.rsus.size());
    for (const LoadedReport& r : w.rsus) w.states.push_back(r.state);
  }
  {
    const Scope span(log, "core.decode");
    core::DecodeOptions decode_options;
    decode_options.workers = kWorkers;
    decode_options.mode = core::DecodeMode::kAuto;
    w.matrix.emplace(core::estimate_od_matrix(w.states, kS, kZ, decode_options,
                                              &w.decode));
  }
  {
    const Scope span(log, "obs.assess_pairs");
    obs::health::assess_pairs(w.states, *w.matrix, health_options, w.health);
  }
}

// ---------------------------------------------------------------------------
// Output checks (run after the timed section, outside every timing).

struct CheckTotals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::uint64_t count, const std::string& what) {
    failed += count;
    if (problems.size() < 20) problems.push_back(what);
  }
};

// What must repeat exactly between repetitions of one input seed.
struct Fingerprint {
  std::vector<std::uint64_t> exchanges;  // per period
  std::size_t pairs_decoded = 0;
  std::uint64_t archive_digest = 0;
  std::uint64_t truth_digest = 0;

  bool operator==(const Fingerprint&) const = default;
};

// Decoded matrix against exact ground truth, summed over pairs (and over
// repetitions, when pooled).
struct Accuracy {
  double abs_err = 0.0;     // sum of |n_c_hat - n_c|
  double true_total = 0.0;  // sum of n_c
  std::uint64_t covered = 0;  // pairs whose interval holds n_c
  std::uint64_t pairs = 0;

  double od_rel_err() const {
    return true_total > 0.0 ? abs_err / true_total : 0.0;
  }
  double coverage() const {
    return pairs > 0 ? static_cast<double>(covered) / static_cast<double>(pairs)
                     : 0.0;
  }
  void add(const Accuracy& other) {
    abs_err += other.abs_err;
    true_total += other.true_total;
    covered += other.covered;
    pairs += other.pairs;
  }
};

// Exact pairwise common volumes, row-major K x K (upper triangle used).
std::vector<std::uint64_t> ground_truth(const World& w, std::size_t k) {
  std::vector<std::uint64_t> truth(k * k, 0);
  if (w.zipf) {
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        truth[a * k + b] = w.zipf->pair_volume(static_cast<std::uint32_t>(a),
                                               static_cast<std::uint32_t>(b));
      }
    }
    return truth;
  }
  std::vector<std::size_t> nodes;
  for (std::uint64_t v = 0; v < w.trips.vehicle_count(); ++v) {
    nodes.assign(
        w.trips.flat.begin() + static_cast<std::ptrdiff_t>(w.trips.offsets[v]),
        w.trips.flat.begin() +
            static_cast<std::ptrdiff_t>(w.trips.offsets[v + 1]));
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        ++truth[nodes[i] * k + nodes[j]];
      }
    }
  }
  return truth;
}

std::uint64_t digest(const std::vector<std::uint64_t>& values) {
  std::uint64_t h = common::mix64(values.size());
  for (std::uint64_t value : values) h = common::mix64(h ^ value);
  return h;
}

std::uint64_t archive_digest(const vcps::PeriodArchive& archive) {
  std::uint64_t h = common::mix64(archive.period ^ archive.reports.size());
  for (const vcps::RsuReport& r : archive.reports) {
    h = common::mix64(h ^ r.rsu.value) ^
        common::mix64(r.counter + r.array_size);
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < r.bits.size(); ++i) {
      word = (word << 8) | r.bits[i];
      if (i % 8 == 7) h = common::mix64(h ^ word);
    }
    h = common::mix64(h ^ word ^ r.bits.size());
  }
  return h;
}

bool same_archive(const vcps::PeriodArchive& a, const vcps::PeriodArchive& b) {
  if (a.period != b.period || a.reports.size() != b.reports.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const vcps::RsuReport& x = a.reports[i];
    const vcps::RsuReport& y = b.reports[i];
    if (x.rsu != y.rsu || x.period != y.period || x.counter != y.counter ||
        x.array_size != y.array_size || x.bits != y.bits) {
      return false;
    }
  }
  return true;
}

Accuracy check_repetition(const World& w, const Repetition& rep,
                          std::size_t k, CheckTotals& totals,
                          Fingerprint& fingerprint) {
  // Reports closed: one per RSU per period; quarantine is a failure.
  for (const PeriodSample& period : rep.periods) {
    totals.attempted += k;
    if (period.quarantined > 0) {
      totals.fail(period.quarantined,
                  std::to_string(period.quarantined) +
                      " report(s) quarantined");
    }
    fingerprint.exchanges.push_back(period.ingest.exchanges);
  }
  // Archive round trip: what was loaded is what was saved.
  totals.attempted += 1;
  if (!same_archive(w.archive, w.loaded)) {
    totals.fail(1, "archive save/load round trip differs");
  }
  fingerprint.archive_digest = archive_digest(w.loaded);

  // Pair cells: finite, and compared against exact ground truth.
  Accuracy accuracy;
  const std::size_t pairs = k * (k - 1) / 2;
  totals.attempted += pairs;
  if (!w.matrix || w.matrix->measured_pairs() != pairs ||
      w.decode.pairs_decoded != pairs) {
    totals.fail(pairs, "decode did not measure all " + std::to_string(pairs) +
                           " pairs");
    return accuracy;
  }
  for (std::size_t i = 0; i < w.rsus.size(); ++i) {
    if (w.rsus[i].id.value != i + 1) {
      totals.fail(pairs, "archive RSU ids are not 1..K");
      return accuracy;
    }
  }
  fingerprint.pairs_decoded = w.decode.pairs_decoded;
  const std::vector<std::uint64_t> truth = ground_truth(w, k);
  fingerprint.truth_digest = digest(truth);
  std::size_t nonfinite = 0;
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b) {
      const core::EstimateInterval& e = w.matrix->at(a, b);
      if (!std::isfinite(e.n_c_hat) || !std::isfinite(e.lower) ||
          !std::isfinite(e.upper) || !std::isfinite(e.stddev)) {
        ++nonfinite;
        continue;
      }
      const auto n_c = static_cast<double>(truth[a * k + b]);
      accuracy.abs_err += std::fabs(e.n_c_hat - n_c);
      accuracy.true_total += n_c;
      if (e.lower <= n_c && n_c <= e.upper) ++accuracy.covered;
    }
  }
  accuracy.pairs = pairs;
  if (nonfinite > 0) {
    totals.fail(nonfinite, std::to_string(nonfinite) + " non-finite cell(s)");
  }
  totals.attempted += 1;
  if (accuracy.od_rel_err() > kMaxOdRelErr ||
      accuracy.coverage() < kMinCoverage) {
    char what[128];
    std::snprintf(what, sizeof what,
                  "implausible matrix: od_rel_err %.4g, coverage %.4g",
                  accuracy.od_rel_err(), accuracy.coverage());
    totals.fail(1, what);
  }
  return accuracy;
}

// ---------------------------------------------------------------------------

// vlm_analyze --matrix --csv's columns, one row per pair, in pair order.
void write_matrix_csv(const std::string& path, const World& w) {
  common::CsvWriter csv(path, {"rsu_a", "rsu_b", "estimate", "lower", "upper",
                               "stddev", "degraded", "measured"});
  for (std::size_t a = 0; a < w.rsus.size(); ++a) {
    for (std::size_t b = a + 1; b < w.rsus.size(); ++b) {
      const core::EstimateInterval& e = w.matrix->at(a, b);
      csv.add_row({std::to_string(w.rsus[a].id.value),
                   std::to_string(w.rsus[b].id.value),
                   common::TextTable::fmt(e.n_c_hat, 2),
                   common::TextTable::fmt(e.lower, 2),
                   common::TextTable::fmt(e.upper, 2),
                   common::TextTable::fmt(e.stddev, 2), e.degraded ? "1" : "0",
                   w.matrix->measured(a, b) ? "1" : "0"});
    }
  }
}

// Input seed of a run's j-th distinct input set. The first is the run's
// --seed itself, so a one-repetition run sees exactly what the tools see
// at that seed. Later ones give the accuracy metrics more independent
// realizations than one decode of a few hundred pairs holds.
std::uint64_t repetition_seed(std::uint64_t seed, std::int64_t j) {
  return seed + static_cast<std::uint64_t>(j) * 0x9E3779B97F4A7C15ull;
}

// ---------------------------------------------------------------------------
// Host-speed reference.
//
// The benchmark host is a VM on a shared machine whose speed drifts by
// 10-30% over minutes as other tenants load it. A fixed kernel that is not
// part of the program runs before every repetition and after the last.
// The mean of the two timings around a repetition measures the host's
// speed during it, and that repetition's end-to-end timings are scaled by
// the square root of kReferenceSeconds / that mean. The root halves the
// correction: the program's timings moved 0.3 to 1 times as much as the
// kernel's, and the full ratio overcorrected the workloads at the low end.
//
// The kernel is single-threaded: 64-bit mixing, random read-modify-writes
// and a sequential sweep over a 64 MB table. A second pass on kWorkers
// threads at once reacted to the other tenants' memory traffic two to three
// times as strongly as the program does, and made the scaled timings
// noisier. The kernel runs in a child process (this program with
// --reference-kernel 1), so its table never counts in the benchmark's own
// peak resident set.

// The kernel's time on an unloaded 4-vCPU Xeon host. Only a scale: it
// makes the scaled timings read as seconds at that host's speed.
constexpr double kReferenceSeconds = 0.08;
constexpr std::size_t kReferenceWords = std::size_t{1} << 23;  // 64 MB
constexpr std::uint64_t kReferenceSteps = 3'000'000;
// Keeps the kernel's result live, so the compiler cannot drop the work.
volatile std::uint64_t reference_sink = 0;

// One timing of the reference kernel, in seconds. The table is filled
// before the clock starts.
double reference_kernel_seconds() {
  std::vector<std::uint64_t> table(kReferenceWords, 1);
  const Clock::time_point start = Clock::now();
  std::uint64_t h = 1;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < kReferenceSteps; ++i) {
    h = common::mix64(h + i);
    std::uint64_t& slot = table[h & (kReferenceWords - 1)];
    acc += slot;
    slot ^= h;
  }
  for (std::size_t i = 0; i < kReferenceWords; i += 2) acc += table[i];
  const double seconds = seconds_between(start, Clock::now());
  reference_sink = acc;
  return seconds;
}

// Runs the reference kernel in a child process and returns its timing.
double reference_seconds() {
  int out[2];
  if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  char self[] = "/proc/self/exe";
  char flag[] = "--reference-kernel";
  char one[] = "1";
  char* argv[] = {self, flag, one, nullptr};
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, self, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  std::string text;
  if (spawned == 0) {
    char buffer[256];
    ssize_t n = 0;
    while ((n = ::read(out[0], buffer, sizeof buffer)) > 0) {
      text.append(buffer, static_cast<std::size_t>(n));
    }
  }
  ::close(out[0]);
  int status = 0;
  if (spawned != 0 || ::waitpid(pid, &status, 0) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("reference kernel process failed");
  }
  return std::stod(text);
}

// Runs the path once on the inputs of `input_seed`. Outputs are checked
// against ground truth; a repetition whose input seed ran before must
// reproduce that run's counts, archive and truth exactly.
Repetition run_repetition(const Settings& settings, std::uint64_t input_seed,
                          bool traced, const std::string& matrix_csv,
                          CheckTotals& totals,
                          std::map<std::uint64_t, Fingerprint>& fingerprints,
                          Accuracy& pooled) {
  Repetition rep;
  rep.traced = traced;
  const Clock::time_point start = Clock::now();
  SpanLog span_log(start);
  SpanLog* log = traced ? &span_log : nullptr;
  auto world = std::make_unique<World>();
  World& w = *world;
  Clock::time_point last_close_start = start;
  {
    const Scope root(log, "bench.repetition");
    {
      const Scope phase(log, "bench.setup");
      build_world(settings, input_seed, w, log);
    }
    rep.setup_s = seconds_between(start, Clock::now());
    if (traced) CallbackTimer::instance().drain_seconds();
    for (std::uint64_t p = 0; p < settings.spec.periods; ++p) {
      const Scope phase(log, "bench.period");
      PeriodSample sample;
      const Clock::time_point t0 = Clock::now();
      {
        const Scope span(log, "vcps.begin_period");
        w.sim->begin_period();
      }
      const Clock::time_point t1 = Clock::now();
      {
        const Scope span(log, "vcps.drive_vehicles");
        sample.ingest = w.sim->drive_vehicles(w.vehicles_per_period,
                                              w.itinerary, kWorkers);
      }
      const Clock::time_point t2 = Clock::now();
      last_close_start = t2;
      {
        const Scope span(log, "vcps.end_period");
        w.sim->end_period();
      }
      const Clock::time_point t3 = Clock::now();
      sample.period_s = seconds_between(t0, t3);
      sample.drive_s = seconds_between(t1, t2);
      sample.quarantined = w.sim->server().quarantined_count();
      if (traced) {
        sample.itinerary_cpu_s =
            CallbackTimer::instance().drain_seconds() * kTimerStride;
      }
      rep.periods.push_back(sample);
    }
    archive_and_analyze(settings, w, log);
  }
  const Clock::time_point done = Clock::now();
  rep.to_matrix_s = seconds_between(start, done);
  rep.time_to_matrix_s = seconds_between(last_close_start, done);
  rep.decode = w.decode;
  std::error_code ec;
  rep.archive_bytes = std::filesystem::file_size(settings.archive_path, ec);

  const std::size_t k = w.sim->rsu_count();
  Fingerprint mine;
  const Accuracy accuracy = check_repetition(w, rep, k, totals, mine);
  const auto [seen, first] = fingerprints.try_emplace(input_seed, mine);
  if (first) {
    pooled.add(accuracy);
  } else {
    totals.attempted += 1;
    if (!(mine == seen->second)) {
      totals.fail(1, "counts, archive or ground truth differ between "
                     "repetitions of one input seed");
    }
  }

  if (!matrix_csv.empty() && w.matrix) write_matrix_csv(matrix_csv, w);

  const Clock::time_point teardown = Clock::now();
  {
    const Scope span(log, "bench.teardown");
    world.reset();
  }
  rep.teardown_s = seconds_between(teardown, Clock::now());
  rep.spans = span_log.spans();
  rep.leaf_s = span_log.leaf_seconds();
  return rep;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::optional<double> unscaled;  // printed beside the value, not reported
};

// Per-layer metrics, in output order. Layers a workload never runs read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_schema() {
  static const std::vector<std::pair<std::string, std::string>> schema = {
      {"roadnet.network_s", "s"},
      {"roadnet.assign_s", "s"},
      {"roadnet.trajectories_s", "s"},
      {"traffic.workload_s", "s"},
      {"traffic.ground_truth_s", "s"},
      {"vcps.sim_setup_s", "s"},
      {"traffic.itinerary_cpu_s", "s"},
      {"vcps.begin_period_s", "s"},
      {"vcps.drive_vehicles_s", "s"},
      {"vcps.exchanges", "count"},
      {"vcps.ingest.materialize_cpu_s", "s"},
      {"vcps.ingest.hash_cpu_s", "s"},
      {"vcps.ingest.scatter_cpu_s", "s"},
      {"vcps.end_period_s", "s"},
      {"vcps.make_report_s", "s"},
      {"vcps.archive_save_s", "s"},
      {"vcps.archive_load_s", "s"},
      {"vcps.archive_mb", "MB"},
      {"core.rebuild_s", "s"},
      {"core.validate_s", "s"},
      {"core.copy_states_s", "s"},
      {"core.decode_s", "s"},
      {"core.decode_pairs_per_s", "1/s"},
      {"core.decode_sweep_s", "s"},
      {"core.decode_estimate_s", "s"},
      {"core.decode_words_scanned", "count"},
      {"obs.assess_rsus_s", "s"},
      {"obs.assess_pairs_s", "s"},
      {"common.pool_dispatches", "count"},
      {"bench.teardown_s", "s"},
      {"bench.untimed_s", "s"},
      {"bench.span_coverage", "ratio"},
      {"bench.trace_overhead_s", "s"},
  };
  return schema;
}

bool is_period_span(const std::string& name) {
  return name == "vcps.begin_period" || name == "vcps.drive_vehicles" ||
         name == "vcps.end_period";
}

// Timings are medians over the run's repetitions (or over all their
// periods) of each repetition's timing scaled to the reference host's
// speed. The printed value beside each is the median of the unscaled ones.
std::vector<Metric> end_to_end_metrics(const std::vector<Repetition>& reps,
                                       const Accuracy& accuracy) {
  struct Samples {
    std::vector<double> scaled, unscaled;
    void add(double value, double scale) {
      scaled.push_back(value * scale);
      unscaled.push_back(value);
    }
  };
  Samples setup, wall, to_matrix, period, rate;
  for (const Repetition& rep : reps) {
    setup.add(rep.setup_s, rep.host_scale);
    wall.add(rep.wall_s(), rep.host_scale);
    to_matrix.add(rep.time_to_matrix_s, rep.host_scale);
    for (const PeriodSample& p : rep.periods) {
      period.add(p.period_s, rep.host_scale);
      rate.add(static_cast<double>(p.ingest.vehicles) / p.drive_s,
               1.0 / rep.host_scale);
    }
  }
  const auto metric = [](std::string name, std::string unit,
                         const Samples& s) {
    return Metric{std::move(name), std::move(unit), median(s.scaled),
                  median(s.unscaled)};
  };
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      metric("setup_s", "s", setup),
      metric("wall_s", "s", wall),
      metric("period_s", "s", period),
      metric("ingest_vehicles_per_s", "1/s", rate),
      metric("time_to_matrix_s", "s", to_matrix),
      {"peak_rss_mb", "MB",
       static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6, std::nullopt},
      {"od_rel_err", "ratio", accuracy.od_rel_err(), std::nullopt},
      {"interval_coverage", "ratio", accuracy.coverage(), std::nullopt},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<Repetition>& reps) {
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> traced_wall, untraced_wall;
  for (const Repetition& rep : reps) {
    if (!rep.traced) {
      untraced_wall.push_back(rep.wall_s());
      continue;
    }
    traced_wall.push_back(rep.wall_s());
    std::map<std::string, double> per_rep;
    for (const SpanRecord& span : rep.spans) {
      if (!span.leaf) continue;
      if (is_period_span(span.name)) {
        samples[span.name + "_s"].push_back(span.seconds());
      } else {
        per_rep[span.name + "_s"] += span.seconds();
      }
    }
    for (const auto& [name, value] : per_rep) samples[name].push_back(value);
    std::uint64_t dispatches = rep.decode.pool_dispatches;
    for (const PeriodSample& p : rep.periods) {
      const vcps::IngestStats& ingest = p.ingest;
      samples["traffic.itinerary_cpu_s"].push_back(p.itinerary_cpu_s);
      samples["vcps.exchanges"].push_back(
          static_cast<double>(ingest.exchanges));
      samples["vcps.ingest.materialize_cpu_s"].push_back(
          ingest.materialize_seconds);
      samples["vcps.ingest.hash_cpu_s"].push_back(ingest.hash_seconds);
      samples["vcps.ingest.scatter_cpu_s"].push_back(ingest.scatter_seconds);
      dispatches += ingest.pool_dispatches;
    }
    samples["common.pool_dispatches"].push_back(
        static_cast<double>(dispatches));
    samples["vcps.archive_mb"].push_back(
        static_cast<double>(rep.archive_bytes) / 1e6);
    samples["core.decode_pairs_per_s"].push_back(rep.decode.pairs_per_second());
    samples["core.decode_sweep_s"].push_back(rep.decode.sweep_seconds);
    samples["core.decode_estimate_s"].push_back(rep.decode.estimate_seconds);
    samples["core.decode_words_scanned"].push_back(
        static_cast<double>(rep.decode.words_scanned));
    samples["bench.untimed_s"].push_back(rep.wall_s() - rep.leaf_s);
    samples["bench.span_coverage"].push_back(rep.leaf_s / rep.wall_s());
  }
  samples["bench.trace_overhead_s"].push_back(median(traced_wall) -
                                              median(untraced_wall));
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_schema()) {
    const auto it = samples.find(name);
    out.push_back({name, unit, it == samples.end() ? 0.0 : median(it->second),
                   std::nullopt});
  }
  return out;
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string host_json(const std::vector<Repetition>& reps) {
  const char* ingest_isa = "none";
  const char* decode_isa = "none";
  if (!reps.empty()) {
    if (!reps.front().periods.empty()) {
      ingest_isa = reps.front().periods.front().ingest.kernel_isa;
    }
    decode_isa = reps.front().decode.kernel_isa;
  }
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"workers\": " + std::to_string(kWorkers) +
         ", \"ingest_kernel_isa\": " + json_string(ingest_isa) +
         ", \"decode_kernel_isa\": " + json_string(decode_isa) +
         ", \"build_type\": " + json_string(VLM_BENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(compiler_name()) + "}";
}

void write_trace(const std::string& path, const std::string& host,
                 const Settings& settings,
                 const std::vector<Repetition>& reps) {
  std::ofstream out(path);
  out << "{\"host\": " << host << ",\n \"workload\": "
      << json_string(settings.spec.name) << ", \"seed\": " << settings.seed
      << ",\n \"repetitions\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Repetition& rep = reps[i];
    out << (i ? ",\n  " : "\n  ") << "{\"traced\": "
        << (rep.traced ? "true" : "false")
        << ", \"wall_s\": " << json_number(rep.wall_s()) << ", \"spans\": [";
    for (std::size_t j = 0; j < rep.spans.size(); ++j) {
      const SpanRecord& span = rep.spans[j];
      out << (j ? ",\n   " : "\n   ") << "{\"name\": " << json_string(span.name)
          << ", \"start_s\": " << json_number(span.start_s)
          << ", \"end_s\": " << json_number(span.end_s)
          << ", \"parent\": " << span.parent << "}";
    }
    out << "]}";
  }
  out << "\n ]\n}\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser parser("e2e_bench",
                           "end-to-end benchmark of simulate -> archive -> "
                           "analyze");
  parser.add_string("workload", "", "zipf-ingest | zipf-city | sioux-falls");
  parser.add_int("seed", 1, "workload seed");
  parser.add_double("seconds", 10.0, "measure for this long");
  parser.add_int("trace", 0, "1 = traced run (per-layer metrics)");
  parser.add_int("repetitions", 0,
                 "run exactly this many repetitions (0 = until --seconds)");
  parser.add_int("rsus", 0, "override the preset's RSU count (zipf)");
  parser.add_int("vehicles", 0, "override the preset's vehicles (zipf)");
  parser.add_int("periods", 0, "override the preset's period count");
  parser.add_double("scale", 0.0, "override the preset's demand scale (road)");
  parser.add_int("reference-kernel", 0,
                 "1 = time the host-speed reference kernel once and exit");
  parser.add_string("work-dir", ".", "directory for the archive and trace");
  parser.add_string("archive-out", "",
                    "keep the archive here (default: a temporary file in "
                    "--work-dir, removed at exit)");
  parser.add_string("matrix-csv", "",
                    "write the first repetition's matrix in vlm_analyze's "
                    "--csv columns");
  try {
    if (!parser.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (parser.get_int("reference-kernel") != 0) {
    std::printf("%.9f\n", reference_kernel_seconds());
    return 0;
  }
  for (const char* variable : kSteeringVariables) {
    if (std::getenv(variable) != nullptr) {
      std::fprintf(stderr,
                   "error: %s is set; it steers the code under test, so the "
                   "benchmark refuses to run\n",
                   variable);
      return 2;
    }
  }
  const std::optional<WorkloadSpec> found =
      preset(parser.get_string("workload"));
  if (!found) {
    std::fprintf(stderr, "error: unknown --workload '%s'\n",
                 parser.get_string("workload").c_str());
    return 2;
  }
  Settings settings;
  settings.spec = *found;
  if (parser.get_int("rsus") > 0) {
    settings.spec.rsus = static_cast<std::size_t>(parser.get_int("rsus"));
  }
  if (parser.get_int("vehicles") > 0) {
    settings.spec.vehicles =
        static_cast<std::uint64_t>(parser.get_int("vehicles"));
  }
  if (parser.get_int("periods") > 0) {
    settings.spec.periods =
        static_cast<std::uint64_t>(parser.get_int("periods"));
  }
  if (parser.get_double("scale") > 0.0) {
    settings.spec.scale = parser.get_double("scale");
  }
  settings.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  const bool traced = parser.get_int("trace") != 0;
  const double seconds = parser.get_double("seconds");
  const auto fixed_repetitions = parser.get_int("repetitions");
  const std::string work_dir = parser.get_string("work-dir");
  const std::string matrix_csv = parser.get_string("matrix-csv");
  const std::string tag =
      settings.spec.name + "-seed" + std::to_string(settings.seed);
  const bool keep_archive = !parser.get_string("archive-out").empty();
  settings.archive_path = keep_archive
                              ? parser.get_string("archive-out")
                              : work_dir + "/archive-" + tag + "-" +
                                    std::to_string(::getpid()) + ".bin";

  CheckTotals totals;
  std::map<std::uint64_t, Fingerprint> fingerprints;
  Accuracy accuracy;
  std::vector<Repetition> reps;
  std::vector<double> reference;  // untraced runs only
  bool aborted = false;
  const Clock::time_point run_start = Clock::now();
  try {
    // Past the minimum, a repetition starts only if one more like the
    // last, with its reference timing, still ends within --seconds.
    const std::int64_t min_reps = traced ? 4 : 3;
    for (std::int64_t i = 0;; ++i) {
      const double elapsed = seconds_between(run_start, Clock::now());
      if (fixed_repetitions > 0
              ? i >= fixed_repetitions
              : i >= min_reps &&
                    elapsed + reps.back().wall_s() +
                            (reference.empty() ? 0.0 : reference.back()) >
                        seconds) {
        break;
      }
      // Traced runs alternate untraced and traced repetitions on the same
      // inputs, so the difference of their walls is the tracing overhead.
      const bool trace_this = traced && i % 2 == 1;
      const std::uint64_t input_seed = repetition_seed(
          settings.seed, traced ? i / 2 : std::max<std::int64_t>(0, i - 1));
      if (!traced) reference.push_back(reference_seconds());
      reps.push_back(run_repetition(settings, input_seed, trace_this,
                                    i == 0 ? matrix_csv : std::string(),
                                    totals, fingerprints, accuracy));
      const Repetition& rep = reps.back();
      std::printf("repetition %lld%s: setup %.4f s, wall %.4f s, "
                  "time to matrix %.4f s, drive_vehicles per period:",
                  static_cast<long long>(i), rep.traced ? " (traced)" : "",
                  rep.setup_s, rep.wall_s(), rep.time_to_matrix_s);
      for (const PeriodSample& p : rep.periods) {
        std::printf(" %.4f s", p.drive_s);
      }
      std::printf("\n");
    }
    if (!traced) reference.push_back(reference_seconds());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    totals.fail(1, std::string("repetition threw: ") + e.what());
    totals.attempted += 1;
    aborted = true;
  }
  if (!keep_archive) {
    std::error_code ec;
    std::filesystem::remove(settings.archive_path, ec);
  }

  const std::string host = host_json(reps);
  std::printf("host %s\n", host.c_str());
  std::printf("workload %s seed %llu: %zu repetition(s) over %zu input "
              "set(s), %llu period(s) each, %s\n",
              settings.spec.name.c_str(),
              static_cast<unsigned long long>(settings.seed), reps.size(),
              fingerprints.size(),
              static_cast<unsigned long long>(settings.spec.periods),
              traced ? "traced" : "untraced");

  bool tiled = true;
  std::vector<Metric> metrics;
  if (!aborted && !reps.empty()) {
    if (traced) {
      for (const Repetition& rep : reps) {
        if (!rep.traced) continue;
        const double coverage = rep.leaf_s / rep.wall_s();
        std::printf("tiling: spans cover %.2f%% of %.4f s wall; %.4f s "
                    "uncovered\n",
                    100.0 * coverage, rep.wall_s(), rep.wall_s() - rep.leaf_s);
        if (coverage < 0.95) tiled = false;
      }
      if (!tiled) {
        std::printf("tiling gate FAILED: spans cover < 95%% of wall\n");
      }
      metrics = per_layer_metrics(reps);
      const std::string trace_path = work_dir + "/trace-" + tag + ".json";
      write_trace(trace_path, host, settings, reps);
      std::printf("wrote spans to %s\n", trace_path.c_str());
    } else {
      std::vector<double> scales;
      for (std::size_t i = 0; i < reps.size(); ++i) {
        reps[i].host_scale = std::sqrt(
            kReferenceSeconds / (0.5 * (reference[i] + reference[i + 1])));
        scales.push_back(reps[i].host_scale);
      }
      std::printf("host speed: reference kernel median %.5f s over %zu "
                  "timings (%.5f s at the reference speed); repetitions "
                  "scaled by %.4f (median), %.4f to %.4f\n",
                  median(reference), reference.size(), kReferenceSeconds,
                  median(scales),
                  *std::min_element(scales.begin(), scales.end()),
                  *std::max_element(scales.begin(), scales.end()));
      metrics = end_to_end_metrics(reps, accuracy);
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.unscaled) std::printf(" (unscaled %.6g)", *m.unscaled);
    std::printf("\n");
  }
  if (!traced && !metrics.empty()) {
    // Reported, not gated: with a few hundred to a few thousand pairs its
    // run-to-run spread across seeds is about its own size.
    std::printf("  %-32s %16.6g ratio\n", "interval_coverage_gap",
                std::fabs(accuracy.coverage() - kNominalCoverage));
  }
  const double failed_fraction =
      totals.attempted > 0 ? static_cast<double>(totals.failed) /
                                 static_cast<double>(totals.attempted)
                           : 1.0;
  std::printf("  %-32s %16.6g (%llu of %llu operations)\n", "failed_fraction",
              failed_fraction, static_cast<unsigned long long>(totals.failed),
              static_cast<unsigned long long>(totals.attempted));
  for (const std::string& problem : totals.problems) {
    std::printf("check FAILED: %s\n", problem.c_str());
  }
  const bool correct = !aborted && totals.failed == 0 && tiled;

  std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " +
      std::to_string(std::max<std::uint64_t>(1, totals.attempted)) +
      ", \"failed\": " + std::to_string(totals.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result += (i ? ", " : "") + json_string(metrics[i].name) +
              ": {\"value\": " + json_number(metrics[i].value) +
              ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
