#include "vcps/event_sim.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/hashing.h"
#include "core/pair_simulation.h"
#include "common/require.h"

namespace vlm::vcps {

namespace {

struct VehicleRun {
  core::VehicleIdentity identity;
  const std::vector<std::size_t>* route;
  std::size_t next_stop = 0;
  std::uint64_t last_answered_rsu = ~std::uint64_t{0};
};

struct Event {
  double time;
  std::size_t vehicle;  // index into the run table
  bool operator>(const Event& other) const { return time > other.time; }
};

double exponential(common::Xoshiro256ss& rng, double mean) {
  return -mean * std::log(std::max(rng.uniform_double(), 1e-15));
}

}  // namespace

EventSimulation::EventSimulation(const EventSimConfig& config,
                                 std::span<const std::size_t> array_sizes)
    : config_(config) {
  VLM_REQUIRE(!array_sizes.empty(), "need at least one RSU");
  VLM_REQUIRE(config.period_seconds > 0.0 &&
                  config.query_interval_seconds > 0.0 &&
                  config.mean_dwell_seconds > 0.0 &&
                  config.mean_link_travel_seconds >= 0.0,
              "timing parameters must be positive");
  rsus_.reserve(array_sizes.size());
  for (std::size_t i = 0; i < array_sizes.size(); ++i) {
    rsus_.push_back(EventSimRsu{core::RsuId{i + 1}, core::RsuState(array_sizes[i]),
                                0, 0});
  }
}

void EventSimulation::add_flow(std::span<const std::size_t> route,
                               std::uint64_t count) {
  VLM_REQUIRE(!ran_, "cannot add flows after run()");
  VLM_REQUIRE(!route.empty(), "a flow needs at least one stop");
  for (std::size_t stop : route) {
    VLM_REQUIRE(stop < rsus_.size(), "route stop out of range");
  }
  flows_.push_back(Flow{{route.begin(), route.end()}, count});
}

void EventSimulation::run() {
  VLM_REQUIRE(!ran_, "simulation already ran");
  VLM_REQUIRE(!flows_.empty(), "no flows scheduled");
  ran_ = true;

  const core::Encoder encoder(config_.encoder);
  common::Xoshiro256ss rng(config_.seed);

  // Materialize vehicles with Poisson entry times (uniform order
  // statistics over the period are equivalent and simpler).
  std::vector<VehicleRun> vehicles;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t vehicle_counter = 0;
  for (const Flow& flow : flows_) {
    for (std::uint64_t v = 0; v < flow.count; ++v) {
      VehicleRun run;
      run.identity = core::synthetic_vehicle(config_.seed, ++vehicle_counter);
      run.route = &flow.route;
      vehicles.push_back(run);
      queue.push(Event{rng.uniform_double() * config_.period_seconds,
                       vehicles.size() - 1});
    }
  }
  stats_.vehicles_entered = vehicles.size();

  // Each event: the vehicle arrives at its next stop, dwells, hears the
  // broadcasts whose ticks fall inside the dwell window, replies per
  // policy, then departs toward the following stop.
  while (!queue.empty()) {
    const Event event = queue.top();
    queue.pop();
    if (event.time >= config_.period_seconds) continue;  // period over
    VehicleRun& vehicle = vehicles[event.vehicle];
    const std::size_t stop = (*vehicle.route)[vehicle.next_stop];
    EventSimRsu& rsu = rsus_[stop];
    ++stats_.visits;

    const double dwell = exponential(rng, config_.mean_dwell_seconds);
    const double depart = event.time + dwell;
    // Broadcast ticks of this RSU inside [arrival, min(depart, period)):
    // ticks at k * interval with a per-RSU phase.
    const double phase =
        static_cast<double>(common::hash_to_range(rsu.id.value, 1'000)) /
        1'000.0 * config_.query_interval_seconds;
    const double window_end = std::min(depart, config_.period_seconds);
    double first_tick =
        std::ceil((event.time - phase) / config_.query_interval_seconds) *
            config_.query_interval_seconds +
        phase;
    if (first_tick < event.time) first_tick += config_.query_interval_seconds;
    int heard = 0;
    for (double tick = first_tick; tick < window_end;
         tick += config_.query_interval_seconds) {
      ++heard;
      ++rsu.queries_broadcast;  // counted per reached vehicle
      ++stats_.queries_heard;
      const bool already_answered =
          config_.reply_policy == ReplyPolicy::kAnswerOncePerRsu &&
          vehicle.last_answered_rsu == rsu.id.value;
      if (already_answered) {
        ++stats_.replies_suppressed;
        continue;
      }
      rsu.state.record(encoder.bit_index(vehicle.identity, rsu.id,
                                         rsu.state.array_size()));
      ++rsu.replies_received;
      ++stats_.replies_sent;
      vehicle.last_answered_rsu = rsu.id.value;
    }
    (void)heard;

    // Move on to the next stop, if any, after a link traversal.
    ++vehicle.next_stop;
    if (vehicle.next_stop < vehicle.route->size()) {
      const double travel =
          config_.mean_link_travel_seconds > 0.0
              ? exponential(rng, config_.mean_link_travel_seconds)
              : 0.0;
      queue.push(Event{depart + travel, event.vehicle});
    }
  }
}

const EventSimRsu& EventSimulation::rsu(std::size_t index) const {
  VLM_REQUIRE(index < rsus_.size(), "RSU index out of range");
  return rsus_[index];
}

std::vector<RsuReport> EventSimulation::make_reports(
    std::uint64_t period) const {
  VLM_REQUIRE(ran_, "run() before collecting reports");
  std::vector<RsuReport> reports;
  reports.reserve(rsus_.size());
  for (const EventSimRsu& rsu : rsus_) {
    reports.push_back(RsuReport{rsu.id, period, rsu.state.counter(),
                                rsu.state.array_size(),
                                rsu.state.bits().to_bytes()});
  }
  return reports;
}

}  // namespace vlm::vcps
