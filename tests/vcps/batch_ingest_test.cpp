// Bit-identity of drive_vehicles' columnar ingest engine against two
// oracles that share no code with it: the per-vehicle protocol loop
// below (one Vehicle, one query, one reply at a time, with the hashed
// order-independent channel draws) on a lossy channel, and the serial
// drive_vehicle API on a loss-free one.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "common/hashing.h"
#include "common/visited_mask.h"
#include "core/pair_simulation.h"
#include "core/scheme.h"
#include "traffic/multi_rsu_workload.h"
#include "vcps/ingest_batch.h"
#include "vcps/pki.h"
#include "vcps/simulation.h"
#include "vcps/vehicle.h"

namespace vlm::vcps {
namespace {

constexpr std::size_t kRsus = 9;
constexpr std::uint64_t kVehicles = 6'000;

traffic::MultiRsuConfig workload_config() {
  traffic::MultiRsuConfig config;
  config.rsu_count = kRsus;
  config.vehicle_count = kVehicles;
  config.min_visits = 2;
  config.max_visits = 5;
  config.seed = 17;
  return config;
}

SimulationConfig sim_config(const ChannelConfig& channel) {
  SimulationConfig config;
  config.seed = 101;
  config.channel = channel;
  config.server.scheme = core::make_vlm_scheme({.s = 2, .load_factor = 8.0});
  return config;
}

ChannelConfig lossy_channel() {
  ChannelConfig channel;
  channel.query_loss = 0.15;
  channel.reply_loss = 0.1;
  channel.reply_duplicate = 0.08;
  return channel;
}

std::vector<RsuSite> sites_for(traffic::MultiRsuWorkload& workload) {
  workload.for_each_vehicle(
      [](std::uint64_t, std::span<const std::uint32_t>) {});
  std::vector<RsuSite> sites;
  for (std::size_t r = 0; r < kRsus; ++r) {
    sites.push_back(RsuSite{core::RsuId{r + 1},
                            static_cast<double>(workload.node_volumes()[r])});
  }
  return sites;
}

ItineraryProvider provider_for(const traffic::MultiRsuWorkload& workload) {
  return [&workload](std::uint64_t v, std::vector<std::size_t>& positions) {
    thread_local common::VisitedMask visited(0);
    thread_local std::vector<std::uint32_t> rsus;
    if (visited.universe_size() != kRsus) {
      visited = common::VisitedMask(kRsus);
    }
    workload.itinerary(v, visited, rsus);
    positions.assign(rsus.begin(), rsus.end());
  };
}

BulkItineraryProvider bulk_provider_for(
    const traffic::MultiRsuWorkload& workload) {
  return [&workload](std::uint64_t begin, std::uint64_t end,
                     common::UninitVector<std::uint32_t>& positions,
                     std::vector<std::uint64_t>& offsets,
                     std::vector<std::uint64_t>& counts) {
    thread_local common::VisitedMask visited(0);
    if (visited.universe_size() != kRsus) {
      visited = common::VisitedMask(kRsus);
    }
    workload.itineraries(begin, end, visited, positions, offsets, counts);
  };
}

// One period of `count` vehicles through drive_vehicles.
std::unique_ptr<VcpsSimulation> run_engine(
    const ChannelConfig& channel, const traffic::MultiRsuWorkload& workload,
    std::span<const RsuSite> sites, unsigned workers,
    std::uint64_t count = kVehicles, IngestStats* stats_out = nullptr) {
  auto sim = std::make_unique<VcpsSimulation>(sim_config(channel), sites);
  sim->begin_period();
  const IngestStats stats =
      sim->drive_vehicles(count, provider_for(workload), workers);
  EXPECT_EQ(stats.vehicles, count);
  if (stats_out != nullptr) *stats_out = stats;
  sim->end_period();
  return sim;
}

// What the per-vehicle oracle lands: per-RSU states, channel tally and
// successful deliveries.
struct OracleResult {
  std::vector<core::RsuState> states;
  ChannelTally tally;
  std::uint64_t exchanges = 0;
};

// Lossy-channel oracle: drives `count` fresh vehicles (numbered after the
// ones `sim` has driven) through `sim`'s open period one protocol
// exchange at a time, drawing every channel outcome from the hashed
// DsrcChannel::*_for domains keyed by (period, vehicle number, RSU).
// Those draws do not depend on execution order, so this serial loop is
// the reference for every worker count. Reads `sim` only through its
// public API and leaves it untouched.
OracleResult per_vehicle_oracle(const VcpsSimulation& sim,
                                const SimulationConfig& config,
                                const traffic::MultiRsuWorkload& workload,
                                std::uint64_t count) {
  const CertificateAuthority ca(config.ca_master_secret);
  const std::uint64_t period = sim.current_period();
  OracleResult out;
  for (std::size_t r = 0; r < sim.rsu_count(); ++r) {
    out.states.emplace_back(sim.rsu(r).state().array_size());
  }
  common::VisitedMask visited(sim.rsu_count());
  std::vector<std::uint32_t> rsus;
  for (std::uint64_t v = 0; v < count; ++v) {
    const std::uint64_t vehicle_number = sim.vehicles_driven() + v + 1;
    const core::VehicleIdentity identity =
        core::synthetic_vehicle(config.seed, vehicle_number);
    Vehicle vehicle(identity, sim.encoder(), ca,
                    common::mix64(identity.masked_key() ^ period));
    workload.itinerary(v, visited, rsus);
    for (const std::uint32_t position : rsus) {
      const Rsu& rsu = sim.rsu(position);
      if (!sim.channel().query_delivered_for(period, vehicle_number, rsu.id(),
                                             out.tally)) {
        continue;
      }
      const auto reply = vehicle.handle_query(rsu.make_query(period));
      if (!reply.has_value()) continue;
      const int deliveries = sim.channel().deliveries_for_reply_for(
          period, vehicle_number, rsu.id(), out.tally);
      for (int d = 0; d < deliveries; ++d) {
        out.states[position].record(reply->bit_index);
        ++out.exchanges;
      }
    }
  }
  return out;
}

void expect_reports_identical(const VcpsSimulation& a,
                              const VcpsSimulation& b) {
  ASSERT_EQ(a.rsu_count(), b.rsu_count());
  for (std::size_t r = 0; r < a.rsu_count(); ++r) {
    const RsuReport ra = a.rsu(r).make_report(a.current_period());
    const RsuReport rb = b.rsu(r).make_report(b.current_period());
    EXPECT_EQ(ra.counter, rb.counter) << "RSU " << r;
    EXPECT_EQ(ra.array_size, rb.array_size) << "RSU " << r;
    EXPECT_EQ(ra.bits, rb.bits) << "RSU " << r;
  }
}

TEST(BatchIngest, BitIdenticalToPerVehicleOracleAcrossWorkerCountsLossyChannel) {
  // For every worker count the engine must land exactly the oracle's
  // bits, counters, exchange count AND channel tallies under a lossy +
  // duplicating channel. 40000 vehicles make the overlap schedule run
  // every prologue/epilogue shape over its 16384-vehicle sub-slices:
  // 1 worker drains 3 sub-slices, 2 workers 2 each, 4 and 7 workers one.
  traffic::MultiRsuConfig config = workload_config();
  config.vehicle_count = 40'000;
  traffic::MultiRsuWorkload workload(config);
  const std::vector<RsuSite> sites = sites_for(workload);
  const ChannelConfig channel = lossy_channel();

  VcpsSimulation reference(sim_config(channel), sites);
  reference.begin_period();
  const OracleResult oracle = per_vehicle_oracle(
      reference, sim_config(channel), workload, config.vehicle_count);
  ASSERT_GT(oracle.tally.queries_lost, 0u);
  ASSERT_GT(oracle.tally.replies_lost, 0u);
  ASSERT_GT(oracle.tally.replies_duplicated, 0u);

  for (const unsigned workers : {1u, 2u, 4u, 7u}) {
    IngestStats stats;
    const auto engine = run_engine(channel, workload, sites, workers,
                                   config.vehicle_count, &stats);
    EXPECT_EQ(stats.exchanges, oracle.exchanges) << "workers " << workers;
    for (std::size_t r = 0; r < kRsus; ++r) {
      const core::RsuState& got = engine->rsu(r).state();
      EXPECT_EQ(got.counter(), oracle.states[r].counter())
          << "workers " << workers << " RSU " << r;
      EXPECT_EQ(got.bits().to_bytes(), oracle.states[r].bits().to_bytes())
          << "workers " << workers << " RSU " << r;
    }
    EXPECT_EQ(engine->channel().queries_lost(), oracle.tally.queries_lost)
        << "workers " << workers;
    EXPECT_EQ(engine->channel().replies_lost(), oracle.tally.replies_lost)
        << "workers " << workers;
    EXPECT_EQ(engine->channel().replies_duplicated(),
              oracle.tally.replies_duplicated)
        << "workers " << workers;
  }
}

TEST(BatchIngest, MatchesSerialDriveVehicleLoopWhenLossFree) {
  // Loss-free channel: no randomness on any path, so the engine must
  // also match the one-vehicle-at-a-time serial API exactly.
  traffic::MultiRsuWorkload workload(workload_config());
  const std::vector<RsuSite> sites = sites_for(workload);

  auto serial = std::make_unique<VcpsSimulation>(sim_config({}), sites);
  serial->begin_period();
  common::VisitedMask visited(kRsus);
  std::vector<std::uint32_t> rsus;
  std::vector<std::size_t> positions;
  for (std::uint64_t v = 0; v < kVehicles; ++v) {
    workload.itinerary(v, visited, rsus);
    positions.assign(rsus.begin(), rsus.end());
    serial->drive_vehicle(positions);
  }
  serial->end_period();

  for (const unsigned workers : {1u, 2u, 4u, 7u}) {
    const auto engine = run_engine({}, workload, sites, workers);
    expect_reports_identical(*serial, *engine);
  }
}

TEST(BatchIngest, StageSecondsAndSubSliceLoopPopulated) {
  traffic::MultiRsuWorkload workload(workload_config());
  const std::vector<RsuSite> sites = sites_for(workload);

  IngestStats stats;
  run_engine(lossy_channel(), workload, sites, 2, kVehicles, &stats);
  // Wall clocks tick: with 6000 vehicles every stage and the sub-slice
  // loop around them measure > 0.
  EXPECT_GT(stats.materialize_seconds, 0.0);
  EXPECT_GT(stats.hash_seconds, 0.0);
  EXPECT_GT(stats.channel_seconds, 0.0);
  EXPECT_GT(stats.scatter_seconds, 0.0);
  EXPECT_GT(stats.pipeline_seconds, 0.0);
}

TEST(BatchIngest, MaterializationReproducesSeedConfigItineraries) {
  // Golden snapshot of stage 1: materializing the seed-config workload
  // must bucket exactly the tuples a direct itinerary walk produces —
  // same vehicle numbers, same masked keys, same per-RSU order.
  traffic::MultiRsuWorkload workload(workload_config());
  const BulkItineraryProvider provider = bulk_provider_for(workload);
  constexpr std::uint64_t kSeed = 101;
  constexpr std::uint64_t kBase = 3;  // mid-period offsets must carry over
  constexpr std::size_t kSlice = 500;

  ExchangeColumns columns;
  materialize_exchanges(kSeed, kBase, 0, kSlice, provider, kRsus,
                        /*with_vehicle_numbers=*/true, columns);

  std::vector<std::vector<std::uint64_t>> want_keys(kRsus);
  std::vector<std::vector<std::uint64_t>> want_numbers(kRsus);
  common::VisitedMask visited(kRsus);
  std::vector<std::uint32_t> rsus;
  std::uint64_t tuples = 0;
  for (std::size_t v = 0; v < kSlice; ++v) {
    const std::uint64_t vehicle_number = kBase + v + 1;
    const core::VehicleIdentity identity =
        core::synthetic_vehicle(kSeed, vehicle_number);
    workload.itinerary(v, visited, rsus);
    for (const std::uint32_t position : rsus) {
      want_keys[position].push_back(identity.masked_key());
      want_numbers[position].push_back(vehicle_number);
      ++tuples;
    }
  }
  ASSERT_GT(tuples, kSlice);  // min_visits = 2 guarantees multi-visit

  ASSERT_EQ(columns.buckets.size(), kRsus);
  for (std::size_t r = 0; r < kRsus; ++r) {
    const RsuExchangeBucket& bucket = columns.buckets[r];
    EXPECT_EQ(std::vector<std::uint64_t>(bucket.masked_keys.begin(),
                                         bucket.masked_keys.end()),
              want_keys[r])
        << "RSU " << r;
    EXPECT_EQ(std::vector<std::uint64_t>(bucket.vehicle_numbers.begin(),
                                         bucket.vehicle_numbers.end()),
              want_numbers[r])
        << "RSU " << r;
    EXPECT_TRUE(bucket.bit_indices.empty());
    EXPECT_TRUE(bucket.deliveries.empty());
  }
}

TEST(BatchIngest, ColumnsResetClearsStaleTuples) {
  // Reuse across periods: a second materialization of a shorter slice
  // must not leak tuples from the first.
  traffic::MultiRsuWorkload workload(workload_config());
  const BulkItineraryProvider provider = bulk_provider_for(workload);
  ExchangeColumns columns;
  materialize_exchanges(101, 0, 0, 400, provider, kRsus,
                        /*with_vehicle_numbers=*/true, columns);
  std::size_t first = 0;
  for (const RsuExchangeBucket& bucket : columns.buckets) {
    first += bucket.masked_keys.size();
  }
  materialize_exchanges(101, 0, 0, 40, provider, kRsus,
                        /*with_vehicle_numbers=*/true, columns);
  std::size_t second = 0;
  for (const RsuExchangeBucket& bucket : columns.buckets) {
    second += bucket.masked_keys.size();
    EXPECT_EQ(bucket.masked_keys.size(), bucket.vehicle_numbers.size());
  }
  EXPECT_LT(second, first);
}

TEST(BatchIngest, BulkProviderMatchesPerVehicleProvider) {
  // The native CSR bulk form and the adapted per-vehicle form must be
  // indistinguishable end to end — same reports, same exchange counts,
  // same channel tallies.
  traffic::MultiRsuWorkload workload(workload_config());
  const std::vector<RsuSite> sites = sites_for(workload);
  const ChannelConfig channel = lossy_channel();

  IngestStats per_vehicle_stats;
  const auto per_vehicle =
      run_engine(channel, workload, sites, 2, kVehicles, &per_vehicle_stats);
  auto bulk = std::make_unique<VcpsSimulation>(sim_config(channel), sites);
  bulk->begin_period();
  const IngestStats bulk_stats =
      bulk->drive_vehicles(kVehicles, bulk_provider_for(workload), 2);
  bulk->end_period();
  EXPECT_EQ(bulk_stats.exchanges, per_vehicle_stats.exchanges);
  expect_reports_identical(*per_vehicle, *bulk);
  EXPECT_EQ(bulk->channel().queries_lost(),
            per_vehicle->channel().queries_lost());
  EXPECT_EQ(bulk->channel().replies_lost(),
            per_vehicle->channel().replies_lost());
  EXPECT_EQ(bulk->channel().replies_duplicated(),
            per_vehicle->channel().replies_duplicated());
}

}  // namespace
}  // namespace vlm::vcps
