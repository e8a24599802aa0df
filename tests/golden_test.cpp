// Golden digests: five traced runs whose trace bytes, event counts and
// delivery counts are pinned to fixed values (DESIGN §8.6, "golden v2").
//
// Each run covers one kind of world the Simulation builds:
//  * the 50-node Section 4.1 cell with SPP (static geometry, grid index);
//  * the Section 5 testbed (custom link-model factory, pair scan);
//  * the 50-node cell under random-waypoint mobility (live positions,
//    periodic reachability refresh);
//  * the 50-node cell under seeded churn (crashes, blackouts, bursts);
//  * a 150-node world on three channels with six gateways, Minstrel rate
//    control and crash churn (collision domains on worker threads, gateway
//    ports, the rate-aware counter row, per-domain recovery).
//
// A change that is meant to leave results alone must keep every value
// here. A change that deliberately alters results re-pins all of them in
// one commit and bumps the golden version in DESIGN §8.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "mesh/fault/fault_schedule.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/metrics/metric.hpp"
#include "mesh/rate/rate_table.hpp"
#include "mesh/testbed/floorplan.hpp"
#include "mesh/testbed/loss_link_model.hpp"

namespace mesh {
namespace {

using namespace mesh::time_literals;

struct Golden {
  std::uint64_t traceFnv1a;
  std::uint64_t eventsExecuted;
  std::uint64_t packetsDelivered;
};

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// Runs `config` with tracing into a temporary file and compares the trace
// digest and the two headline counts against `want`.
harness::RunResults expectGolden(harness::ScenarioConfig config,
                                 const std::string& name, const Golden& want) {
  const std::string path = ::testing::TempDir() + "/golden_" + name + ".jsonl";
  config.tracePath = path;
  harness::Simulation sim{std::move(config)};
  const harness::RunResults results = sim.run();
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  const std::string bytes{std::istreambuf_iterator<char>{in},
                          std::istreambuf_iterator<char>{}};
  std::remove(path.c_str());
  EXPECT_FALSE(bytes.empty()) << name;
  EXPECT_EQ(fnv1a64(bytes), want.traceFnv1a) << name << " trace digest";
  EXPECT_EQ(results.eventsExecuted, want.eventsExecuted) << name;
  EXPECT_EQ(results.packetsDelivered, want.packetsDelivered) << name;
  return results;
}

// The Section 4.1 cell: 50 nodes, two groups of ten, one source each.
harness::ScenarioConfig paperCell(std::uint64_t seed, std::int64_t seconds,
                                  std::int64_t trafficStartS) {
  harness::ScenarioConfig config = harness::paperSimulationScenario();
  config.seed = seed;
  config.duration = SimTime::seconds(seconds);
  config.traffic.start = SimTime::seconds(trafficStartS);
  config.traffic.stop = SimTime::seconds(seconds);
  Rng groupRng = Rng{seed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 2, 10, 1, groupRng);
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
  return config;
}

TEST(Golden, PaperCellSpp25s) {
  expectGolden(paperCell(12345, 25, 5), "paper_cell",
               {5690449374715974744ull, 843874u, 6513u});
}

// The same run untraced: tracing must move neither the event count nor the
// deliveries.
TEST(Golden, PaperCellSpp25sUntraced) {
  harness::Simulation sim{paperCell(12345, 25, 5)};
  const harness::RunResults results = sim.run();
  EXPECT_EQ(results.eventsExecuted, 843874u);
  EXPECT_EQ(results.packetsDelivered, 6513u);
}

TEST(Golden, Testbed60s) {
  harness::ScenarioConfig config;
  config.nodeCount = testbed::kNodeCount;
  config.seed = 11;
  config.duration = 60_s;
  config.traffic.payloadBytes = 512;
  config.traffic.packetsPerSecond = 20.0;
  config.traffic.start = 10_s;
  config.traffic.stop = 60_s;
  config.fixedPositions = testbed::Floorplan::positions();
  config.linkModelFactory = [](sim::Simulator& simulator, Rng& rng) {
    return testbed::makePurdueFloorModel(simulator, testbed::LossModelParams{},
                                         rng);
  };
  for (const auto& group : testbed::Floorplan::paperGroups()) {
    config.groups.push_back(
        harness::GroupSpec{group.group, group.sources, group.members});
  }
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
  expectGolden(std::move(config), "testbed",
               {3926081001533201191ull, 84006u, 3441u});
}

TEST(Golden, Mobility30s) {
  harness::ScenarioConfig config = paperCell(21, 30, 5);
  config.mobilityMaxSpeedMps = 10.0;
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Etx);
  expectGolden(std::move(config), "mobility",
               {16262790198316793880ull, 1087052u, 8479u});
}

TEST(Golden, PaperCellChurn60s) {
  harness::ScenarioConfig config = paperCell(31, 60, 10);
  fault::ChurnSpec churn;
  churn.crashesPerMinute = 6.0;
  churn.blackoutsPerMinute = 6.0;
  churn.burstsPerMinute = 6.0;
  churn.warmup = 15_s;
  config.churn = churn;
  const harness::RunResults results = expectGolden(
      std::move(config), "churn", {65130985040731197ull, 2483567u, 14195u});
  EXPECT_GT(results.faultsApplied, 0u);
}

TEST(Golden, GatewayMinstrelChurn20s) {
  harness::ScenarioConfig config = harness::scaledSimulationScenario(150);
  config.seed = 41;
  config.duration = 20_s;
  config.traffic.start = 5_s;
  config.traffic.stop = 20_s;
  config.channels = 3;
  config.domainWorkers = 3;
  config.gateways = 6;
  config.gatewaySelect = gateway::GatewaySelect::Boundary;
  config.rateControl = rate::ControlKind::Minstrel;
  config.rateSet = rate::RateSetKind::Dsss;
  // Groups span the whole id space, so traffic rides the gateways.
  Rng groupRng = Rng{config.seed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 2, 10, 1, groupRng);
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
  fault::ChurnSpec churn;
  churn.crashesPerMinute = 12.0;
  churn.warmup = 8_s;
  config.churn = churn;
  const harness::RunResults results = expectGolden(
      std::move(config), "gateway_minstrel_churn",
      {17164490869461552348ull, 460146u, 1042u});
  EXPECT_GT(results.handoffFrames, 0u);
  EXPECT_GT(results.faultsApplied, 0u);
}

}  // namespace
}  // namespace mesh
