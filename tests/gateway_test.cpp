// Cross-domain gateway subsystem (robustness tier).
//
// Pins the gateway contracts:
//  * selection strategies are pure functions (RNG-free) with the documented
//    shapes — every-k striping, explicit sort+dedup, greedy boundary cover;
//  * a multicast group spanning two collision domains delivers packets
//    *only* when gateways are configured (the tentpole acceptance);
//  * gateway runs are byte-identical across domain worker counts, handoff
//    counters agree between the relay, the trace and the JSONL row;
//  * gateways=0 keeps the multi-channel path byte-identical to the
//    gateway-less simulator, and channels=1 ignores gateways entirely;
//  * a fault on a gateway, scoped to every domain it has a radio in, is
//    counted once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "mesh/channelplan/channel_plan.hpp"
#include "mesh/fault/fault_schedule.hpp"
#include "mesh/gateway/gateway_set.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/metrics/metric.hpp"
#include "mesh/trace/replay.hpp"
#include "mesh/trace/trace_reader.hpp"

namespace mesh {
namespace {

using namespace mesh::time_literals;

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------------
// GatewaySet selection

TEST(GatewaySet, SelectNamesRoundTrip) {
  gateway::GatewaySelect select;
  EXPECT_TRUE(gateway::gatewaySelectFromString("every-k", select));
  EXPECT_EQ(select, gateway::GatewaySelect::EveryK);
  EXPECT_TRUE(gateway::gatewaySelectFromString("boundary", select));
  EXPECT_EQ(select, gateway::GatewaySelect::Boundary);
  EXPECT_TRUE(gateway::gatewaySelectFromString("explicit", select));
  EXPECT_EQ(select, gateway::GatewaySelect::Explicit);
  EXPECT_FALSE(gateway::gatewaySelectFromString("bogus", select));
  EXPECT_STREQ(gateway::toString(gateway::GatewaySelect::Boundary), "boundary");
}

TEST(GatewaySet, EveryKStripesTheIdSpace) {
  const std::vector<Vec2> positions(10, Vec2{0.0, 0.0});
  const channelplan::ChannelPlan plan = channelplan::makeChannelPlan(
      channelplan::AssignStrategy::Static, 2, positions, 250.0);
  const gateway::GatewaySet set = gateway::makeGatewaySet(
      gateway::GatewaySelect::EveryK, 4, {}, plan, positions, 250.0);
  EXPECT_EQ(set.nodes, (std::vector<net::NodeId>{0, 2, 5, 7}));
}

TEST(GatewaySet, ExplicitSortsAndDeduplicates) {
  const std::vector<Vec2> positions(10, Vec2{0.0, 0.0});
  const channelplan::ChannelPlan plan = channelplan::makeChannelPlan(
      channelplan::AssignStrategy::Static, 2, positions, 250.0);
  const gateway::GatewaySet set = gateway::makeGatewaySet(
      gateway::GatewaySelect::Explicit, 0, {7, 3, 7, 1}, plan, positions,
      250.0);
  EXPECT_EQ(set.select, gateway::GatewaySelect::Explicit);
  EXPECT_EQ(set.nodes, (std::vector<net::NodeId>{1, 3, 7}));
}

TEST(GatewaySet, BoundaryPicksNodesWhereDomainsMeet) {
  // Two clusters 600 m apart, one bridge node between them. Static (id%2)
  // assignment interleaves channels inside each cluster, so every node has
  // cross-channel neighbors — but node 8 sits mid-gap and bridges both
  // clusters, giving it the largest cross-domain neighborhood.
  std::vector<Vec2> positions;
  for (int i = 0; i < 4; ++i) {
    positions.push_back(Vec2{static_cast<double>(i) * 30.0, 0.0});  // 0..3
  }
  for (int i = 0; i < 4; ++i) {
    positions.push_back(Vec2{700.0 + static_cast<double>(i) * 30.0, 0.0});
  }
  positions.push_back(Vec2{395.0, 0.0});  // node 8: within 250 m of no one?
  // Move the clusters so node 8 reaches the nearest member of each.
  positions[3] = Vec2{200.0, 0.0};
  positions[4] = Vec2{590.0, 0.0};
  const channelplan::ChannelPlan plan = channelplan::makeChannelPlan(
      channelplan::AssignStrategy::Static, 2, positions, 250.0);
  const gateway::GatewaySet a = gateway::makeGatewaySet(
      gateway::GatewaySelect::Boundary, 3, {}, plan, positions, 250.0);
  const gateway::GatewaySet b = gateway::makeGatewaySet(
      gateway::GatewaySelect::Boundary, 3, {}, plan, positions, 250.0);
  // Pure function of geometry: identical across invocations.
  EXPECT_EQ(a.nodes, b.nodes);
  ASSERT_EQ(a.nodes.size(), 3u);
  // Ascending and in range.
  for (std::size_t i = 1; i < a.nodes.size(); ++i) {
    EXPECT_LT(a.nodes[i - 1], a.nodes[i]);
  }
  // Every selected gateway actually has a cross-channel neighbor.
  for (const net::NodeId g : a.nodes) {
    bool cross = false;
    for (std::size_t j = 0; j < positions.size(); ++j) {
      if (j == g) continue;
      if (plan.channelOf(static_cast<net::NodeId>(j)) == plan.channelOf(g)) {
        continue;
      }
      if (positions[g].distanceSquaredTo(positions[j]) <= 250.0 * 250.0) {
        cross = true;
        break;
      }
    }
    EXPECT_TRUE(cross) << "gateway " << g << " bridges nothing";
  }
}

// ---------------------------------------------------------------------------
// Spanning-group delivery: the tentpole acceptance.

// A small two-channel mesh with one group whose source sits on channel 0
// and whose members all sit on channel 1. Without gateways the domains are
// hermetically sealed and PDR is exactly zero; with gateways the JOIN
// flood, the replies and the data all cross at the epoch barriers.
harness::ScenarioConfig spanningScenario(std::uint64_t seed) {
  harness::ScenarioConfig config = harness::scaledSimulationScenario(60);
  // Keep each domain's subgraph at the paper's density (see the
  // multichannel tests for the same adjustment).
  config.areaWidthM /= std::sqrt(2.0);
  config.areaHeightM /= std::sqrt(2.0);
  config.seed = seed;
  config.channels = 2;
  config.duration = 20_s;
  config.traffic.payloadBytes = 256;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 2_s;
  config.traffic.stop = 20_s;
  config.protocol = harness::ProtocolSpec::original();
  harness::GroupSpec group;
  group.group = 1;
  group.sources = {0};  // channel 0 under the Static (id mod 2) plan
  group.members = {1, 3, 5, 7, 9, 11, 13, 15};  // all channel 1
  config.groups = {group};
  return config;
}

TEST(GatewayDelivery, SpanningGroupDeliversOnlyWithGateways) {
  harness::ScenarioConfig sealed = spanningScenario(71);
  ASSERT_EQ(sealed.gateways, 0u);
  harness::Simulation sealedSim{sealed};
  const harness::RunResults without = sealedSim.run();
  EXPECT_GT(without.packetsSent, 0u);
  EXPECT_EQ(without.packetsDelivered, 0u);
  EXPECT_EQ(without.pdr, 0.0);
  EXPECT_EQ(without.gatewayCount, 0u);
  EXPECT_EQ(without.handoffFrames, 0u);

  harness::ScenarioConfig bridged = spanningScenario(71);
  bridged.gateways = 6;
  bridged.gatewaySelect = gateway::GatewaySelect::Boundary;
  harness::Simulation bridgedSim{bridged};
  EXPECT_EQ(bridgedSim.gatewaySet().nodes.size(), 6u);
  const harness::RunResults with = bridgedSim.run();
  EXPECT_EQ(with.gatewayCount, 6u);
  EXPECT_GT(with.handoffFrames, 0u);
  EXPECT_GT(with.packetsDelivered, 0u);
  EXPECT_GT(with.pdr, 0.0);
  // Per-gateway counters are consistent: injected sums to the total.
  std::uint64_t injected = 0;
  for (const gateway::GatewayCounters& gw : with.gatewayStats) {
    injected += gw.injected;
  }
  EXPECT_EQ(injected, with.handoffFrames);
}

TEST(GatewayDelivery, SingleChannelIgnoresGateways) {
  harness::ScenarioConfig config = spanningScenario(72);
  config.channels = 1;
  config.gateways = 4;
  harness::Simulation sim{config};
  const harness::RunResults results = sim.run();
  EXPECT_EQ(results.gatewayCount, 0u);
  EXPECT_EQ(results.handoffFrames, 0u);
  EXPECT_EQ(sim.gatewayRelay(), nullptr);
  EXPECT_GT(results.packetsDelivered, 0u);  // one domain: no seal
}

TEST(GatewayFaults, GatewayCrashCountsOnceAcrossDomains) {
  // A gateway has a radio in both domains, so its crash is scoped to both;
  // the run must still count one fault over one 2 s window.
  harness::ScenarioConfig config = spanningScenario(71);
  config.gateways = 6;
  config.gatewaySelect = gateway::GatewaySelect::Boundary;
  harness::Simulation probe{config};
  const std::vector<net::NodeId>& roster = probe.gatewaySet().nodes;
  ASSERT_NE(std::find(roster.begin(), roster.end(), net::NodeId{9}),
            roster.end());
  ASSERT_EQ(probe.plan()->channelOf(9), 1u);  // home domain 1

  fault::FaultEvent crash;
  crash.kind = trace::FaultKind::NodeCrash;
  crash.node = 9;
  crash.start = 8_s;
  crash.duration = 2_s;
  config.faults.add(crash);
  harness::Simulation sim{config};
  // Both domains arm a copy; the traced one is in domain 0, the lowest
  // domain where the gateway has a radio.
  ASSERT_NE(sim.faultInjector(0), nullptr);
  ASSERT_NE(sim.faultInjector(1), nullptr);
  EXPECT_TRUE(sim.faultInjector(0)->schedule().events().front().traced);
  EXPECT_FALSE(sim.faultInjector(1)->schedule().events().front().traced);

  const harness::RunResults results = sim.run();
  EXPECT_EQ(results.faultsApplied, 1u);
  EXPECT_EQ(results.faultsCleared, 1u);
  EXPECT_DOUBLE_EQ(results.faultWindowS, 2.0);
  EXPECT_EQ(sim.faultInjector(0)->stats().crashes, 1u);
  EXPECT_EQ(sim.faultInjector(1)->stats().crashes, 1u);
}

// ---------------------------------------------------------------------------
// Determinism

harness::ScenarioConfig gatewayDeterminismScenario(std::uint64_t seed) {
  harness::ScenarioConfig config = harness::scaledSimulationScenario(90);
  config.areaWidthM /= std::sqrt(3.0);
  config.areaHeightM /= std::sqrt(3.0);
  config.seed = seed;
  config.channels = 3;
  config.duration = 8_s;
  config.traffic.payloadBytes = 256;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 2_s;
  config.traffic.stop = 8_s;
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
  // Spanning groups: drawn over the whole id space, so membership crosses
  // the Static (id mod 3) domains and traffic must ride the gateways.
  Rng groupRng = Rng{seed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 2, 8, 1, groupRng);
  config.gateways = 6;
  config.gatewaySelect = gateway::GatewaySelect::Boundary;
  return config;
}

TEST(GatewayDeterminism, WorkerCountDoesNotChangeRunBytes) {
  const std::string dir = ::testing::TempDir();
  const auto runWith = [&](std::size_t workers, const std::string& tracePath) {
    harness::ScenarioConfig config = gatewayDeterminismScenario(9500);
    config.domainWorkers = workers;
    config.tracePath = tracePath;
    harness::Simulation sim{config};
    return sim.run();
  };

  const std::string trace1 = dir + "/gw_w1.trace.jsonl";
  const std::string trace2 = dir + "/gw_w2.trace.jsonl";
  const std::string trace4 = dir + "/gw_w4.trace.jsonl";
  const harness::RunResults w1 = runWith(1, trace1);
  const harness::RunResults w2 = runWith(2, trace2);
  const harness::RunResults w4 = runWith(4, trace4);

  EXPECT_GT(w1.handoffFrames, 0u);
  for (const harness::RunResults* r : {&w2, &w4}) {
    EXPECT_EQ(w1.packetsSent, r->packetsSent);
    EXPECT_EQ(w1.packetsDelivered, r->packetsDelivered);
    EXPECT_EQ(w1.pdr, r->pdr);
    EXPECT_EQ(w1.meanDelayS, r->meanDelayS);
    EXPECT_EQ(w1.eventsExecuted, r->eventsExecuted);
    EXPECT_EQ(w1.handoffFrames, r->handoffFrames);
    ASSERT_EQ(w1.gatewayStats.size(), r->gatewayStats.size());
    for (std::size_t i = 0; i < w1.gatewayStats.size(); ++i) {
      EXPECT_EQ(w1.gatewayStats[i].node, r->gatewayStats[i].node);
      EXPECT_EQ(w1.gatewayStats[i].captured, r->gatewayStats[i].captured);
      EXPECT_EQ(w1.gatewayStats[i].injected, r->gatewayStats[i].injected);
      EXPECT_EQ(w1.gatewayStats[i].residual, r->gatewayStats[i].residual);
    }
  }

  const std::string bytes1 = slurp(trace1);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_TRUE(bytes1 == slurp(trace2)) << "workers=2 gateway trace diverged";
  EXPECT_TRUE(bytes1 == slurp(trace4)) << "workers=4 gateway trace diverged";
  EXPECT_NE(bytes1.find("\"ev\":\"gateway_handoff\""), std::string::npos);

  // The trace replay agrees with the relay's own accounting, total and per
  // gateway — the `meshtrace summary` path.
  trace::TraceReadResult read = trace::readTraceFile(trace1);
  ASSERT_TRUE(read.trace) << read.error;
  const trace::TraceSummary summary = trace::summarizeTrace(*read.trace);
  EXPECT_EQ(summary.handoffFrames, w1.handoffFrames);
  EXPECT_EQ(summary.deliversWithoutBirth, 0u);
  // Port radios count in the phy.* and mac.* lines exactly as their
  // records do.
  EXPECT_TRUE(summary.counterMismatches.empty())
      << summary.counterMismatches.front().counter;
  for (const gateway::GatewayCounters& gw : w1.gatewayStats) {
    const auto it = summary.handoffPerGateway.find(gw.node);
    const std::uint64_t traced =
        it != summary.handoffPerGateway.end() ? it->second : 0;
    EXPECT_EQ(traced, gw.injected) << "gateway " << gw.node;
  }

  std::remove(trace1.c_str());
  std::remove(trace2.c_str());
  std::remove(trace4.c_str());
}

TEST(GatewayDeterminism, ZeroGatewaysIsByteIdenticalToGatewaylessPath) {
  const std::string dir = ::testing::TempDir();
  const auto runWith = [&](std::size_t gateways, const std::string& tracePath) {
    harness::ScenarioConfig config = gatewayDeterminismScenario(9600);
    config.gateways = gateways;
    config.tracePath = tracePath;
    harness::Simulation sim{config};
    return sim.run();
  };
  const std::string traceOff = dir + "/gw_off.trace.jsonl";
  const std::string traceOff2 = dir + "/gw_off2.trace.jsonl";
  const harness::RunResults off = runWith(0, traceOff);
  const harness::RunResults off2 = runWith(0, traceOff2);
  EXPECT_EQ(off.gatewayCount, 0u);
  EXPECT_EQ(off.handoffFrames, 0u);
  EXPECT_EQ(off.packetsDelivered, off2.packetsDelivered);
  const std::string bytes = slurp(traceOff);
  ASSERT_FALSE(bytes.empty());
  EXPECT_TRUE(bytes == slurp(traceOff2));
  // No gateway machinery leaks into the trace.
  EXPECT_EQ(bytes.find("gateway_handoff"), std::string::npos);
  std::remove(traceOff.c_str());
  std::remove(traceOff2.c_str());
}

}  // namespace
}  // namespace mesh
