// Multi-channel collision domains (robustness tier).
//
// The channelplan subsystem promises that a channels>1 run is
// byte-identical no matter how many domain worker threads drive it (1 =
// the sequential reference order) and no matter the sweep's --jobs count.
// channels=1 runs the same machinery with one domain; golden_test pins
// its results.
// Plus the plan/scheduler unit contracts and the end-to-end per-channel
// counter cross-check (`meshtrace verify` machinery).
//
// Durations are short: the point is determinism, not protocol performance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "mesh/channelplan/channel_plan.hpp"
#include "mesh/channelplan/domain_scheduler.hpp"
#include "mesh/gateway/gateway_set.hpp"
#include "mesh/harness/experiment.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/metrics/metric.hpp"
#include "mesh/runner/result_sink.hpp"
#include "mesh/runner/sweep.hpp"
#include "mesh/sim/simulator.hpp"
#include "mesh/trace/replay.hpp"

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
// ChannelPlan

TEST(ChannelPlan, StaticStripesByNodeId) {
  const std::vector<Vec2> positions(10, Vec2{0.0, 0.0});
  const channelplan::ChannelPlan plan = channelplan::makeChannelPlan(
      channelplan::AssignStrategy::Static, 3, positions, 250.0);
  ASSERT_EQ(plan.assignment.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(plan.channelOf(static_cast<net::NodeId>(i)), i % 3);
  }
  EXPECT_EQ(plan.domainSizes, (std::vector<std::uint32_t>{4, 3, 3}));
  EXPECT_EQ(plan.domainNodes(1), (std::vector<net::NodeId>{1, 4, 7}));
}

TEST(ChannelPlan, LeastCongestedBalancesACluster) {
  // Ten nodes within one contention disk: the greedy pass must deal them
  // round-robin-like across the channels instead of stacking one.
  std::vector<Vec2> positions;
  for (int i = 0; i < 10; ++i) {
    positions.push_back(Vec2{static_cast<double>(i) * 10.0, 0.0});
  }
  const channelplan::ChannelPlan plan = channelplan::makeChannelPlan(
      channelplan::AssignStrategy::LeastCongested, 2, positions, 250.0);
  EXPECT_EQ(plan.domainSizes[0], 5u);
  EXPECT_EQ(plan.domainSizes[1], 5u);
  // Every node sees every other, so the worst same-channel degree is the
  // domain population minus one.
  EXPECT_EQ(plan.maxSameChannelNeighbors, 4u);
}

TEST(ChannelPlan, LeastCongestedIsAPureFunctionOfGeometry) {
  harness::ScenarioConfig config = harness::scaledSimulationScenario(200);
  config.seed = 7;
  Rng rng{config.seed};
  // Positions via a throwaway simulation-free draw: the grid generator is
  // exercised end to end by the harness tests below; here any spread-out
  // geometry will do.
  std::vector<Vec2> positions;
  for (std::size_t i = 0; i < 200; ++i) {
    positions.push_back(Vec2{rng.uniform(0.0, config.areaWidthM),
                             rng.uniform(0.0, config.areaHeightM)});
  }
  const channelplan::ChannelPlan a = channelplan::makeChannelPlan(
      channelplan::AssignStrategy::LeastCongested, 3, positions, 250.0);
  const channelplan::ChannelPlan b = channelplan::makeChannelPlan(
      channelplan::AssignStrategy::LeastCongested, 3, positions, 250.0);
  EXPECT_EQ(a.assignment, b.assignment);
  const std::uint32_t total =
      std::accumulate(a.domainSizes.begin(), a.domainSizes.end(), 0u);
  EXPECT_EQ(total, 200u);
}

TEST(ChannelPlan, StrategyNamesRoundTrip) {
  channelplan::AssignStrategy strategy;
  EXPECT_TRUE(channelplan::assignStrategyFromString("static", strategy));
  EXPECT_EQ(strategy, channelplan::AssignStrategy::Static);
  EXPECT_TRUE(channelplan::assignStrategyFromString("least-congested", strategy));
  EXPECT_EQ(strategy, channelplan::AssignStrategy::LeastCongested);
  EXPECT_TRUE(channelplan::assignStrategyFromString("least_congested", strategy));
  EXPECT_FALSE(channelplan::assignStrategyFromString("bogus", strategy));
  EXPECT_STREQ(channelplan::toString(channelplan::AssignStrategy::Static),
               "static");
}

// ---------------------------------------------------------------------------
// DomainScheduler

TEST(DomainScheduler, BarriersSyncAllDomains) {
  sim::Simulator a, b;
  std::vector<int> order;
  a.schedule(1_s, [&] { order.push_back(1); });
  b.schedule(2_s, [&] { order.push_back(2); });
  a.schedule(3_s, [&] { order.push_back(3); });

  channelplan::DomainScheduler scheduler{{&a, &b}, 1};
  scheduler.addBarrier(2_s + 500_ms, [&] {
    // Both clocks sit exactly at the barrier instant; the 3 s event has
    // not run yet.
    EXPECT_EQ(a.now(), 2_s + 500_ms);
    EXPECT_EQ(b.now(), 2_s + 500_ms);
    order.push_back(99);
  });
  const std::uint64_t executed = scheduler.run(4_s);
  EXPECT_EQ(executed, 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 99, 3}));
  EXPECT_EQ(scheduler.epochsRun(), 2u);
  EXPECT_EQ(a.now(), 4_s);
  EXPECT_EQ(b.now(), 4_s);
}

TEST(DomainScheduler, WorkerCountDoesNotChangeEventTotals) {
  const auto runWith = [](std::size_t workers) {
    std::vector<std::unique_ptr<sim::Simulator>> sims;
    std::vector<sim::Simulator*> raw;
    std::vector<std::uint64_t> fired(4, 0);
    for (std::size_t d = 0; d < 4; ++d) {
      sims.push_back(std::make_unique<sim::Simulator>());
      raw.push_back(sims.back().get());
      // A little self-rescheduling cascade per domain.
      for (int i = 1; i <= 8; ++i) {
        sims[d]->schedule(SimTime::milliseconds(i * 10 + static_cast<int>(d)),
                          [&fired, d] { ++fired[d]; });
      }
    }
    channelplan::DomainScheduler scheduler{std::move(raw), workers};
    const std::uint64_t executed = scheduler.run(1_s);
    return std::pair{executed, fired};
  };
  const auto [serialExec, serialFired] = runWith(1);
  const auto [parallelExec, parallelFired] = runWith(4);
  EXPECT_EQ(serialExec, 32u);
  EXPECT_EQ(parallelExec, serialExec);
  EXPECT_EQ(serialFired, parallelFired);
}

// ---------------------------------------------------------------------------
// Harness identities

TEST(MultiChannel, OneChannelRunPlansOneDomainOverEveryNode) {
  // channels=1 is the same domain machinery with a single domain: the plan
  // exists, domain 0 holds every node, and the run reports no per-channel
  // rows (only channels > 1 does).
  harness::ScenarioConfig config = harness::paperSimulationScenario();
  config.seed = 4242;
  config.duration = 3_s;
  config.traffic.start = 1_s;
  config.traffic.stop = 3_s;
  config.groups = {harness::GroupSpec{1, {0}, {1, 2, 3}}};
  harness::Simulation sim{config};
  EXPECT_EQ(sim.channelCount(), 1u);
  ASSERT_NE(sim.plan(), nullptr);
  EXPECT_EQ(sim.plan()->domainNodes(0).size(), config.nodeCount);
  EXPECT_EQ(&sim.domainChannel(0), &sim.channel());
  const harness::RunResults results = sim.run();
  EXPECT_TRUE(results.channelFrames.empty());
  EXPECT_GT(results.eventsExecuted, 0u);
}

// 500 nodes, 3 channels, channel-local groups — the multi-channel scale
// scenario shared by the worker-count and jobs-count identity tests.
harness::ScenarioConfig multiScenario(std::uint64_t seed) {
  harness::ScenarioConfig config = harness::scaledSimulationScenario(500);
  // Shrink the area by the channel count: each collision domain holds a
  // third of the nodes, and this keeps every domain's subgraph at the
  // paper's 50 nodes/km² (a 1/3-density subsample is disconnected).
  config.areaWidthM /= std::sqrt(3.0);
  config.areaHeightM /= std::sqrt(3.0);
  config.seed = seed;
  config.duration = 6_s;
  config.traffic.payloadBytes = 256;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 2_s;
  config.traffic.stop = 6_s;
  config.channels = 3;
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
  Rng groupRng = Rng{seed}.fork("groups");
  config.groups =
      harness::makeStripedGroups(config.nodeCount, 3, 1, 8, 1, groupRng);
  return config;
}

TEST(MultiChannel, WorkerCountDoesNotChangeRunBytes) {
  const std::string dir = ::testing::TempDir();
  const auto runWith = [&](std::size_t workers, const std::string& tracePath) {
    harness::ScenarioConfig config = multiScenario(9300);
    config.domainWorkers = workers;
    config.tracePath = tracePath;
    harness::Simulation sim{config};
    EXPECT_EQ(sim.channelCount(), 3u);
    return sim.run();
  };

  const std::string trace1 = dir + "/mc_w1.trace.jsonl";
  const std::string trace2 = dir + "/mc_w2.trace.jsonl";
  const std::string trace4 = dir + "/mc_w4.trace.jsonl";
  const harness::RunResults w1 = runWith(1, trace1);
  const harness::RunResults w2 = runWith(2, trace2);
  const harness::RunResults w4 = runWith(4, trace4);

  for (const harness::RunResults* r : {&w2, &w4}) {
    EXPECT_EQ(w1.packetsSent, r->packetsSent);
    EXPECT_EQ(w1.packetsDelivered, r->packetsDelivered);
    EXPECT_EQ(w1.pdr, r->pdr);
    EXPECT_EQ(w1.throughputBps, r->throughputBps);
    EXPECT_EQ(w1.meanDelayS, r->meanDelayS);
    EXPECT_EQ(w1.eventsExecuted, r->eventsExecuted);
    EXPECT_EQ(w1.channelFrames, r->channelFrames);
    EXPECT_EQ(w1.channelDelivered, r->channelDelivered);
  }

  // Per-channel counters are present and live: every domain transmitted.
  ASSERT_EQ(w1.channelFrames.size(), 3u);
  for (const std::uint64_t frames : w1.channelFrames) EXPECT_GT(frames, 0u);
  const std::uint64_t deliveredSum = std::accumulate(
      w1.channelDelivered.begin(), w1.channelDelivered.end(), std::uint64_t{0});
  EXPECT_EQ(deliveredSum, w1.packetsDelivered);
  EXPECT_GT(w1.packetsDelivered, 0u);

  const std::string bytes1 = slurp(trace1);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_TRUE(bytes1 == slurp(trace2)) << "workers=2 trace diverged";
  EXPECT_TRUE(bytes1 == slurp(trace4)) << "workers=4 trace diverged";
  // The merged trace is channel-tagged.
  EXPECT_NE(bytes1.find("\"channel\":0"), std::string::npos);
  EXPECT_NE(bytes1.find("\"channel\":2"), std::string::npos);
  std::remove(trace1.c_str());
  std::remove(trace2.c_str());
  std::remove(trace4.c_str());
}

TEST(MultiChannel, SweepBytesMatchAcrossJobCountsAndVerifyCrossChecks) {
  const std::vector<harness::ProtocolSpec> protocols = {
      harness::ProtocolSpec::with(metrics::MetricKind::Spp)};

  const auto optionsFor = [](std::size_t jobs, const std::string& dir) {
    harness::BenchOptions options;
    options.topologies = 2;
    options.duration = SimTime::zero();  // keep the scenario's 6 s
    options.baseSeed = 9400;
    options.verbose = false;
    options.jobs = jobs;
    options.traceDir = dir;
    options.jsonlPath = dir + "/results.jsonl";
    return options;
  };

  const std::string dirSerial = ::testing::TempDir() + "mc_jobs1";
  const std::string dirParallel = ::testing::TempDir() + "mc_jobs4";
  const auto runSweep = [&](std::size_t jobs, const std::string& dir) {
    const harness::BenchOptions options = optionsFor(jobs, dir);
    runner::JsonlResultSink sink{options.jsonlPath};
    return runner::runComparisonSweep(protocols, multiScenario, options, &sink);
  };
  const runner::SweepReport serial = runSweep(1, dirSerial);
  const runner::SweepReport parallel = runSweep(4, dirParallel);

  ASSERT_EQ(serial.failures, 0u);
  ASSERT_EQ(parallel.failures, 0u);
  ASSERT_EQ(serial.records.size(), 2u);
  ASSERT_EQ(parallel.records.size(), 2u);

  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const runner::RunRecord& s = serial.records[i];
    const runner::RunRecord& p = parallel.records[i];
    EXPECT_EQ(s.seed, p.seed);
    EXPECT_EQ(s.results.pdr, p.results.pdr);
    EXPECT_EQ(s.results.channelFrames, p.results.channelFrames);
    EXPECT_EQ(s.eventsExecuted, p.eventsExecuted);

    ASSERT_FALSE(s.tracePath.empty());
    const std::string name =
        s.tracePath.substr(s.tracePath.find_last_of('/') + 1);
    const std::string serialBytes = slurp(dirSerial + "/" + name);
    EXPECT_FALSE(serialBytes.empty());
    EXPECT_TRUE(serialBytes == slurp(dirParallel + "/" + name))
        << "trace " << name << " diverged between --jobs 1 and --jobs 4";
  }

  // The per-channel counters written to the results JSONL agree exactly
  // with the channel-tagged trace records — the `meshtrace verify` path.
  const trace::VerifyReport report =
      trace::verifyAgainstResults(dirSerial + "/results.jsonl");
  EXPECT_TRUE(report.ok()) << "file error: " << report.error << ", runs: "
                           << report.runs.size();
  for (const auto& run : report.runs) {
    EXPECT_TRUE(run.ok) << run.tracePath << ": " << run.error;
    EXPECT_TRUE(run.mismatches.empty());
  }

  for (const auto& record : serial.records) {
    const std::string name =
        record.tracePath.substr(record.tracePath.find_last_of('/') + 1);
    std::remove((dirSerial + "/" + name).c_str());
    std::remove((dirParallel + "/" + name).c_str());
  }
  std::remove((dirSerial + "/results.jsonl").c_str());
  std::remove((dirParallel + "/results.jsonl").c_str());
}

// ---------------------------------------------------------------------------
// Gateways at scale: the 500-node acceptance scenario. Same mesh as
// multiScenario but with *spanning* groups (drawn over the whole id space,
// so membership crosses the Static id-mod-3 domains) and boundary-selected
// gateways carrying the traffic between domains.

harness::ScenarioConfig gatewayScenario(std::uint64_t seed) {
  harness::ScenarioConfig config = multiScenario(seed);
  Rng groupRng = Rng{seed}.fork("gwgroups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 3, 8, 1, groupRng);
  config.gateways = 9;
  config.gatewaySelect = gateway::GatewaySelect::Boundary;
  return config;
}

TEST(MultiChannelGateway, WorkerCountDoesNotChangeRunBytes) {
  const std::string dir = ::testing::TempDir();
  const auto runWith = [&](std::size_t workers, const std::string& tracePath) {
    harness::ScenarioConfig config = gatewayScenario(9700);
    config.domainWorkers = workers;
    config.tracePath = tracePath;
    harness::Simulation sim{config};
    EXPECT_EQ(sim.channelCount(), 3u);
    EXPECT_EQ(sim.gatewaySet().nodes.size(), 9u);
    return sim.run();
  };

  const std::string trace1 = dir + "/mcgw_w1.trace.jsonl";
  const std::string trace2 = dir + "/mcgw_w2.trace.jsonl";
  const std::string trace4 = dir + "/mcgw_w4.trace.jsonl";
  const harness::RunResults w1 = runWith(1, trace1);
  const harness::RunResults w2 = runWith(2, trace2);
  const harness::RunResults w4 = runWith(4, trace4);

  EXPECT_EQ(w1.gatewayCount, 9u);
  EXPECT_GT(w1.handoffFrames, 0u);
  EXPECT_GT(w1.packetsDelivered, 0u);
  for (const harness::RunResults* r : {&w2, &w4}) {
    EXPECT_EQ(w1.packetsSent, r->packetsSent);
    EXPECT_EQ(w1.packetsDelivered, r->packetsDelivered);
    EXPECT_EQ(w1.pdr, r->pdr);
    EXPECT_EQ(w1.throughputBps, r->throughputBps);
    EXPECT_EQ(w1.meanDelayS, r->meanDelayS);
    EXPECT_EQ(w1.eventsExecuted, r->eventsExecuted);
    EXPECT_EQ(w1.channelFrames, r->channelFrames);
    EXPECT_EQ(w1.channelDelivered, r->channelDelivered);
    EXPECT_EQ(w1.handoffFrames, r->handoffFrames);
  }

  const std::string bytes1 = slurp(trace1);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_TRUE(bytes1 == slurp(trace2)) << "workers=2 gateway trace diverged";
  EXPECT_TRUE(bytes1 == slurp(trace4)) << "workers=4 gateway trace diverged";
  EXPECT_NE(bytes1.find("\"ev\":\"gateway_handoff\""), std::string::npos);
  std::remove(trace1.c_str());
  std::remove(trace2.c_str());
  std::remove(trace4.c_str());
}

TEST(MultiChannelGateway, SweepBytesMatchAcrossJobCountsAndVerifyCrossChecks) {
  const std::vector<harness::ProtocolSpec> protocols = {
      harness::ProtocolSpec::with(metrics::MetricKind::Spp)};

  const auto optionsFor = [](std::size_t jobs, const std::string& dir) {
    harness::BenchOptions options;
    options.topologies = 2;
    options.duration = SimTime::zero();  // keep the scenario's 6 s
    options.baseSeed = 9800;
    options.verbose = false;
    options.jobs = jobs;
    options.traceDir = dir;
    options.jsonlPath = dir + "/results.jsonl";
    return options;
  };

  const std::string dirSerial = ::testing::TempDir() + "mcgw_jobs1";
  const std::string dirParallel = ::testing::TempDir() + "mcgw_jobs4";
  const auto runSweep = [&](std::size_t jobs, const std::string& dir) {
    const harness::BenchOptions options = optionsFor(jobs, dir);
    runner::JsonlResultSink sink{options.jsonlPath};
    return runner::runComparisonSweep(protocols, gatewayScenario, options,
                                      &sink);
  };
  const runner::SweepReport serial = runSweep(1, dirSerial);
  const runner::SweepReport parallel = runSweep(4, dirParallel);

  ASSERT_EQ(serial.failures, 0u);
  ASSERT_EQ(parallel.failures, 0u);
  ASSERT_EQ(serial.records.size(), 2u);
  ASSERT_EQ(parallel.records.size(), 2u);

  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const runner::RunRecord& s = serial.records[i];
    const runner::RunRecord& p = parallel.records[i];
    EXPECT_EQ(s.seed, p.seed);
    EXPECT_EQ(s.results.pdr, p.results.pdr);
    EXPECT_EQ(s.results.handoffFrames, p.results.handoffFrames);
    EXPECT_GT(s.results.handoffFrames, 0u);
    EXPECT_EQ(s.eventsExecuted, p.eventsExecuted);

    ASSERT_FALSE(s.tracePath.empty());
    const std::string name =
        s.tracePath.substr(s.tracePath.find_last_of('/') + 1);
    const std::string serialBytes = slurp(dirSerial + "/" + name);
    EXPECT_FALSE(serialBytes.empty());
    EXPECT_TRUE(serialBytes == slurp(dirParallel + "/" + name))
        << "gateway trace " << name << " diverged between --jobs 1 and 4";
  }

  // The JSONL rows carry gateways / handoff_frames / per-gateway counters;
  // `meshtrace verify` cross-checks them against the gateway_handoff trace
  // records, total and per gateway.
  const trace::VerifyReport report =
      trace::verifyAgainstResults(dirSerial + "/results.jsonl");
  EXPECT_TRUE(report.ok()) << "file error: " << report.error << ", runs: "
                           << report.runs.size();
  for (const auto& run : report.runs) {
    EXPECT_TRUE(run.ok) << run.tracePath << ": " << run.error;
    for (const auto& diff : run.mismatches) {
      ADD_FAILURE() << diff.field << " trace=" << diff.traceValue
                    << " harness=" << diff.harnessValue;
    }
  }
  const std::string jsonl = slurp(dirSerial + "/results.jsonl");
  EXPECT_NE(jsonl.find("\"gateways\":9"), std::string::npos);
  EXPECT_NE(jsonl.find("\"handoff_frames\":"), std::string::npos);

  for (const auto& record : serial.records) {
    const std::string name =
        record.tracePath.substr(record.tracePath.find_last_of('/') + 1);
    std::remove((dirSerial + "/" + name).c_str());
    std::remove((dirParallel + "/" + name).c_str());
  }
  std::remove((dirSerial + "/results.jsonl").c_str());
  std::remove((dirParallel + "/results.jsonl").c_str());
}

}  // namespace
}  // namespace mesh
