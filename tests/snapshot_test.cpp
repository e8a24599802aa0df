// Topology snapshots (robustness tier), DESIGN §14.
//
// The snapshot subsystem promises one identity and pins it here from every
// angle: a run that adopts a shared world — placement, spatial grid,
// frozen link rows, channel plan, gateway roster — is byte-identical
// (traces and results) to the same run building its world from scratch.
// Covered:
//  * capture/adopt on the 50-node single-channel paper cell;
//  * copy-on-write isolation: a fault run adopting a snapshot never
//    poisons it for later adopters;
//  * sweep-level identity against every plan run standalone, --jobs 1
//    and 4, with one world built per topology;
//  * the 500-node 3-channel gateway scenario across domain worker counts;
//  * ineligible scenarios (mobility) building from scratch as "off";
//  * a topology whose world cannot be built failing only its own runs.
//
// Durations are short: the point is determinism, not protocol performance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mesh/fault/fault_schedule.hpp"
#include "mesh/harness/experiment.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/harness/topology_snapshot.hpp"
#include "mesh/metrics/metric.hpp"
#include "mesh/phy/link_model.hpp"
#include "mesh/runner/result_sink.hpp"
#include "mesh/runner/sweep.hpp"

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
// Capture/adopt byte-identity, 50-node single-channel cell

harness::ScenarioConfig smallScenario(std::uint64_t seed) {
  harness::ScenarioConfig config = harness::paperSimulationScenario();
  config.seed = seed;
  config.duration = 10_s;
  config.traffic.payloadBytes = 256;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 2_s;
  config.traffic.stop = 10_s;
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
  Rng groupRng = Rng{seed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 2, 8, 1, groupRng);
  return config;
}

TEST(Snapshot, AdoptIsByteIdenticalToScratch) {
  const std::string dir = ::testing::TempDir();
  const std::string traceScratch = dir + "/snap_scratch.trace.jsonl";
  const std::string traceBuilder = dir + "/snap_builder.trace.jsonl";
  const std::string traceAdopted = dir + "/snap_adopted.trace.jsonl";

  // Scratch: no snapshot machinery at all.
  harness::ScenarioConfig config = smallScenario(5150);
  config.tracePath = traceScratch;
  harness::RunResults scratch;
  {
    harness::Simulation sim{config};
    EXPECT_FALSE(sim.adoptedSnapshot());
    scratch = sim.run();
  }

  // Builder: same world, captured before running (the builder itself then
  // reads through the shared rows — the zero-copy freeze path).
  harness::TopologySnapshotPtr snapshot;
  harness::RunResults builder;
  {
    config.tracePath = traceBuilder;
    harness::Simulation sim{config};
    snapshot = sim.captureSnapshot();
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(snapshot->positions.size(), config.nodeCount);
    ASSERT_EQ(snapshot->reach.size(), 1u);
    EXPECT_EQ(snapshot->reach.front()->rows.size(), config.nodeCount);
    builder = sim.run();
  }

  // Adopter: a different protocol config field set (trace path) adopting
  // the builder's frozen world.
  harness::RunResults adopted;
  {
    config.tracePath = traceAdopted;
    harness::Simulation sim{config, snapshot};
    EXPECT_TRUE(sim.adoptedSnapshot());
    adopted = sim.run();
  }

  for (const harness::RunResults* r : {&builder, &adopted}) {
    EXPECT_EQ(scratch.packetsSent, r->packetsSent);
    EXPECT_EQ(scratch.packetsDelivered, r->packetsDelivered);
    EXPECT_EQ(scratch.pdr, r->pdr);
    EXPECT_EQ(scratch.throughputBps, r->throughputBps);
    EXPECT_EQ(scratch.meanDelayS, r->meanDelayS);
    EXPECT_EQ(scratch.probeOverheadPct, r->probeOverheadPct);
    EXPECT_EQ(scratch.eventsExecuted, r->eventsExecuted);
  }
  EXPECT_GT(scratch.packetsDelivered, 0u);

  const std::string bytes = slurp(traceScratch);
  ASSERT_FALSE(bytes.empty());
  EXPECT_TRUE(bytes == slurp(traceBuilder))
      << "capture changed the builder run's trace bytes";
  EXPECT_TRUE(bytes == slurp(traceAdopted))
      << "adopted run's trace diverged from scratch";
  std::remove(traceScratch.c_str());
  std::remove(traceBuilder.c_str());
  std::remove(traceAdopted.c_str());
}

TEST(Snapshot, IneligibleScenariosDeclineCapture) {
  harness::ScenarioConfig config = smallScenario(5151);
  config.mobilityMaxSpeedMps = 1.0;
  EXPECT_FALSE(harness::snapshotEligible(config));
  harness::Simulation sim{config};
  EXPECT_EQ(sim.captureSnapshot(), nullptr);
}

// ---------------------------------------------------------------------------
// Copy-on-write isolation: one adopter's faults never leak into the shared
// snapshot, and the snapshot's rows never leak stale state back.

TEST(Snapshot, FaultRunsDoNotPoisonTheSharedWorld) {
  const std::string dir = ::testing::TempDir();
  harness::ScenarioConfig clean = smallScenario(5252);

  // Fault timeline exercising both COW paths: a crash (row invalidation +
  // rebuild of the affected neighborhood) and a link blackout
  // (overrideLinkLoss, which must bypass the shared rows entirely).
  harness::ScenarioConfig faulty = clean;
  {
    fault::FaultEvent crash;
    crash.kind = trace::FaultKind::NodeCrash;
    crash.node = 7;
    crash.start = 3_s;
    crash.duration = 3_s;
    faulty.faults.add(crash);
    fault::FaultEvent blackout;
    blackout.kind = trace::FaultKind::LinkBlackout;
    blackout.node = 11;
    blackout.peer = 12;
    blackout.start = 4_s;
    blackout.duration = 2_s;
    faulty.faults.add(blackout);
  }

  // Reference runs, no snapshot machinery.
  const std::string traceFaultRef = dir + "/cow_fault_ref.trace.jsonl";
  const std::string traceCleanRef = dir + "/cow_clean_ref.trace.jsonl";
  {
    harness::ScenarioConfig c = faulty;
    c.tracePath = traceFaultRef;
    harness::Simulation sim{c};
    const harness::RunResults r = sim.run();
    EXPECT_GT(r.faultsApplied, 0u);
  }
  {
    harness::ScenarioConfig c = clean;
    c.tracePath = traceCleanRef;
    harness::Simulation{c}.run();
  }

  // One shared snapshot; the fault run adopts it FIRST, then a clean run
  // adopts the very same object. If the fault run wrote through the shared
  // rows, the clean run would diverge from its reference.
  harness::TopologySnapshotPtr snapshot;
  {
    harness::Simulation sim{clean};
    snapshot = sim.captureSnapshot();
    ASSERT_NE(snapshot, nullptr);
  }
  const std::string traceFaultAdopt = dir + "/cow_fault_adopt.trace.jsonl";
  const std::string traceCleanAdopt = dir + "/cow_clean_adopt.trace.jsonl";
  {
    harness::ScenarioConfig c = faulty;
    c.tracePath = traceFaultAdopt;
    harness::Simulation sim{c, snapshot};
    sim.run();
  }
  {
    harness::ScenarioConfig c = clean;
    c.tracePath = traceCleanAdopt;
    harness::Simulation sim{c, snapshot};
    sim.run();
  }

  const std::string faultRef = slurp(traceFaultRef);
  ASSERT_FALSE(faultRef.empty());
  EXPECT_NE(faultRef.find("\"ev\":\"fault_inject\""), std::string::npos);
  EXPECT_TRUE(faultRef == slurp(traceFaultAdopt))
      << "fault run over an adopted snapshot diverged from scratch";
  const std::string cleanRef = slurp(traceCleanRef);
  ASSERT_FALSE(cleanRef.empty());
  EXPECT_TRUE(cleanRef == slurp(traceCleanAdopt))
      << "a prior adopter's faults leaked into the shared snapshot";
  std::remove(traceFaultRef.c_str());
  std::remove(traceCleanRef.c_str());
  std::remove(traceFaultAdopt.c_str());
  std::remove(traceCleanAdopt.c_str());
}

// ---------------------------------------------------------------------------
// Sweep-level identity: shared worlds vs every plan run standalone

// A record's JSONL line without the fields that legitimately differ from a
// standalone run: wall-clock telemetry, the snapshot provenance tag and
// the trace directory (the file name is kept).
std::string comparableJson(runner::RunRecord record) {
  record.wallSeconds = 0.0;
  record.setupSeconds = 0.0;
  record.snapshot.clear();
  record.tracePath.erase(0, record.tracePath.find_last_of('/') + 1);
  return runner::JsonlResultSink::toJson(record);
}

void expectTraceDirsMatch(const runner::SweepReport& reference,
                          const std::string& dirA, const std::string& dirB) {
  for (const runner::RunRecord& record : reference.records) {
    ASSERT_FALSE(record.tracePath.empty());
    const std::string name =
        record.tracePath.substr(record.tracePath.find_last_of('/') + 1);
    const std::string bytes = slurp(dirA + "/" + name);
    EXPECT_FALSE(bytes.empty());
    EXPECT_TRUE(bytes == slurp(dirB + "/" + name))
        << "trace " << name << " diverged between " << dirA << " and " << dirB;
  }
}

void removeSweepOutputs(const runner::SweepReport& report,
                        const std::string& dir) {
  for (const runner::RunRecord& record : report.records) {
    const std::string name =
        record.tracePath.substr(record.tracePath.find_last_of('/') + 1);
    std::remove((dir + "/" + name).c_str());
  }
  std::remove((dir + "/results.jsonl").c_str());
}

TEST(SnapshotSweep, MatchesStandaloneRunsAcrossJobCounts) {
  const std::vector<harness::ProtocolSpec> protocols =
      harness::figure2Protocols();
  constexpr std::size_t kTopologies = 3;
  harness::BenchOptions options;
  options.topologies = kTopologies;
  options.duration = SimTime::zero();  // keep the scenario's 10 s
  options.baseSeed = 6200;
  options.verbose = false;

  // Reference: each plan run standalone, building its own world.
  const std::string dirRef = ::testing::TempDir() + "snap_ref";
  options.traceDir = dirRef;
  const std::vector<runner::RunPlan> plans =
      runner::buildComparisonPlans(protocols, smallScenario, options);
  ASSERT_EQ(plans.size(), kTopologies * protocols.size());
  runner::SweepReport reference;
  for (const runner::RunPlan& plan : plans) {
    runner::RunRecord record;
    record.topologyIndex = plan.topologyIndex;
    record.protocolIndex = plan.protocolIndex;
    record.seed = plan.seed;
    record.protocolName = plan.protocolName;
    record.tracePath = plan.config.tracePath;
    record.results = harness::Simulation{plan.config}.run();
    record.eventsExecuted = record.results.eventsExecuted;
    record.ok = true;
    reference.records.push_back(std::move(record));
  }

  const auto runSweep = [&](std::size_t jobs, const std::string& dir) {
    harness::BenchOptions o = options;
    o.jobs = jobs;
    o.traceDir = dir;
    o.jsonlPath = dir + "/results.jsonl";
    runner::JsonlResultSink sink{o.jsonlPath};
    return runner::runComparisonSweep(protocols, smallScenario, o, &sink);
  };
  const std::string dir1 = ::testing::TempDir() + "snap_j1";
  const std::string dir4 = ::testing::TempDir() + "snap_j4";
  const runner::SweepReport sweep1 = runSweep(1, dir1);
  const runner::SweepReport sweep4 = runSweep(4, dir4);

  for (const runner::SweepReport* r : {&sweep1, &sweep4}) {
    ASSERT_EQ(r->failures, 0u);
    ASSERT_EQ(r->records.size(), reference.records.size());
    // One build per topology, every sibling adopts — at any job count.
    EXPECT_EQ(r->snapshotsBuilt, kTopologies);
    EXPECT_EQ(r->snapshotsReused, kTopologies * (protocols.size() - 1));
    EXPECT_GT(r->setupSeconds, 0.0);
    std::vector<std::size_t> builtPerTopology(kTopologies, 0);
    for (std::size_t i = 0; i < r->records.size(); ++i) {
      const runner::RunRecord& record = r->records[i];
      if (record.snapshot == "built") ++builtPerTopology[record.topologyIndex];
      EXPECT_EQ(comparableJson(record),
                comparableJson(reference.records[i]));
    }
    for (const std::size_t built : builtPerTopology) EXPECT_EQ(built, 1u);
  }
  expectTraceDirsMatch(reference, dirRef, dir1);
  expectTraceDirsMatch(reference, dirRef, dir4);

  // The JSONL rows carry the world-sharing telemetry.
  const std::string jsonl = slurp(dir1 + "/results.jsonl");
  EXPECT_NE(jsonl.find("\"setup_seconds\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"snapshot\":\"built\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"snapshot\":\"reused\""), std::string::npos);

  removeSweepOutputs(reference, dirRef);
  removeSweepOutputs(sweep1, dir1);
  removeSweepOutputs(sweep4, dir4);
}

TEST(SnapshotSweep, IneligibleScenariosReportOff) {
  const auto mobileScenario = [](std::uint64_t seed) {
    harness::ScenarioConfig config = smallScenario(seed);
    config.duration = 6_s;
    config.traffic.stop = 6_s;
    config.mobilityMaxSpeedMps = 2.0;
    return config;
  };
  harness::BenchOptions options;
  options.topologies = 1;
  options.duration = SimTime::zero();
  options.baseSeed = 6300;
  options.verbose = false;
  options.jobs = 1;
  const runner::SweepReport report = runner::runComparisonSweep(
      {harness::ProtocolSpec::with(metrics::MetricKind::Spp)}, mobileScenario,
      options, nullptr);
  ASSERT_EQ(report.failures, 0u);
  EXPECT_EQ(report.snapshotsBuilt, 0u);
  EXPECT_EQ(report.snapshotsReused, 0u);
  for (const runner::RunRecord& r : report.records) {
    EXPECT_EQ(r.snapshot, "off");
  }
}

TEST(SnapshotSweep, ThrowingBuilderFailsOnlyItsOwnTopology) {
  // Topology 1's world cannot be built. Every one of its runs must enter
  // the build in turn (a throw leaves the slot unbuilt), fail on its own,
  // and never hang its siblings; topology 0 still shares its world.
  const auto makeScenario = [](std::uint64_t seed) {
    harness::ScenarioConfig config = smallScenario(seed);
    config.duration = 6_s;
    config.traffic.stop = 6_s;
    if (seed == 6501) {
      config.linkModelFactory =
          [](sim::Simulator&, Rng&) -> std::unique_ptr<phy::LinkModel> {
        throw std::runtime_error{"injected build failure"};
      };
    }
    return config;
  };
  harness::BenchOptions options;
  options.topologies = 2;
  options.duration = SimTime::zero();
  options.baseSeed = 6500;
  options.verbose = false;
  options.jobs = 4;
  const std::vector<harness::ProtocolSpec> protocols = {
      harness::ProtocolSpec::original(),
      harness::ProtocolSpec::with(metrics::MetricKind::Etx),
      harness::ProtocolSpec::with(metrics::MetricKind::Spp)};
  const runner::SweepReport report =
      runner::runComparisonSweep(protocols, makeScenario, options, nullptr);

  ASSERT_EQ(report.records.size(), 6u);
  EXPECT_EQ(report.failures, 3u);
  EXPECT_EQ(report.snapshotsBuilt, 1u);
  EXPECT_EQ(report.snapshotsReused, 2u);
  for (const runner::RunRecord& r : report.records) {
    if (r.topologyIndex == 0) {
      EXPECT_TRUE(r.ok) << r.error;
    } else {
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find("injected build failure"), std::string::npos);
      EXPECT_EQ(r.snapshot, "off");
    }
  }
}

// ---------------------------------------------------------------------------
// 500 nodes, 3 channels, boundary gateways: adoption must reproduce the
// scratch bytes at every domain worker count (the snapshot's rows include
// the gateway port radios, which attach after the domain's own nodes).

harness::ScenarioConfig gatewayScenario(std::uint64_t seed) {
  harness::ScenarioConfig config = harness::scaledSimulationScenario(500);
  config.areaWidthM /= std::sqrt(3.0);
  config.areaHeightM /= std::sqrt(3.0);
  config.seed = seed;
  config.duration = 6_s;
  config.traffic.payloadBytes = 256;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 2_s;
  config.traffic.stop = 6_s;
  config.channels = 3;
  config.gateways = 9;
  config.gatewaySelect = gateway::GatewaySelect::Boundary;
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
  Rng groupRng = Rng{seed}.fork("gwgroups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 3, 8, 1, groupRng);
  return config;
}

TEST(SnapshotMultiChannel, AdoptionByteIdenticalAcrossWorkerCounts) {
  const std::string dir = ::testing::TempDir();
  harness::ScenarioConfig config = gatewayScenario(6400);

  const std::string traceScratch = dir + "/snapmc_scratch.trace.jsonl";
  harness::RunResults scratch;
  {
    harness::ScenarioConfig c = config;
    c.tracePath = traceScratch;
    harness::Simulation sim{c};
    EXPECT_EQ(sim.channelCount(), 3u);
    scratch = sim.run();
  }
  EXPECT_GT(scratch.packetsDelivered, 0u);
  EXPECT_GT(scratch.handoffFrames, 0u);

  harness::TopologySnapshotPtr snapshot;
  {
    harness::Simulation sim{config};
    snapshot = sim.captureSnapshot();
    ASSERT_NE(snapshot, nullptr);
    ASSERT_EQ(snapshot->reach.size(), 3u);
    EXPECT_EQ(snapshot->gatewaySet.nodes.size(), 9u);
  }

  const std::string bytes = slurp(traceScratch);
  ASSERT_FALSE(bytes.empty());
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const std::string tracePath =
        dir + "/snapmc_w" + std::to_string(workers) + ".trace.jsonl";
    harness::ScenarioConfig c = config;
    c.domainWorkers = workers;
    c.tracePath = tracePath;
    harness::Simulation sim{c, snapshot};
    EXPECT_TRUE(sim.adoptedSnapshot());
    const harness::RunResults r = sim.run();
    EXPECT_EQ(scratch.packetsDelivered, r.packetsDelivered);
    EXPECT_EQ(scratch.eventsExecuted, r.eventsExecuted);
    EXPECT_EQ(scratch.channelFrames, r.channelFrames);
    EXPECT_EQ(scratch.handoffFrames, r.handoffFrames);
    EXPECT_TRUE(bytes == slurp(tracePath))
        << "adopted run (workers=" << workers << ") diverged from scratch";
    std::remove(tracePath.c_str());
  }
  std::remove(traceScratch.c_str());
}

}  // namespace
}  // namespace mesh
