// Topology-snapshot cache (robustness tier), DESIGN §14.
//
// The snapshot subsystem promises one identity and pins it here from every
// angle: a run that adopts a cached world — placement, spatial grid,
// frozen link rows, channel plan, gateway roster — is byte-identical
// (traces and results) to the same run building its world from scratch.
// Covered:
//  * capture/adopt on the 50-node single-channel paper cell;
//  * copy-on-write isolation: a fault run adopting a snapshot never
//    poisons it for later adopters;
//  * sweep-level identity, cache on vs off, --jobs 1 vs 4;
//  * the 500-node 3-channel gateway scenario across domain worker counts;
//  * ineligible scenarios (mobility) bypassing the cache as "off";
//  * SnapshotCache unit contracts (key scope, reuse, abandon, LRU budget).
//
// Durations are short: the point is determinism, not protocol performance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mesh/fault/fault_schedule.hpp"
#include "mesh/harness/experiment.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/harness/topology_snapshot.hpp"
#include "mesh/metrics/metric.hpp"
#include "mesh/runner/result_sink.hpp"
#include "mesh/runner/snapshot_cache.hpp"
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
// SnapshotCache unit contracts

TEST(SnapshotCache, KeyCoversTopologyFieldsOnly) {
  harness::ScenarioConfig base = harness::paperSimulationScenario();
  base.seed = 42;
  const std::string key = runner::SnapshotCache::keyFor(base);

  // Protocol-/workload-side fields must NOT change the key: sharing the
  // world across protocols is the whole point.
  {
    harness::ScenarioConfig c = base;
    c.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Ett);
    c.duration = 5_s;
    c.traffic.packetsPerSecond = 99.0;
    c.domainWorkers = 4;
    c.tracePath = "/tmp/other.trace";
    EXPECT_EQ(runner::SnapshotCache::keyFor(c), key);
  }
  // Topology-side fields MUST change the key.
  const auto differs = [&](harness::ScenarioConfig c) {
    return runner::SnapshotCache::keyFor(c) != key;
  };
  {
    harness::ScenarioConfig c = base;
    c.seed = 43;
    EXPECT_TRUE(differs(c));
  }
  {
    harness::ScenarioConfig c = base;
    c.nodeCount = 60;
    EXPECT_TRUE(differs(c));
  }
  {
    harness::ScenarioConfig c = base;
    c.channels = 3;
    EXPECT_TRUE(differs(c));
  }
  {
    harness::ScenarioConfig c = base;
    c.gateways = 4;
    EXPECT_TRUE(differs(c));
  }
  {
    harness::ScenarioConfig c = base;
    c.node.phy.txPowerW *= 2.0;
    EXPECT_TRUE(differs(c));
  }
  {
    harness::ScenarioConfig c = base;
    c.placement = harness::Placement::Grid;
    EXPECT_TRUE(differs(c));
  }
}

runner::TopologySnapshotPtr dummySnapshot(std::size_t positionCount) {
  auto snap = std::make_shared<runner::TopologySnapshot>();
  snap->positions.resize(positionCount);
  return snap;
}

TEST(SnapshotCache, FirstClaimantBuildsLaterCallersReuse) {
  runner::SnapshotCache cache;
  bool shouldBuild = false;
  EXPECT_EQ(cache.acquire("k", shouldBuild), nullptr);
  EXPECT_TRUE(shouldBuild);

  auto snap = dummySnapshot(10);
  cache.publish("k", snap);

  shouldBuild = true;
  EXPECT_EQ(cache.acquire("k", shouldBuild), snap);
  EXPECT_FALSE(shouldBuild);
  const runner::SnapshotCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.built, 1u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(SnapshotCache, AbandonReleasesTheClaim) {
  runner::SnapshotCache cache;
  bool shouldBuild = false;
  EXPECT_EQ(cache.acquire("k", shouldBuild), nullptr);
  ASSERT_TRUE(shouldBuild);
  cache.abandon("k");
  EXPECT_EQ(cache.stats().failed, 1u);
  // The key is claimable again after a failed build.
  shouldBuild = false;
  EXPECT_EQ(cache.acquire("k", shouldBuild), nullptr);
  EXPECT_TRUE(shouldBuild);
}

TEST(SnapshotCache, EvictsLeastRecentlyUsedOverBudget) {
  // Each dummy snapshot is ~48 KiB of positions; the budget holds one.
  runner::SnapshotCache cache{64 * 1024};
  bool shouldBuild = false;
  cache.acquire("a", shouldBuild);
  cache.publish("a", dummySnapshot(3000));
  cache.acquire("b", shouldBuild);
  cache.publish("b", dummySnapshot(3000));  // evicts "a" (LRU back)

  EXPECT_EQ(cache.stats().evicted, 1u);
  EXPECT_NE(cache.acquire("b", shouldBuild), nullptr);  // still resident
  EXPECT_FALSE(shouldBuild);
  EXPECT_EQ(cache.acquire("a", shouldBuild), nullptr);  // evicted: rebuild
  EXPECT_TRUE(shouldBuild);
  cache.abandon("a");
}

TEST(SnapshotCache, EnvironmentOverrideParses) {
  ::setenv("MESH_TOPOLOGY_CACHE", "off", 1);
  EXPECT_EQ(runner::SnapshotCache::enabledFromEnvironment(), false);
  ::setenv("MESH_TOPOLOGY_CACHE", "on", 1);
  EXPECT_EQ(runner::SnapshotCache::enabledFromEnvironment(), true);
  ::setenv("MESH_TOPOLOGY_CACHE", "bogus", 1);
  EXPECT_EQ(runner::SnapshotCache::enabledFromEnvironment(), std::nullopt);
  ::unsetenv("MESH_TOPOLOGY_CACHE");
  EXPECT_EQ(runner::SnapshotCache::enabledFromEnvironment(), std::nullopt);
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
    EXPECT_GT(snapshot->approxBytes(), 0u);
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
// Sweep-level identity: cache on vs off, --jobs 1 vs 4

void expectEquivalentRecords(const runner::SweepReport& a,
                             const runner::SweepReport& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const runner::RunRecord& x = a.records[i];
    const runner::RunRecord& y = b.records[i];
    // Everything but wall-clock telemetry and the snapshot provenance tag
    // must agree exactly.
    EXPECT_EQ(x.seed, y.seed);
    EXPECT_EQ(x.protocolName, y.protocolName);
    EXPECT_EQ(x.ok, y.ok);
    EXPECT_EQ(x.results.packetsSent, y.results.packetsSent);
    EXPECT_EQ(x.results.packetsDelivered, y.results.packetsDelivered);
    EXPECT_EQ(x.results.pdr, y.results.pdr);
    EXPECT_EQ(x.results.throughputBps, y.results.throughputBps);
    EXPECT_EQ(x.results.meanDelayS, y.results.meanDelayS);
    EXPECT_EQ(x.results.probeOverheadPct, y.results.probeOverheadPct);
    EXPECT_EQ(x.results.controlBytesReceived, y.results.controlBytesReceived);
    EXPECT_EQ(x.eventsExecuted, y.eventsExecuted);
    EXPECT_EQ(x.results.channelFrames, y.results.channelFrames);
    EXPECT_EQ(x.results.handoffFrames, y.results.handoffFrames);
  }
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

TEST(SnapshotSweep, CacheOnMatchesCacheOffAcrossJobCounts) {
  ::unsetenv("MESH_TOPOLOGY_CACHE");  // the knob under test
  const std::vector<harness::ProtocolSpec> protocols = {
      harness::ProtocolSpec::original(),
      harness::ProtocolSpec::with(metrics::MetricKind::Spp)};

  const auto runSweep = [&](bool cache, std::size_t jobs,
                            const std::string& dir) {
    harness::BenchOptions options;
    options.topologies = 2;
    options.duration = SimTime::zero();  // keep the scenario's 10 s
    options.baseSeed = 6200;
    options.verbose = false;
    options.jobs = jobs;
    options.topologyCache = cache;
    options.traceDir = dir;
    options.jsonlPath = dir + "/results.jsonl";
    runner::JsonlResultSink sink{options.jsonlPath};
    return runner::runComparisonSweep(protocols, smallScenario, options, &sink);
  };

  const std::string dirOff = ::testing::TempDir() + "snap_off";
  const std::string dirOn1 = ::testing::TempDir() + "snap_on_j1";
  const std::string dirOn4 = ::testing::TempDir() + "snap_on_j4";
  const runner::SweepReport off = runSweep(false, 1, dirOff);
  const runner::SweepReport on1 = runSweep(true, 1, dirOn1);
  const runner::SweepReport on4 = runSweep(true, 4, dirOn4);

  ASSERT_EQ(off.failures, 0u);
  ASSERT_EQ(on1.failures, 0u);
  ASSERT_EQ(on4.failures, 0u);

  // Cache off: every record bypassed the snapshot machinery.
  EXPECT_EQ(off.snapshotsBuilt, 0u);
  EXPECT_EQ(off.snapshotsReused, 0u);
  for (const runner::RunRecord& r : off.records) EXPECT_EQ(r.snapshot, "off");

  // Cache on: exactly one build per topology seed, every sibling reused —
  // at any job count.
  for (const runner::SweepReport* r : {&on1, &on4}) {
    EXPECT_EQ(r->snapshotsBuilt, 2u);
    EXPECT_EQ(r->snapshotsReused, r->records.size() - 2u);
    EXPECT_GT(r->setupSeconds, 0.0);
  }

  expectEquivalentRecords(off, on1);
  expectEquivalentRecords(off, on4);
  expectTraceDirsMatch(off, dirOff, dirOn1);
  expectTraceDirsMatch(off, dirOff, dirOn4);

  // The JSONL rows carry the new telemetry fields.
  const std::string jsonlOn = slurp(dirOn1 + "/results.jsonl");
  EXPECT_NE(jsonlOn.find("\"setup_seconds\":"), std::string::npos);
  EXPECT_NE(jsonlOn.find("\"snapshot\":\"built\""), std::string::npos);
  EXPECT_NE(jsonlOn.find("\"snapshot\":\"reused\""), std::string::npos);
  const std::string jsonlOff = slurp(dirOff + "/results.jsonl");
  EXPECT_NE(jsonlOff.find("\"snapshot\":\"off\""), std::string::npos);

  removeSweepOutputs(off, dirOff);
  removeSweepOutputs(on1, dirOn1);
  removeSweepOutputs(on4, dirOn4);
}

TEST(SnapshotSweep, IneligibleScenariosReportOff) {
  ::unsetenv("MESH_TOPOLOGY_CACHE");
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
  options.topologyCache = true;  // enabled, but every scenario is ineligible
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
