// Fault-injection subsystem (src/mesh/fault): schedule construction and
// churn generation, the config `[faults]` grammar, injector semantics at
// the PHY, ODMRP forwarding-group repair after an upstream node dies
// silently, and — the determinism contract — a 50-node churn run whose
// trace export is byte-identical across sweep job counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mesh/fault/fault_injector.hpp"
#include "mesh/fault/fault_schedule.hpp"
#include "mesh/harness/config_file.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/phy/link_model.hpp"
#include "mesh/runner/sweep.hpp"
#include "mesh/trace/replay.hpp"
#include "mesh/trace/trace_event.hpp"
#include "mesh/trace/trace_reader.hpp"

namespace mesh {
namespace {

using namespace mesh::time_literals;
using fault::ChurnSpec;
using fault::FaultEvent;
using fault::FaultSchedule;
using harness::ProtocolSpec;
using harness::ScenarioConfig;
using trace::FaultKind;

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

FaultEvent crashAt(net::NodeId node, SimTime start,
                   SimTime duration = SimTime::zero()) {
  FaultEvent event;
  event.kind = FaultKind::NodeCrash;
  event.node = node;
  event.start = start;
  event.duration = duration;
  return event;
}

// ------------------------------------------------------------ schedule

TEST(FaultSchedule, KeepsEventsInCanonicalTimelineOrder) {
  FaultEvent blackout;
  blackout.kind = FaultKind::LinkBlackout;
  blackout.node = 1;
  blackout.peer = 4;
  blackout.start = 5_s;
  blackout.duration = 2_s;

  // Inserted deliberately out of order; events() must come back sorted by
  // (start, kind, node, peer) so arming order equals timeline order.
  FaultSchedule schedule = FaultSchedule::fromEvents(
      {crashAt(9, 7_s), blackout, crashAt(2, 5_s), crashAt(1, 5_s)});
  ASSERT_EQ(schedule.size(), 4u);
  EXPECT_EQ(schedule.events()[0].node, 1);  // 5 s, crash sorts before blackout
  EXPECT_EQ(schedule.events()[1].node, 2);
  EXPECT_EQ(schedule.events()[2].kind, FaultKind::LinkBlackout);
  EXPECT_EQ(schedule.events()[3].start, 7_s);

  FaultSchedule incremental;
  EXPECT_TRUE(incremental.empty());
  incremental.add(crashAt(9, 7_s));
  incremental.add(crashAt(1, 5_s));
  EXPECT_EQ(incremental.events()[0].start, 5_s);
}

TEST(FaultSchedule, MergedWindowsClampOverlapAndPermanentFaults) {
  FaultSchedule schedule = FaultSchedule::fromEvents({
      crashAt(1, 10_s, 5_s),   // [10, 15)
      crashAt(2, 12_s, 6_s),   // [12, 18) — overlaps the first
      crashAt(3, 30_s, 20_s),  // [30, 50) — clamped to the 40 s horizon
      crashAt(4, 25_s, 2_s),   // [25, 27)
  });
  const auto windows = schedule.mergedWindows(40_s);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0], std::make_pair(SimTime{10_s}, SimTime{18_s}));
  EXPECT_EQ(windows[1], std::make_pair(SimTime{25_s}, SimTime{27_s}));
  EXPECT_EQ(windows[2], std::make_pair(SimTime{30_s}, SimTime{40_s}));
  EXPECT_EQ(schedule.faultWindow(40_s), 20_s);

  // duration == 0 means permanent: the window runs to the horizon.
  FaultSchedule permanent = FaultSchedule::fromEvents({crashAt(5, 30_s)});
  const auto w = permanent.mergedWindows(100_s);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].second, 100_s);
}

TEST(FaultSchedule, ChurnGenerationIsSeedDeterministicAndBounded) {
  ChurnSpec spec;
  spec.crashesPerMinute = 6.0;
  spec.blackoutsPerMinute = 6.0;
  spec.burstsPerMinute = 6.0;
  spec.warmup = 20_s;
  const std::vector<net::NodeId> nodes{3, 7, 11, 15, 19};
  const SimTime horizon = 300_s;

  const FaultSchedule a = FaultSchedule::generate(spec, horizon, nodes, Rng{42});
  const FaultSchedule b = FaultSchedule::generate(spec, horizon, nodes, Rng{42});
  const FaultSchedule c = FaultSchedule::generate(spec, horizon, nodes, Rng{43});

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_EQ(a.events()[i].peer, b.events()[i].peer);
    EXPECT_EQ(a.events()[i].start, b.events()[i].start);
    EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
  }
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = !(a.events()[i].start == c.events()[i].start &&
                a.events()[i].node == c.events()[i].node);
  }
  EXPECT_TRUE(differs);  // a different seed must yield a different timeline

  // ~4.7 expected events/category over [20 s, 300 s): all categories show up.
  std::size_t crashes = 0, blackouts = 0, bursts = 0;
  for (const FaultEvent& event : a.events()) {
    EXPECT_GE(event.start, spec.warmup);
    EXPECT_LT(event.start, horizon);
    switch (event.kind) {
      case FaultKind::NodeCrash: ++crashes; break;
      case FaultKind::LinkBlackout:
        ++blackouts;
        EXPECT_NE(event.node, event.peer);
        break;
      case FaultKind::InterferenceBurst:
        ++bursts;
        EXPECT_FALSE(event.duration.isZero());  // bursts need a window
        break;
      default:
        ADD_FAILURE() << "unexpected generated kind";
    }
    bool victimKnown = false;
    for (const net::NodeId n : nodes) victimKnown |= event.node == n;
    EXPECT_TRUE(victimKnown);
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(blackouts, 0u);
  EXPECT_GT(bursts, 0u);
}

TEST(FaultSchedule, RateWhoseGapCannotAdvanceTheClockIsRefused) {
  // A mean gap of 6e-17 s added to ~30 s leaves the clock where it was:
  // generation must refuse instead of looping forever.
  ChurnSpec spec;
  spec.crashesPerMinute = 1e18;
  const std::vector<net::NodeId> nodes{1, 2, 3};
  EXPECT_THROW(FaultSchedule::generate(spec, 30_s, nodes, Rng{1}),
               std::invalid_argument);
  spec.crashesPerMinute = 6.0;
  spec.burstsPerMinute = 1e18;
  EXPECT_THROW(FaultSchedule::generate(spec, 30_s, nodes, Rng{1}),
               std::invalid_argument);
}

// ------------------------------------------------------------ fault records

TEST(FaultTrace, FaultKindStringsRoundTrip) {
  for (std::uint8_t i = 0; i <= 4; ++i) {
    const auto kind = static_cast<FaultKind>(i);
    FaultKind back{};
    ASSERT_TRUE(trace::faultKindFromString(trace::toString(kind), back))
        << trace::toString(kind);
    EXPECT_EQ(back, kind);
  }
  FaultKind out{};
  EXPECT_FALSE(trace::faultKindFromString("gremlins", out));
}

TEST(FaultTrace, NewEventTypesAndDropReasonsRoundTrip) {
  for (const auto type :
       {trace::EventType::FaultInject, trace::EventType::FaultClear}) {
    trace::EventType back{};
    ASSERT_TRUE(trace::eventTypeFromString(trace::toString(type), back));
    EXPECT_EQ(back, type);
  }
  for (const auto reason :
       {trace::DropReason::FaultNodeDown, trace::DropReason::FaultLinkDown,
        trace::DropReason::FaultProbeBlackhole}) {
    trace::DropReason back{};
    ASSERT_TRUE(trace::dropReasonFromString(trace::toString(reason), back));
    EXPECT_EQ(back, reason);
  }
}

// ------------------------------------------------------------ config grammar

TEST(FaultConfig, ParsesEveryEventFormAndChurnKeys) {
  const auto result = harness::parseScenarioConfig(R"(
[scenario]
nodes = 10

[group 1]
sources = 0
members = 8 9

[faults]
event = crash 3 @ 10 +5
event = blackout 1-2 @ 12
event = loss 2-4 0.25 @ 8 +10
event = burst 5 -48.5 @ 20 +0.5
event = blackhole 6 @ 15 +30
crashes_per_minute = 2
blackouts_per_minute = 0.5
bursts_per_minute = 1.5
mean_outage_s = 3
mean_burst_s = 0.25
burst_power_dbm = -60
warmup_s = 25
)");
  ASSERT_TRUE(result.ok()) << result.error;
  const ScenarioConfig& config = *result.config;

  ASSERT_EQ(config.faults.size(), 5u);
  const auto& events = config.faults.events();
  // Sorted by start: loss@8, crash@10, blackout@12, blackhole@15, burst@20.
  EXPECT_EQ(events[0].kind, FaultKind::LossRamp);
  EXPECT_EQ(events[0].node, 2);
  EXPECT_EQ(events[0].peer, 4);
  EXPECT_DOUBLE_EQ(events[0].lossRate, 0.25);
  EXPECT_EQ(events[0].start, 8_s);
  EXPECT_EQ(events[0].duration, 10_s);
  EXPECT_EQ(events[1].kind, FaultKind::NodeCrash);
  EXPECT_EQ(events[1].node, 3);
  EXPECT_EQ(events[1].duration, 5_s);
  EXPECT_EQ(events[2].kind, FaultKind::LinkBlackout);
  EXPECT_TRUE(events[2].duration.isZero());  // permanent
  EXPECT_EQ(events[3].kind, FaultKind::ProbeBlackhole);
  EXPECT_EQ(events[3].node, 6);
  EXPECT_EQ(events[4].kind, FaultKind::InterferenceBurst);
  EXPECT_DOUBLE_EQ(events[4].powerDbm, -48.5);
  EXPECT_EQ(events[4].duration, 500_ms);

  ASSERT_TRUE(config.churn.has_value());
  EXPECT_DOUBLE_EQ(config.churn->crashesPerMinute, 2.0);
  EXPECT_DOUBLE_EQ(config.churn->blackoutsPerMinute, 0.5);
  EXPECT_DOUBLE_EQ(config.churn->burstsPerMinute, 1.5);
  EXPECT_EQ(config.churn->meanOutage, 3_s);
  EXPECT_EQ(config.churn->meanBurst, 250_ms);
  EXPECT_DOUBLE_EQ(config.churn->burstPowerDbm, -60.0);
  EXPECT_EQ(config.churn->warmup, 25_s);
}

TEST(FaultConfig, RejectsMalformedEvents) {
  const auto parseFaults = [](const std::string& line) {
    return harness::parseScenarioConfig(
        "[scenario]\nnodes = 10\n[group 1]\nsources = 0\nmembers = 1\n"
        "[faults]\n" + line + "\n");
  };
  EXPECT_FALSE(parseFaults("event = meteor 1 @ 5").ok());
  EXPECT_FALSE(parseFaults("event = crash 1").ok());          // missing '@'
  EXPECT_FALSE(parseFaults("event = burst 1 -50 @ 5").ok());  // needs +dur
  EXPECT_FALSE(parseFaults("event = blackout 2-2 @ 5").ok()); // self-link
  EXPECT_FALSE(parseFaults("event = loss 1-2 1.5 @ 5").ok()); // rate > 1
  EXPECT_FALSE(parseFaults("event = crash 1 @ -3").ok());
  EXPECT_FALSE(parseFaults("event = crash 99 @ 5").ok());     // id >= nodes
  EXPECT_FALSE(parseFaults("crashes_per_minute = -1").ok());
  EXPECT_TRUE(parseFaults("event = crash 9 @ 5").ok());
}

// ------------------------------------------------------------ injector

// Two nodes in trivially good range, no fading: every loss below is a
// fault, not the channel.
ScenarioConfig twoNodeChain() {
  ScenarioConfig config;
  config.nodeCount = 2;
  config.rayleighFading = false;
  config.duration = 30_s;
  config.traffic.payloadBytes = 128;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 1_s;
  config.traffic.stop = 29_s;
  config.groups = {harness::GroupSpec{1, {0}, {1}}};
  config.seed = 5;
  const std::vector<Vec2> positions{{0.0, 0.0}, {150.0, 0.0}};
  config.fixedPositions = positions;
  config.linkModelFactory = [positions](sim::Simulator&, Rng&) {
    return std::make_unique<phy::GeometricLinkModel>(
        phy::PhyParams{}, positions, std::make_unique<phy::TwoRayGroundModel>(),
        std::make_unique<phy::NoFading>());
  };
  return config;
}

TEST(FaultInjector, CrashFailsTheRadioAndRecoveryRestoresIt) {
  ScenarioConfig config = twoNodeChain();
  // Any future fault makes the harness construct an injector; this one is
  // beyond the run and never fires on its own.
  config.faults.add(crashAt(1, 1000_s));
  harness::Simulation sim{std::move(config)};
  fault::FaultInjector* injector = sim.faultInjector();
  ASSERT_NE(injector, nullptr);

  phy::Radio* radio = sim.channel().findRadio(1);
  ASSERT_NE(radio, nullptr);
  EXPECT_FALSE(radio->failed());

  const FaultEvent crash = crashAt(1, SimTime::zero(), 5_s);
  injector->applyNow(crash);
  EXPECT_TRUE(radio->failed());
  EXPECT_FALSE(radio->mediumBusy());  // a dead radio hears nothing
  EXPECT_EQ(injector->stats().applied, 1u);
  EXPECT_EQ(injector->stats().crashes, 1u);

  injector->clearNow(crash);
  EXPECT_FALSE(radio->failed());
  EXPECT_EQ(injector->stats().cleared, 1u);
}

TEST(FaultInjector, BlackoutWindowSuppressesDeliveryThenHeals) {
  ScenarioConfig config = twoNodeChain();
  FaultEvent blackout;
  blackout.kind = FaultKind::LinkBlackout;
  blackout.node = 0;
  blackout.peer = 1;
  blackout.start = 10_s;
  blackout.duration = 10_s;
  config.faults.add(blackout);

  harness::Simulation sim{std::move(config)};
  const harness::RunResults results = sim.run();

  EXPECT_EQ(results.faultsApplied, 1u);
  EXPECT_EQ(results.faultsCleared, 1u);
  EXPECT_NEAR(results.faultWindowS, 10.0, 1e-9);
  // The only link is dark for the whole window: in-window PDR collapses,
  // out-window delivery stays clean, and the channel accounts every
  // suppressed frame.
  EXPECT_LT(results.inWindowPdr, 0.2);
  EXPECT_GT(results.outWindowPdr, 0.8);
  EXPECT_GT(sim.channel().stats().faultSuppressedDeliveries, 0u);
  EXPECT_GT(results.pdr, 0.5);  // still delivers outside the window
}

TEST(FaultInjector, ProbeBlackholeEatsProbesWithoutTouchingData) {
  ScenarioConfig config = twoNodeChain();
  config.protocol = ProtocolSpec::with(metrics::MetricKind::Etx);
  FaultEvent blackhole;
  blackhole.kind = FaultKind::ProbeBlackhole;
  blackhole.node = 1;
  blackhole.start = 5_s;  // permanent from 5 s on
  config.faults.add(blackhole);

  harness::Simulation sim{std::move(config)};
  const harness::RunResults results = sim.run();

  EXPECT_EQ(sim.faultInjector()->stats().blackholes, 1u);
  EXPECT_GT(sim.node(1).byteCounters().probesBlackholed, 0u);
  EXPECT_EQ(sim.counters().value("app.probes_blackholed"),
            sim.node(1).byteCounters().probesBlackholed);
  // Data keeps flowing: the blackhole starves the metric, not the mesh.
  EXPECT_GT(results.pdr, 0.8);
}

// -------------------------------------------- forwarding-group repair

// Diamond: source 0 at (0,0), relays 1/2 at (200,±100), member 3 at
// (400,0). The source cannot reach the member directly (400 m with a
// ~250 m range), so ODMRP must hold a forwarding group through a relay.
TEST(FaultRepair, OdmrpForwardingGroupExpiresAndReroutesAfterUpstreamDeath) {
  ScenarioConfig config;
  config.nodeCount = 4;
  config.rayleighFading = false;
  config.duration = 45_s;
  config.traffic.payloadBytes = 128;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 2_s;
  config.traffic.stop = 44_s;
  config.groups = {harness::GroupSpec{1, {0}, {3}}};
  config.protocol = ProtocolSpec::with(metrics::MetricKind::Etx);
  config.seed = 9;
  const std::vector<Vec2> positions{
      {0.0, 0.0}, {200.0, 100.0}, {200.0, -100.0}, {400.0, 0.0}};
  config.fixedPositions = positions;
  config.linkModelFactory = [positions](sim::Simulator&, Rng&) {
    return std::make_unique<phy::GeometricLinkModel>(
        phy::PhyParams{}, positions, std::make_unique<phy::TwoRayGroundModel>(),
        std::make_unique<phy::NoFading>());
  };
  config.faults.add(crashAt(1, 1000_s));  // injector only; never fires

  harness::Simulation sim{std::move(config)};
  sim::Simulator& simulator = sim.simulator();

  net::NodeId victim = net::kInvalidNode;
  net::NodeId survivor = net::kInvalidNode;
  std::uint64_t deliveredAtCrash = 0;

  // 15 s in (five query rounds), at least one relay must be forwarding.
  // Kill it silently — no goodbye, the radio just stops — and let the
  // protocol notice through refresh silence alone.
  simulator.schedule(15_s, [&] {
    const bool relay1 = sim.node(1).protocol().isForwarder(net::GroupId{1});
    const bool relay2 = sim.node(2).protocol().isForwarder(net::GroupId{1});
    ASSERT_TRUE(relay1 || relay2);
    victim = relay1 ? net::NodeId{1} : net::NodeId{2};
    survivor = relay1 ? net::NodeId{2} : net::NodeId{1};
    deliveredAtCrash = sim.counters().value("app.packets_delivered");
    EXPECT_GT(deliveredAtCrash, 0u);
    sim.faultInjector()->applyNow(crashAt(victim, simulator.now()));
    EXPECT_TRUE(sim.channel().findRadio(victim)->failed());
  });

  // Crash + FG timeout (9 s) + a query round of slack: the dead relay's
  // forwarding flag must have expired (it heard no JoinTable refresh while
  // down), and the surviving relay must carry the group instead.
  simulator.schedule(30_s, [&] {
    ASSERT_NE(victim, net::kInvalidNode);
    EXPECT_FALSE(sim.node(victim).protocol().isForwarder(net::GroupId{1}))
        << "forwarding-group membership on the dead relay never expired";
    EXPECT_TRUE(sim.node(survivor).protocol().isForwarder(net::GroupId{1}))
        << "route never re-formed through the surviving relay";
  });

  const harness::RunResults results = sim.run();

  // Delivery resumed after the repair: the post-crash half of the run
  // moved a substantial batch of fresh packets.
  const std::uint64_t delivered = sim.counters().value("app.packets_delivered");
  EXPECT_GT(delivered, deliveredAtCrash + 100);
  EXPECT_GT(results.pdr, 0.6);
  // applyNow bypasses the schedule, so the RecoveryAnalyzer (which watches
  // scheduled windows) stays out of this one; the injector still counts it.
  EXPECT_EQ(sim.faultInjector()->stats().crashes, 1u);
}

// ------------------------------------------------------------ determinism

// The PR 4 acceptance bar: a 50-node ODMRP scenario under a non-trivial
// fault schedule (crash + blackout + burst + blackhole + seeded churn)
// exports byte-identical trace JSONL across sweep job counts.
ScenarioConfig churnScenario(std::uint64_t topologySeed) {
  ScenarioConfig config;
  config.nodeCount = 50;
  config.areaWidthM = 1000.0;
  config.areaHeightM = 1000.0;
  config.rayleighFading = true;
  config.duration = 12_s;
  config.traffic.payloadBytes = 128;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 1_s;
  config.traffic.stop = 12_s;
  Rng groupRng = Rng{topologySeed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 1, 3, 1, groupRng);

  config.faults.add(crashAt(42, 4_s, 4_s));
  FaultEvent blackout;
  blackout.kind = FaultKind::LinkBlackout;
  blackout.node = 10;
  blackout.peer = 11;
  blackout.start = 5_s;
  blackout.duration = 3_s;
  config.faults.add(blackout);
  FaultEvent burst;
  burst.kind = FaultKind::InterferenceBurst;
  burst.node = 7;
  burst.start = 6_s;
  burst.duration = 500_ms;
  burst.powerDbm = -50.0;
  config.faults.add(burst);
  FaultEvent blackhole;
  blackhole.kind = FaultKind::ProbeBlackhole;
  blackhole.node = 20;
  blackhole.start = 3_s;
  blackhole.duration = 5_s;
  config.faults.add(blackhole);
  // Seed-defined churn on top: generation happens inside build(), so the
  // byte-compare also covers the generator's determinism.
  ChurnSpec churn;
  churn.crashesPerMinute = 5.0;
  churn.meanOutage = 2_s;
  churn.warmup = 2_s;
  config.churn = churn;
  return config;
}

harness::BenchOptions churnSweepOptions(std::size_t jobs,
                                        const std::string& traceDir) {
  harness::BenchOptions options;
  options.topologies = 2;
  options.duration = SimTime::zero();  // keep the scenario's 12 s
  options.baseSeed = 4000;
  options.verbose = false;
  options.jobs = jobs;
  options.traceDir = traceDir;
  return options;
}

TEST(FaultDeterminism, ChurnTraceExportsAreByteIdenticalAcrossJobCounts) {
  const std::vector<ProtocolSpec> protocols = {
      ProtocolSpec::original(), ProtocolSpec::with(metrics::MetricKind::Etx)};
  const std::string dirSerial = testing::TempDir() + "fault_jobs1";
  const std::string dirParallel = testing::TempDir() + "fault_jobs4";

  const runner::SweepReport serial = runner::runComparisonSweep(
      protocols, churnScenario, churnSweepOptions(1, dirSerial), nullptr);
  const runner::SweepReport parallel = runner::runComparisonSweep(
      protocols, churnScenario, churnSweepOptions(4, dirParallel), nullptr);
  ASSERT_EQ(serial.failures, 0u);
  ASSERT_EQ(parallel.failures, 0u);
  ASSERT_EQ(serial.records.size(), 4u);

  bool faultsSeen = false;
  for (const runner::RunRecord& record : serial.records) {
    ASSERT_FALSE(record.tracePath.empty());
    const std::string name =
        record.tracePath.substr(record.tracePath.find_last_of('/') + 1);
    const std::string serialBytes = slurp(dirSerial + "/" + name);
    const std::string parallelBytes = slurp(dirParallel + "/" + name);
    EXPECT_FALSE(serialBytes.empty());
    EXPECT_EQ(serialBytes, parallelBytes) << name;

    // The traces are not vacuously identical: they carry fault records.
    const trace::TraceReadResult read = trace::readTraceFile(record.tracePath);
    ASSERT_TRUE(read.trace.has_value()) << read.error;
    const trace::TraceSummary summary = trace::summarizeTrace(*read.trace);
    faultsSeen |= summary.faultsInjected > 0;

    std::remove((dirSerial + "/" + name).c_str());
    std::remove((dirParallel + "/" + name).c_str());
  }
  EXPECT_TRUE(faultsSeen);
}

}  // namespace
}  // namespace mesh
