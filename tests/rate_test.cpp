// Rate subsystem: the RateTable's airtime/PER curves, the three
// controllers, config/env plumbing, and — the load-bearing checks —
// rate_control=fixed staying byte-identical to the legacy single-rate
// simulator (including across sweep job counts), Minstrel determinism
// under a fixed seed, and the Genie ≥ Minstrel ≥ Fixed goodput ordering
// on a saturated short link.
//
// Also home of the fault-replay round trip: a [faults] config section
// drives a traced run, `faultSectionFromTrace` regenerates the section
// from the trace, and re-parsing it yields the original schedule.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mesh/harness/config_file.hpp"
#include "mesh/harness/experiment.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/phy/phy_params.hpp"
#include "mesh/rate/rate_controller.hpp"
#include "mesh/rate/rate_table.hpp"
#include "mesh/runner/sweep.hpp"
#include "mesh/trace/trace_reader.hpp"

namespace mesh {
namespace {

using namespace mesh::time_literals;
using harness::BenchOptions;
using harness::ProtocolSpec;
using harness::ScenarioConfig;
using rate::ControlKind;
using rate::RateSetKind;
using rate::RateTable;

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ------------------------------------------------------------ rate table

TEST(RateTable, BasicSetMatchesLegacyPhyAirtime) {
  const RateTable table = RateTable::forSet(RateSetKind::Basic);
  ASSERT_EQ(table.size(), 1);
  EXPECT_EQ(table.basicCode(), 1);
  const phy::PhyParams params{};
  for (const std::size_t bytes : {std::size_t{1}, std::size_t{60},
                                  std::size_t{540}, std::size_t{1500}}) {
    EXPECT_EQ(table.frameAirtime(bytes, table.basicCode()),
              params.frameAirtime(bytes))
        << bytes << " bytes";
  }
}

TEST(RateTable, AirtimeShrinksWithBitrateWithinAFamily) {
  const RateTable table = RateTable::forSet(RateSetKind::DsssOfdm);
  ASSERT_GE(table.size(), 8);
  for (std::uint8_t a = 1; a <= table.size(); ++a) {
    for (std::uint8_t b = 1; b <= table.size(); ++b) {
      if (table.info(a).modulation != table.info(b).modulation) continue;
      if (table.info(a).bitRateBps >= table.info(b).bitRateBps) continue;
      EXPECT_GT(table.frameAirtime(540, a), table.frameAirtime(540, b))
          << table.info(a).name << " vs " << table.info(b).name;
    }
  }
}

TEST(RateTable, PerIsMonotoneInSnrAndInRate) {
  const RateTable table = RateTable::forSet(RateSetKind::DsssOfdm);
  // More SNR never hurts any rate.
  for (std::uint8_t code = 1; code <= table.size(); ++code) {
    double prev = 1.0;
    for (double snr = 0.0; snr <= 70.0; snr += 0.5) {
      const double per = table.per(code, snr, 540);
      EXPECT_GE(per, 0.0);
      EXPECT_LE(per, 1.0);
      EXPECT_LE(per, prev + 1e-12) << table.info(code).name << " @ " << snr;
      prev = per;
    }
    // Saturates cleanly at both ends.
    EXPECT_GT(table.per(code, 0.0, 540), 0.999);
    EXPECT_LT(table.per(code, 70.0, 540), 1e-6);
  }
  // At any fixed SNR a faster rate of the same modulation is never easier
  // to decode (strictly increasing berMid anchors).
  for (double snr = 5.0; snr <= 65.0; snr += 5.0) {
    for (std::uint8_t a = 1; a <= table.size(); ++a) {
      for (std::uint8_t b = 1; b <= table.size(); ++b) {
        if (table.info(a).modulation != table.info(b).modulation) continue;
        if (table.info(a).bitRateBps >= table.info(b).bitRateBps) continue;
        EXPECT_LE(table.per(a, snr, 540), table.per(b, snr, 540) + 1e-12)
            << table.info(a).name << " vs " << table.info(b).name << " @ "
            << snr;
      }
    }
  }
}

TEST(RateTable, TwoMbpsStaysLosslessAcrossThePapersRange) {
  // The legacy PHY delivers every locked frame; the 2 Mbps PER curve must
  // not undercut that anywhere in the paper's 250 m reception range
  // (≈36.6 dB SNR at the lock threshold).
  const RateTable table = RateTable::forSet(RateSetKind::DsssOfdm);
  std::uint8_t twoMbps = 0;
  for (std::uint8_t code = 1; code <= table.size(); ++code) {
    if (table.info(code).bitRateBps == 2e6) twoMbps = code;
  }
  ASSERT_NE(twoMbps, 0);
  EXPECT_EQ(table.basicCode(), twoMbps);
  EXPECT_LT(table.per(twoMbps, 36.6, 540), 1e-9);
}

TEST(RateStrings, KindAndSetRoundTrip) {
  ControlKind kind{};
  EXPECT_TRUE(rate::controlKindFromString("minstrel", kind));
  EXPECT_EQ(kind, ControlKind::Minstrel);
  EXPECT_TRUE(rate::controlKindFromString("genie", kind));
  EXPECT_EQ(kind, ControlKind::Genie);
  EXPECT_FALSE(rate::controlKindFromString("arf", kind));

  RateSetKind set{};
  EXPECT_TRUE(rate::rateSetFromString("11bg", set));
  EXPECT_EQ(set, RateSetKind::DsssOfdm);
  EXPECT_TRUE(rate::rateSetFromString("basic", set));
  EXPECT_EQ(set, RateSetKind::Basic);
  EXPECT_FALSE(rate::rateSetFromString("11n", set));
}

// ------------------------------------------------------------ controllers

TEST(MinstrelController, FollowsFeedbackUpAndDownTheLadder) {
  const RateTable table = RateTable::forSet(RateSetKind::DsssOfdm);
  rate::MinstrelController minstrel{table};
  // No feedback yet: broadcast sits at the basic rate.
  EXPECT_EQ(minstrel.dataVector().code, table.basicCode());

  // One neighbor hears the top rate perfectly -> jump to it.
  const std::uint8_t top = table.size();
  minstrel.onRateFeedback(7, top, 1.0);
  EXPECT_EQ(minstrel.dataVector().code, top);

  // The link collapses at that rate: repeated zero-delivery feedback drives
  // the EWMA below minProb and the controller falls back.
  for (int i = 0; i < 24; ++i) minstrel.onRateFeedback(7, top, 0.0);
  EXPECT_LT(minstrel.successProb(7, top), 0.10);
  EXPECT_EQ(minstrel.dataVector().code, table.basicCode());
}

TEST(MinstrelController, RxWindowsTurnSeqGapsIntoReports) {
  const RateTable table = RateTable::forSet(RateSetKind::DsssOfdm);
  rate::MinstrelController minstrel{table};
  // Hear seq 1..4, then 8: three losses in the gap.
  for (std::uint32_t seq : {1u, 2u, 3u, 4u, 8u}) {
    minstrel.onProbeHeard(3, 2, seq);
  }
  std::vector<rate::RateFeedbackEntry> report;
  minstrel.buildRateReport(report, 16);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].neighbor, 3);
  EXPECT_EQ(report[0].code, 2);
  // 5 of 8 slots delivered.
  EXPECT_EQ(report[0].dfQ, static_cast<std::uint8_t>(std::lround(5.0 / 8.0 * 255.0)));
}

TEST(GenieController, PicksTheFastestRateTheSnrSupports) {
  const RateTable table = RateTable::forSet(RateSetKind::DsssOfdm);
  const auto neighbors = [] {
    return std::vector<std::pair<net::NodeId, double>>{{1, 60.0}, {2, 58.0}};
  };
  const auto snrTo = [](net::NodeId node) {
    return node == 1 ? 60.0 : 20.0;
  };
  rate::GenieController genie{table, neighbors, snrTo};
  // 60 dB clears every curve: broadcast and the strong unicast link run at
  // the top rate; the weak link stays at basic; late retries fall back.
  EXPECT_EQ(genie.dataVector().code, table.size());
  EXPECT_EQ(genie.unicastVector(1, 0).code, table.size());
  EXPECT_EQ(genie.unicastVector(2, 0).code, table.basicCode());
  EXPECT_EQ(genie.unicastVector(1, 2).code, table.basicCode());
}

// ------------------------------------------------------------ config & env

TEST(RateConfig, ScenarioKeysParse) {
  const char* text =
      "[scenario]\n"
      "nodes = 4\n"
      "rate_control = minstrel\n"
      "rate_set = 11bg\n"
      "[group 1]\n"
      "sources = 0\n"
      "members = 1\n";
  const harness::ConfigParseResult result = harness::parseScenarioConfig(text);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.config->rateControl, ControlKind::Minstrel);
  EXPECT_EQ(result.config->rateSet, RateSetKind::DsssOfdm);

  const harness::ConfigParseResult bad = harness::parseScenarioConfig(
      "[scenario]\nrate_control = arf\n[group 1]\nsources = 0\nmembers = 1\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("rate_control"), std::string::npos) << bad.error;
}

ScenarioConfig tinyScenario() {
  ScenarioConfig config;
  config.nodeCount = 4;
  config.areaWidthM = 200.0;
  config.areaHeightM = 200.0;
  config.rayleighFading = false;
  config.duration = 2_s;
  config.protocol = ProtocolSpec::with(metrics::MetricKind::Etx);
  config.traffic.payloadBytes = 64;
  config.traffic.packetsPerSecond = 2.0;
  config.traffic.start = 1_s;
  config.traffic.stop = 2_s;
  config.groups.push_back(harness::GroupSpec{1, {0}, {1}});
  return config;
}

TEST(RateConfig, EnvVarOverridesTheControlKind) {
  // The override is applied at the program edge, to the config...
  ASSERT_EQ(setenv("MESH_RATE_CONTROL", "minstrel", 1), 0);
  ScenarioConfig overridden = tinyScenario();
  harness::applyEnvironmentOverrides(overridden);
  unsetenv("MESH_RATE_CONTROL");
  EXPECT_EQ(overridden.rateControl, ControlKind::Minstrel);
  harness::Simulation sim{overridden};
  ASSERT_NE(sim.node(0).rateController(), nullptr);
  EXPECT_EQ(sim.node(0).rateController()->kind(), ControlKind::Minstrel);

  // ...and a malformed value leaves the config alone.
  ASSERT_EQ(setenv("MESH_RATE_CONTROL", "turbo", 1), 0);
  ScenarioConfig untouched = tinyScenario();
  harness::applyEnvironmentOverrides(untouched);
  unsetenv("MESH_RATE_CONTROL");
  EXPECT_EQ(untouched.rateControl, ControlKind::Fixed);

  // Without the override the default config stays on the legacy path: no
  // controller is even built.
  harness::Simulation legacy{tinyScenario()};
  EXPECT_EQ(legacy.node(0).rateController(), nullptr);
}

TEST(RateConfig, SimulationIgnoresTheEnvironment) {
  // The library is a pure function of its config: overrides set in the
  // environment change nothing unless an entry point applies them.
  ASSERT_EQ(setenv("MESH_CHANNELS", "2", 1), 0);
  ASSERT_EQ(setenv("MESH_RATE_CONTROL", "minstrel", 1), 0);
  harness::Simulation sim{tinyScenario()};
  unsetenv("MESH_CHANNELS");
  unsetenv("MESH_RATE_CONTROL");
  EXPECT_EQ(sim.channelCount(), 1u);
  EXPECT_EQ(sim.node(0).rateController(), nullptr);

  ASSERT_EQ(setenv("MESH_CHANNELS", "2", 1), 0);
  ScenarioConfig overridden = tinyScenario();
  harness::applyEnvironmentOverrides(overridden);
  unsetenv("MESH_CHANNELS");
  EXPECT_EQ(overridden.channels, 2u);
}

// ------------------------------------------------------ determinism anchors

// The runner_test/trace_test sweep scenario: small but lossy and real.
ScenarioConfig smallScenario(std::uint64_t topologySeed) {
  ScenarioConfig config;
  config.nodeCount = 10;
  config.areaWidthM = 300.0;
  config.areaHeightM = 300.0;
  config.rayleighFading = true;
  config.duration = 6_s;
  config.traffic.payloadBytes = 128;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 1_s;
  config.traffic.stop = 6_s;
  Rng groupRng = Rng{topologySeed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 1, 3, 1, groupRng);
  return config;
}

ScenarioConfig smallScenarioFixedRate(std::uint64_t topologySeed) {
  ScenarioConfig config = smallScenario(topologySeed);
  // Full plumbing armed — table built, channel PER hook installed,
  // controllers constructed — but every frame still carries code 0.
  config.rateControl = ControlKind::Fixed;
  config.rateSet = RateSetKind::DsssOfdm;
  return config;
}

BenchOptions sweepOptions(std::size_t jobs, const std::string& traceDir) {
  BenchOptions options;
  options.topologies = 2;
  options.duration = SimTime::zero();  // keep the scenario's 6 s
  options.baseSeed = 1000;
  options.verbose = false;
  options.jobs = jobs;
  options.traceDir = traceDir;
  return options;
}

TEST(RateDeterminism, FixedModeIsByteIdenticalToTheLegacyPathAcrossJobs) {
  const std::vector<ProtocolSpec> protocols = {
      ProtocolSpec::with(metrics::MetricKind::Etx)};
  const std::string dirLegacy = testing::TempDir() + "rate_legacy";
  const std::string dirFixed1 = testing::TempDir() + "rate_fixed_jobs1";
  const std::string dirFixed3 = testing::TempDir() + "rate_fixed_jobs3";

  const runner::SweepReport legacy = runner::runComparisonSweep(
      protocols, smallScenario, sweepOptions(1, dirLegacy), nullptr);
  const runner::SweepReport fixed1 = runner::runComparisonSweep(
      protocols, smallScenarioFixedRate, sweepOptions(1, dirFixed1), nullptr);
  const runner::SweepReport fixed3 = runner::runComparisonSweep(
      protocols, smallScenarioFixedRate, sweepOptions(3, dirFixed3), nullptr);
  ASSERT_EQ(legacy.failures, 0u);
  ASSERT_EQ(fixed1.failures, 0u);
  ASSERT_EQ(fixed3.failures, 0u);
  ASSERT_EQ(legacy.records.size(), 2u);

  for (const runner::RunRecord& record : legacy.records) {
    ASSERT_FALSE(record.tracePath.empty());
    const std::string name =
        record.tracePath.substr(record.tracePath.find_last_of('/') + 1);
    const std::string legacyBytes = slurp(dirLegacy + "/" + name);
    ASSERT_FALSE(legacyBytes.empty());
    // rate_control=fixed cannot disturb a single byte of the trace — not
    // an RNG draw, not a counter, not a JSONL field — serial or parallel.
    EXPECT_EQ(legacyBytes, slurp(dirFixed1 + "/" + name)) << name;
    EXPECT_EQ(legacyBytes, slurp(dirFixed3 + "/" + name)) << name;
    for (const std::string& dir : {dirLegacy, dirFixed1, dirFixed3}) {
      std::remove((dir + "/" + name).c_str());
    }
  }
}

TEST(RateDeterminism, MinstrelIsBitReproducibleUnderAFixedSeed) {
  const auto runOnce = [](const std::string& path) {
    ScenarioConfig config = smallScenario(11);
    config.rateControl = ControlKind::Minstrel;
    config.rateSet = RateSetKind::DsssOfdm;
    config.seed = 11;
    config.tracePath = path;
    harness::Simulation sim{config};
    return sim.run();
  };
  const std::string pathA = testing::TempDir() + "rate_minstrel_a.jsonl";
  const std::string pathB = testing::TempDir() + "rate_minstrel_b.jsonl";
  const harness::RunResults a = runOnce(pathA);
  const harness::RunResults b = runOnce(pathB);
  EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
  const std::string bytesA = slurp(pathA);
  EXPECT_FALSE(bytesA.empty());
  EXPECT_EQ(bytesA, slurp(pathB));
  // A rate-aware run actually exercises the multi-rate path: some frame in
  // the trace carries a non-zero rate code.
  EXPECT_NE(bytesA.find("\"rate\":"), std::string::npos);
  std::remove(pathA.c_str());
  std::remove(pathB.c_str());
}

// ------------------------------------------------------------ goodput order

// Two nodes a short hop apart, CBR pushed past the 2 Mbps air capacity:
// the basic rate saturates, the faster codes don't. The oracle bounds the
// sampler, the sampler beats the anchor.
harness::RunResults runTwoNodeSweep(ControlKind control) {
  ScenarioConfig config;
  config.nodeCount = 2;
  config.areaWidthM = 60.0;
  config.areaHeightM = 60.0;
  config.rayleighFading = false;
  config.duration = SimTime::seconds(std::int64_t{60});
  config.protocol = ProtocolSpec::with(metrics::MetricKind::Etx);
  config.traffic.payloadBytes = 512;
  config.traffic.packetsPerSecond = 600.0;
  config.traffic.start = 1_s;
  config.traffic.stop = SimTime::seconds(std::int64_t{60});
  config.groups.push_back(harness::GroupSpec{1, {0}, {1}});
  config.seed = 5;
  config.rateControl = control;
  config.rateSet = RateSetKind::DsssOfdm;
  return harness::Simulation{config}.run();
}

TEST(RateGoodput, GenieBoundsMinstrelBoundsFixed) {
  const harness::RunResults fixed = runTwoNodeSweep(ControlKind::Fixed);
  const harness::RunResults minstrel = runTwoNodeSweep(ControlKind::Minstrel);
  const harness::RunResults genie = runTwoNodeSweep(ControlKind::Genie);

  // The anchor really is saturated, or the comparison means nothing.
  ASSERT_GT(fixed.packetsSent, 0u);
  ASSERT_LT(fixed.pdr, 0.95);

  EXPECT_GE(genie.packetsDelivered, minstrel.packetsDelivered);
  EXPECT_GE(minstrel.packetsDelivered, fixed.packetsDelivered);
  // And the separation is structural, not noise: the oracle at 60 m runs
  // frames an order of magnitude faster than 2 Mbps.
  EXPECT_GT(genie.packetsDelivered, fixed.packetsDelivered * 5 / 4);
}

// ------------------------------------------------------------ fault replay

TEST(FaultReplay, TraceRoundTripsBackIntoTheConfigGrammar) {
  const char* base =
      "[scenario]\n"
      "nodes = 6\n"
      "area = 300x300\n"
      "duration_s = 20\n"
      "fading = none\n"
      "seed = 3\n"
      "[protocol]\n"
      "metric = ETX\n"
      "[traffic]\n"
      "payload = 128\n"
      "rate_pps = 2\n"
      "start_s = 1\n"
      "stop_s = 20\n"
      "[group 1]\n"
      "sources = 0\n"
      "members = 3 4\n";
  const char* faults =
      "[faults]\n"
      "event = crash 2 @ 5 +4\n"
      "event = blackout 0-3 @ 6.5 +2.25\n"
      "event = loss 1-4 0.35 @ 8 +5\n"
      "event = burst 5 -57.5 @ 10 +0.5\n"
      "event = blackhole 3 @ 12 +6\n";

  const harness::ConfigParseResult original =
      harness::parseScenarioConfig(std::string{base} + faults);
  ASSERT_TRUE(original.ok()) << original.error;
  ASSERT_EQ(original.config->faults.size(), 5u);

  const std::string path = testing::TempDir() + "fault_replay.jsonl";
  ScenarioConfig config = *original.config;
  config.tracePath = path;
  harness::Simulation sim{config};
  sim.run();

  const trace::TraceReadResult read = trace::readTraceFile(path);
  ASSERT_TRUE(read.trace.has_value()) << read.error;
  const std::string section = trace::faultSectionFromTrace(*read.trace);

  // The regenerated section drops into a config file as-is...
  const harness::ConfigParseResult replayed =
      harness::parseScenarioConfig(std::string{base} + section);
  ASSERT_TRUE(replayed.ok()) << replayed.error << "\n" << section;

  // ...and reproduces the original schedule event-for-event (both sides
  // come out of FaultSchedule::add, so ordering matches too).
  const std::vector<fault::FaultEvent>& want = original.config->faults.events();
  const std::vector<fault::FaultEvent>& got = replayed.config->faults.events();
  ASSERT_EQ(got.size(), want.size()) << section;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].node, want[i].node) << i;
    EXPECT_EQ(got[i].peer, want[i].peer) << i;
    EXPECT_EQ(got[i].start, want[i].start) << i;
    EXPECT_EQ(got[i].duration, want[i].duration) << i;
    if (want[i].kind == trace::FaultKind::LossRamp) {
      EXPECT_DOUBLE_EQ(got[i].lossRate, want[i].lossRate) << i;
    }
    if (want[i].kind == trace::FaultKind::InterferenceBurst) {
      EXPECT_DOUBLE_EQ(got[i].powerDbm, want[i].powerDbm) << i;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mesh
