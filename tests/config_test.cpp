// Tests for the meshsim scenario-file parser.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mesh/harness/config_file.hpp"

namespace mesh::harness {
namespace {

constexpr const char* kValid = R"(
# comment
[scenario]
nodes = 25
area = 800x600
duration_s = 120
fading = none
seed = 42
connected = false

[protocol]
routing = tree
metric = METX
probe_rate = 2.5
adaptive = true

[traffic]
payload = 256
rate_pps = 10
start_s = 15
stop_s = 100

[group 1]
sources = 0 1
members = 5 6 7

[group 2]
sources = 2
members = 8
)";

TEST(ConfigFile, ParsesEveryField) {
  const auto result = parseScenarioConfig(kValid);
  ASSERT_TRUE(result.ok()) << result.error;
  const ScenarioConfig& c = *result.config;
  EXPECT_EQ(c.nodeCount, 25u);
  EXPECT_DOUBLE_EQ(c.areaWidthM, 800.0);
  EXPECT_DOUBLE_EQ(c.areaHeightM, 600.0);
  EXPECT_EQ(c.duration, SimTime::seconds(std::int64_t{120}));
  EXPECT_FALSE(c.rayleighFading);
  EXPECT_EQ(c.seed, 42u);
  EXPECT_FALSE(c.ensureConnected);

  EXPECT_EQ(c.protocol.routing, Routing::Tree);
  ASSERT_TRUE(c.protocol.metric.has_value());
  EXPECT_EQ(*c.protocol.metric, metrics::MetricKind::Metx);
  EXPECT_DOUBLE_EQ(c.protocol.probeRateScale, 2.5);
  EXPECT_TRUE(c.protocol.adaptiveProbing);

  EXPECT_EQ(c.traffic.payloadBytes, 256u);
  EXPECT_DOUBLE_EQ(c.traffic.packetsPerSecond, 10.0);
  EXPECT_EQ(c.traffic.start, SimTime::seconds(std::int64_t{15}));
  EXPECT_EQ(c.traffic.stop, SimTime::seconds(std::int64_t{100}));

  ASSERT_EQ(c.groups.size(), 2u);
  EXPECT_EQ(c.groups[0].group, 1);
  EXPECT_EQ(c.groups[0].sources, (std::vector<net::NodeId>{0, 1}));
  EXPECT_EQ(c.groups[0].members, (std::vector<net::NodeId>{5, 6, 7}));
  EXPECT_EQ(c.groups[1].group, 2);
}

TEST(ConfigFile, DefaultsWhenKeysOmitted) {
  const auto result = parseScenarioConfig(R"(
[group 1]
sources = 0
members = 1
)");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.config->nodeCount, 50u);  // paper defaults
  EXPECT_TRUE(result.config->rayleighFading);
  EXPECT_EQ(result.config->protocol.routing, Routing::Odmrp);
  EXPECT_FALSE(result.config->protocol.metric.has_value());
}

TEST(ConfigFile, MetricNoneMeansOriginal) {
  const auto result = parseScenarioConfig(R"(
[protocol]
metric = none
[group 1]
sources = 0
members = 1
)");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(result.config->protocol.metric.has_value());
}

TEST(ConfigFile, AllMetricNamesParse) {
  for (const char* name : {"HOP", "ETX", "ETT", "PP", "METX", "SPP", "BiETX",
                           "spp", "etx"}) {
    std::string text = "[protocol]\nmetric = ";
    text += name;
    text += "\n[group 1]\nsources = 0\nmembers = 1\n";
    const auto result = parseScenarioConfig(text);
    EXPECT_TRUE(result.ok()) << name << ": " << result.error;
  }
}

struct BadCase {
  const char* text;
  const char* expectInError;
};

class ConfigErrorTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(ConfigErrorTest, ReportsLineAndReason) {
  const auto result = parseScenarioConfig(GetParam().text);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find(GetParam().expectInError), std::string::npos)
      << "error was: " << result.error;
}

INSTANTIATE_TEST_SUITE_P(
    BadConfigs, ConfigErrorTest,
    ::testing::Values(
        BadCase{"[scenario\nnodes = 5", "unterminated"},
        BadCase{"[bogus]\n", "unknown section"},
        BadCase{"nodes = 5\n", "outside of any section"},
        BadCase{"[scenario]\nnodes five\n", "expected key = value"},
        BadCase{"[scenario]\nnodes = -3\n", "positive"},
        BadCase{"[scenario]\narea = 1000\n", "1000x1000"},
        BadCase{"[scenario]\nfading = fog\n", "rayleigh or none"},
        BadCase{"[scenario]\nwidgets = 9\n", "unknown [scenario] key"},
        BadCase{"[scenario]\nspatial_index = off\n", "unknown [scenario] key"},
        BadCase{"[protocol]\nmetric = WCETT\n", "unknown metric"},
        BadCase{"[protocol]\nrouting = ring\n", "odmrp or tree"},
        BadCase{"[traffic]\nrate_pps = 0\n", "positive"},
        BadCase{"[group]\nsources = 0\n", "numeric id"},
        BadCase{"[group 1]\nsources = x\n", "list of node ids"},
        BadCase{"[group 1]\nsources = 1.5\n", "list of node ids"},
        BadCase{"[group 1]\nsources = 0\nmembers = 3x\n", "list of node ids"},
        BadCase{"[faults]\nevent = crash 2.5 @ 5\n", "bad node id"},
        BadCase{"[group 1]\nsources = 0\nmembers = 1\n[group 2]\ncolor = red\n",
                "unknown group key"},
        BadCase{"[scenario]\nnodes = 5\n", "no [group N] sections"},
        BadCase{"[scenario]\nnodes = 3\n[group 1]\nsources = 0\nmembers = 9\n",
                "line 5: member id out of range"},
        BadCase{"[scenario]\nnodes = 3\n[group 1]\nsources = 7\nmembers = 1\n",
                "line 4: source id out of range"},
        BadCase{"[scenario]\nnodes = 3\ngateway_nodes = 1 3\n[group 1]\n"
                "sources = 0\nmembers = 1\n",
                "line 3: gateway node id out of range"},
        BadCase{"[scenario]\nnodes = 3\n[faults]\nevent = crash 1 @ 5\n"
                "event = blackout 0-4 @ 6\n[group 1]\nsources = 0\nmembers = 1\n",
                "line 5: fault node id out of range"},
        BadCase{"[scenario]\nnodes = 3\n[faults]\nchurn_victims = 2 5\n"
                "[group 1]\nsources = 0\nmembers = 1\n",
                "line 4: churn victim id out of range"},
        BadCase{"[scenario]\nduration_s = 20\n[traffic]\nstart_s = 30\n"
                "[group 1]\nsources = 0\nmembers = 1\n",
                "line 4: duration_s (20) must be greater than start_s (30)"},
        BadCase{"[traffic]\nstart_s = 30\n[scenario]\nduration_s = 30\n"
                "[group 1]\nsources = 0\nmembers = 1\n",
                "line 4: duration_s (30) must be greater than start_s (30)"},
        BadCase{"[traffic]\nstart_s = 20\nstop_s = 15\n"
                "[group 1]\nsources = 0\nmembers = 1\n",
                "line 3: stop_s (15) must be greater than start_s (20)"},
        BadCase{"[traffic]\nstop_s = 20\nrate_pps = 2\nstart_s = 20\n"
                "[group 1]\nsources = 0\nmembers = 1\n",
                "line 4: stop_s (20) must be greater than start_s (20)"},
        // Hostile numbers are refused before any cast.
        BadCase{"[scenario]\nnodes = 1e30\n", "line 2: nodes must be"},
        BadCase{"[scenario]\nnodes = 2.5\n", "nodes must be a positive integer"},
        BadCase{"[scenario]\nnodes = 70000\n", "at most 65534"},
        BadCase{"[scenario]\nnodes = 65535\n", "at most 65534"},
        BadCase{"[scenario]\nseed = 1e30\n", "seed must be"},
        BadCase{"[scenario]\nseed = 18446744073709551616\n", "seed must be"},
        BadCase{"[scenario]\nchannels = 2.5\n", "channels must be"},
        BadCase{"[scenario]\ngateways = 1e30\n", "gateways must be"},
        BadCase{"[scenario]\nswitch_slot_ms = 0.5\n", "switch_slot_ms must be"},
        BadCase{"[traffic]\npayload = 1e30\n", "payload must be"},
        BadCase{"[scenario]\nduration_s = nan\n", "duration_s must be"},
        BadCase{"[scenario]\nduration_s = inf\n", "duration_s must be"},
        BadCase{"[scenario]\nduration_s = 1e30\n", "duration_s must be"},
        BadCase{"[traffic]\nstart_s = -inf\n", "start_s must be"},
        BadCase{"[traffic]\nrate_pps = nan\n", "rate_pps must be"},
        BadCase{"[traffic]\nrate_pps = 1e12\n", "rate_pps must be"},
        BadCase{"[protocol]\nprobe_rate = 1e30\n", "probe_rate must be"},
        BadCase{"[faults]\nevent = crash 1 @ inf\n", "start time must be"},
        BadCase{"[faults]\nwarmup_s = 1e300\n", "warmup_s must be"},
        // A churn rate whose gaps stop advancing the clock used to hang the
        // run; a burst power that underflows to 0 W used to abort it.
        BadCase{"[faults]\ncrashes_per_minute = 1e18\n",
                "line 2: crashes_per_minute must be non-negative, at most 1e6"},
        BadCase{"[faults]\nblackouts_per_minute = 2e6\n",
                "line 2: blackouts_per_minute must be"},
        BadCase{"[faults]\nbursts_per_minute = 1e300\n",
                "line 2: bursts_per_minute must be"},
        BadCase{"[faults]\nburst_power_dbm = -100000\n",
                "line 2: burst_power_dbm must be"},
        BadCase{"[faults]\nburst_power_dbm = 1e6\n",
                "line 2: burst_power_dbm must be"},
        BadCase{"[faults]\nevent = burst 1 -100000 @ 5 +1\n",
                "line 2: bad burst power '-100000'"}));

TEST(ConfigFile, WholeNumbersKeepEveryBit) {
  const auto result = parseScenarioConfig(
      "[scenario]\nnodes = 65534\nseed = 18446744073709551615\n"
      "channels = 3e0\n[group 1]\nsources = 0\nmembers = 1\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.config->nodeCount, 65534u);
  EXPECT_EQ(result.config->seed, 18446744073709551615ull);
  EXPECT_EQ(result.config->channels, 3u);
}

TEST(ConfigFile, OversizedWorldIsRefusedBeforeItBuilds) {
  ScenarioConfig config;
  config.nodeCount = 65535;
  try {
    Simulation sim{config};
    FAIL() << "a world past the 16-bit id space must not build";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("65534"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigFile, ErrorsIncludeLineNumbers) {
  const auto result = parseScenarioConfig("[scenario]\nnodes = 5\nbad line\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("line 3"), std::string::npos) << result.error;
}

TEST(ConfigFile, LoadFromDiskReportsMissingFile) {
  const auto result = loadScenarioConfig("/nonexistent/file.ini");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
}

TEST(ConfigFile, ParsedScenarioActuallyRuns) {
  const auto result = parseScenarioConfig(R"(
[scenario]
nodes = 6
area = 300x300
duration_s = 40
seed = 5
[protocol]
metric = SPP
[traffic]
rate_pps = 10
start_s = 10
stop_s = 35
[group 1]
sources = 0
members = 3 4
)");
  ASSERT_TRUE(result.ok()) << result.error;
  Simulation sim{*result.config};
  const RunResults r = sim.run();
  EXPECT_GT(r.packetsSent, 200u);
  EXPECT_GT(r.pdr, 0.3);  // tiny dense area: should mostly deliver
}

TEST(ConfigFile, StopBeforeStartFailsTheRunWithADiagnostic) {
  // In a file, the empty traffic window is a config error on the later of
  // the two keys' lines.
  const std::string text = R"(
[scenario]
nodes = 6
area = 300x300
duration_s = 40
[traffic]
start_s = 20
stop_s = 10
[group 1]
sources = 0
members = 3 4
)";
  const auto result = parseScenarioConfig(text);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error,
            "config error at line 8: stop_s (10) must be greater than "
            "start_s (20)");
  // A config built in code reaches the simulation, which refuses to build
  // it instead of aborting.
  auto config = *parseScenarioConfig(
      text.substr(0, text.find("stop_s")) + text.substr(text.find("[group")))
                     .config;
  config.traffic.stop = SimTime::seconds(std::int64_t{10});
  try {
    Simulation sim{config};
    FAIL() << "an empty traffic window must not build";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stop 10s"), std::string::npos) << what;
    EXPECT_NE(what.find("start 20s"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace mesh::harness
