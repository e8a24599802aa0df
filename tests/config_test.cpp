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
        BadCase{"[group 1]\nsources = 0\nmembers = 1\n[group 2]\ncolor = red\n",
                "unknown group key"},
        BadCase{"[scenario]\nnodes = 5\n", "no [group N] sections"},
        BadCase{"[scenario]\nnodes = 3\n[group 1]\nsources = 0\nmembers = 9\n",
                "member id out of range"},
        BadCase{"[scenario]\nduration_s = 20\n[traffic]\nstart_s = 30\n"
                "[group 1]\nsources = 0\nmembers = 1\n",
                "duration_s (20) must be greater than start_s (30)"},
        BadCase{"[scenario]\nduration_s = 30\n[traffic]\nstart_s = 30\n"
                "[group 1]\nsources = 0\nmembers = 1\n",
                "duration_s (30) must be greater than start_s (30)"}));

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
  // The file is well-formed; the empty traffic window is a scenario error
  // the simulation reports when it is built, instead of aborting.
  const auto result = parseScenarioConfig(R"(
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
)");
  ASSERT_TRUE(result.ok()) << result.error;
  try {
    Simulation sim{*result.config};
    FAIL() << "an empty traffic window must not build";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stop 10s"), std::string::npos) << what;
    EXPECT_NE(what.find("start 20s"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace mesh::harness
