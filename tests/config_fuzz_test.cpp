// Deterministic mutation fuzzer for scenario files (ctest label `fuzz`).
//
// Seeds: the shipped examples (tools/examples/*.ini), the hostile files
// under tests/hostile/, and two inline scenarios: one with every [faults]
// form, one with overlapping groups. Each mutant takes one seed and, from
// a fixed Rng stream, replaces one value with a hostile one, duplicates a
// line or drops a line. Properties:
//   - every mutant parses, or its error starts with "config error";
//   - every parsed mutant of at most 64 nodes, its clock set to a 3 s
//     window, builds and runs without aborting (a scenario error thrown as
//     std::invalid_argument is a diagnostic, not an abort);
//   - no run delivers more packets than it expected.
// The budget (kMutants) is fixed and small enough for an ASan+UBSan build.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mesh/common/rng.hpp"
#include "mesh/harness/config_file.hpp"
#include "mesh/harness/scenario.hpp"

namespace mesh::harness {
namespace {

using namespace mesh::time_literals;

constexpr int kMutants = 1000;

constexpr const char* kFaultsSeed = R"(# Every [faults] form inside a 3 s run.
[scenario]
nodes = 16
area = 500x500
duration_s = 3
seed = 11

[protocol]
metric = ETX
probe_rate = 4

[traffic]
rate_pps = 10
start_s = 1
stop_s = 3

[faults]
event = crash 3 @ 1.5 +0.5
event = blackout 5-6 @ 2
event = loss 1-2 0.5 @ 1 +1
event = burst 4 -40 @ 2 +0.2
event = blackhole 7 @ 1.2 +1
event = queue_drop 8 @ 1 +0.5
crashes_per_minute = 30
blackouts_per_minute = 30
bursts_per_minute = 30
mean_outage_s = 0.5
mean_burst_s = 0.1
burst_power_dbm = -50
warmup_s = 0.5

[group 1]
sources = 0
members = 9 10 11
)";

constexpr const char* kOverlapSeed = R"(# Node 3 is a member of both groups.
[scenario]
nodes = 8
area = 300x300
duration_s = 3

[traffic]
rate_pps = 10
start_s = 1
stop_s = 3

[group 1]
sources = 0
members = 3 4

[group 2]
sources = 1
members = 3
)";

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in{path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> seeds() {
  std::vector<std::string> out{kFaultsSeed, kOverlapSeed};
  for (const char* dir : {"tools/examples", "tests/hostile"}) {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator{
             std::filesystem::path{MESH_SOURCE_DIR} / dir}) {
      if (entry.path().extension() == ".ini") files.push_back(entry.path());
    }
    // Directory order is unspecified; sorted, the mutant stream is fixed.
    std::sort(files.begin(), files.end());
    for (const auto& file : files) out.push_back(slurp(file));
  }
  return out;
}

std::string mutate(const std::string& seed, Rng& rng) {
  static const char* const kValues[] = {"0",   "-1",    "2.5", "1e-300", "1e300",
                                        "nan", "65535", "x",   "0 0"};
  std::vector<std::string> lines;
  std::istringstream in{seed};
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const std::size_t at = rng.uniformInt(std::uint64_t{lines.size()});
  switch (rng.uniformInt(std::uint64_t{3})) {
    case 0:
      // Replace the value of the first key line at or after `at`.
      for (std::size_t k = 0; k < lines.size(); ++k) {
        std::string& line = lines[(at + k) % lines.size()];
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) continue;
        line = line.substr(0, eq + 1) + " " +
               kValues[rng.uniformInt(std::uint64_t{std::size(kValues)})];
        break;
      }
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      break;
    default:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
  }
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

TEST(ConfigFuzz, MutantsParseOrFailCleanlyAndRunWithoutAbort) {
  const std::vector<std::string> pool = seeds();
  ASSERT_GE(pool.size(), 10u);
  Rng rng{24};
  int refused = 0;
  int ran = 0;
  int thrown = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text =
        mutate(pool[rng.uniformInt(std::uint64_t{pool.size()})], rng);
    const ConfigParseResult parsed = parseScenarioConfig(text);
    if (!parsed.ok()) {
      ++refused;
      EXPECT_EQ(parsed.error.rfind("config error", 0), 0u)
          << parsed.error << "\n--- mutant " << i << " ---\n" << text;
      continue;
    }
    ScenarioConfig config = *parsed.config;
    if (config.nodeCount > 64) continue;
    config.duration = 3_s;
    config.traffic.start = 1_s;
    config.traffic.stop = 3_s;
    try {
      Simulation sim{config};
      const RunResults results = sim.run();
      ++ran;
      EXPECT_LE(results.packetsDelivered, results.expectedDeliveries)
          << "--- mutant " << i << " ---\n" << text;
    } catch (const std::invalid_argument&) {
      ++thrown;
    }
  }
  std::printf("%d mutants: %d refused by the parser, %d ran, %d refused at "
              "build\n",
              kMutants, refused, ran, thrown);
  // The fixed stream reaches all three outcomes.
  EXPECT_GT(refused, 0);
  EXPECT_GT(ran, 0);
  EXPECT_GT(thrown, 0);
}

}  // namespace
}  // namespace mesh::harness
