#pragma once
// Shared scenario factories for the bench binaries.
//
// Quick-by-default: benches run a reduced sweep (3 topologies × 150 s)
// so `for b in build/bench/*; do $b; done` finishes in minutes. Paper
// scale (10 topologies × 400 s, Section 4.1) via MESH_BENCH_FULL=1 or the
// MESH_BENCH_TOPOLOGIES / MESH_BENCH_DURATION_S overrides. The testbed
// benches always run at full scale (8 nodes is cheap).

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "mesh/harness/experiment.hpp"
#include "mesh/harness/report.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/testbed/loss_link_model.hpp"

namespace mesh::bench {

inline constexpr std::size_t kQuickTopologies = 3;
inline constexpr std::int64_t kQuickDurationS = 150;

// Environment defaults (MESH_BENCH_*) plus the runner flags every bench
// accepts: --jobs N (0 = all hardware threads), --jsonl FILE (one
// structured record per run), and --trace DIR (one packet-lifecycle trace
// per run, for `meshtrace verify`). Unrecognized arguments are left for
// the bench's own flag handling.
//
// Each JSONL record carries per-run engine telemetry alongside the
// protocol metrics — `events`, `wall_s`, and `events_per_sec` — so the
// trajectory files capture end-to-end simulator throughput; bench_micro +
// tools/bench_compare (the perf-smoke gate) track the same hot paths at
// micro scale.
inline harness::BenchOptions benchOptions(int argc, char** argv,
                                          std::size_t defaultTopologies,
                                          std::int64_t defaultDurationS) {
  harness::BenchOptions options =
      harness::BenchOptions::fromEnvironment(defaultTopologies, defaultDurationS);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      errno = 0;
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (errno != 0 || end == argv[i] || *end != '\0' || v < 0) {
        std::fprintf(stderr, "--jobs needs a non-negative integer (0 = auto)\n");
        std::exit(2);
      }
      options.jobs = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--jsonl") == 0 && i + 1 < argc) {
      options.jsonlPath = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      options.traceDir = argv[++i];
    }
  }
  return options;
}

// The two paper scenario builders below end with
// harness::applyEnvironmentOverrides, so MESH_RATE_CONTROL, MESH_CHANNELS,
// MESH_DOMAIN_WORKERS and MESH_GATEWAYS re-run any bench built on them
// without editing it. Benches that set those fields themselves (scale,
// snapshot setup, micro) build their configs directly and ignore them.

// The Section 4.1 scenario: 50 nodes, 1000 m², Rayleigh, 2 groups × 10
// members, 1 source each (unless overridden), CBR 512 B × 20 pkt/s.
inline harness::ScenarioConfig simulationScenario(std::uint64_t topologySeed,
                                                  std::size_t sourcesPerGroup = 1,
                                                  bool rayleigh = true) {
  harness::ScenarioConfig config = harness::paperSimulationScenario();
  config.rayleighFading = rayleigh;
  Rng groupRng = Rng{topologySeed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 2, 10,
                                            sourcesPerGroup, groupRng);
  harness::applyEnvironmentOverrides(config);
  return config;
}

// The Section 5 testbed scenario: Purdue floor, 2 groups (src 2 -> {3,5};
// src 4 -> {1,7}), CBR 512 B × 20 pkt/s, 400 s.
inline harness::ScenarioConfig testbedScenario(std::uint64_t runSeed) {
  harness::ScenarioConfig config;
  config.nodeCount = testbed::kNodeCount;
  config.duration = SimTime::seconds(std::int64_t{400});
  config.traffic.payloadBytes = 512;
  config.traffic.packetsPerSecond = 20.0;
  config.traffic.start = SimTime::seconds(std::int64_t{30});
  config.traffic.stop = SimTime::seconds(std::int64_t{400});
  config.seed = runSeed;
  config.fixedPositions = testbed::Floorplan::positions();
  config.linkModelFactory = [](sim::Simulator& simulator, Rng& rng) {
    return testbed::makePurdueFloorModel(simulator, testbed::LossModelParams{},
                                         rng);
  };
  for (const auto& group : testbed::Floorplan::paperGroups()) {
    config.groups.push_back(
        harness::GroupSpec{group.group, group.sources, group.members});
  }
  harness::applyEnvironmentOverrides(config);
  return config;
}

inline void printPaperReference(const char* what, const char* values) {
  std::printf("\npaper reference — %s:\n  %s\n", what, values);
}

}  // namespace mesh::bench
