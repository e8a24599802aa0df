#pragma once
// Experiment runner: protocol comparisons over common topology sets.
//
// Every evaluation in the paper is "run ODMRP and ODMRP_<metric> over the
// same topologies/workload, then report values normalized to ODMRP". This
// header provides that loop plus the environment knobs that let bench
// binaries run quickly by default and at full paper scale on demand:
//
//   MESH_BENCH_TOPOLOGIES  (default: experiment-specific, paper uses 10)
//   MESH_BENCH_DURATION_S  (default: experiment-specific, paper uses 400)
//   MESH_BENCH_JOBS        (default: hardware_concurrency; 1 = serial)
//   MESH_BENCH_JSONL       (path: write one JSONL record per run)
//   MESH_BENCH_TRACE       (dir: write one packet-lifecycle trace per run)
//
// Set MESH_BENCH_FULL=1 to force the paper-scale defaults.
//
// The comparison sweep runs one (topology seed, protocol) cell per
// mesh::parallelFor index on `jobs` workers, with deterministic
// aggregation: results are bit-identical to a serial sweep for any job
// count.
// runProtocolComparison() is implemented in src/mesh/runner/sweep.cpp
// (link mesh::mesh or mesh::runner).

#include <functional>
#include <string>
#include <vector>

#include "mesh/common/stats.hpp"
#include "mesh/harness/scenario.hpp"

namespace mesh::harness {

struct BenchOptions {
  std::size_t topologies{10};
  SimTime duration{SimTime::seconds(std::int64_t{400})};
  std::uint64_t baseSeed{1000};
  bool verbose{true};  // progress lines on stderr

  // Worker threads for the sweep: 0 = one per hardware thread,
  // 1 = serial (every run on the calling thread, in plan order).
  std::size_t jobs{0};

  // When non-empty, every completed run appends one JSON record (seed,
  // protocol, pdr, throughput, delay, overhead, wall time, ...) here.
  std::string jsonlPath;

  // When non-empty, every run writes a packet-lifecycle trace into this
  // directory (created on demand). File names are derived from the run's
  // (topology, protocol, seed) cell, so parallel sweeps never collide and
  // re-running the same sweep overwrites deterministically.
  std::string traceDir;

  // Applies MESH_BENCH_* environment overrides on top of the given
  // defaults (which should be the paper-scale values).
  static BenchOptions fromEnvironment(std::size_t defaultTopologies = 10,
                                      std::int64_t defaultDurationS = 400);
};

// Applies the scenario-level environment overrides to `config`:
//
//   MESH_RATE_CONTROL    "fixed" / "minstrel" / "genie" -> rateControl
//   MESH_CHANNELS        1..255 -> channels
//   MESH_DOMAIN_WORKERS  >= 1 -> domainWorkers
//   MESH_GATEWAYS        a count -> gateways (0 also clears gatewayNodes)
//
// Unset or empty variables leave the config alone; malformed values are
// reported on stderr and ignored. Only program entry points call this
// (meshsim and the bench scenario builders): the library itself never
// reads the environment, so a Simulation is a pure function of its config.
void applyEnvironmentOverrides(ScenarioConfig& config);

// Per-protocol aggregation across topologies.
struct ComparisonRow {
  ProtocolSpec protocol;
  std::string name;
  OnlineStats pdr;
  OnlineStats throughputBps;
  OnlineStats delayS;
  OnlineStats overheadPct;
  OnlineStats controlBytes;
};

// Runs each protocol over `options.topologies` topologies. The scenario
// factory receives the topology seed and returns a fully-specified
// scenario (groups, traffic, duration); the runner fills in the protocol.
// All protocols see identical topology seeds — paired comparison, like
// the paper's normalization.
//
// The factory is always invoked on the calling thread, once per topology
// seed in topology order, before any simulation starts (its output is
// copied per protocol cell); only the simulations themselves run on the
// sweep's workers. A run that throws is reported on stderr and excluded
// from the aggregates instead of aborting the sweep.
std::vector<ComparisonRow> runProtocolComparison(
    const std::vector<ProtocolSpec>& protocols,
    const std::function<ScenarioConfig(std::uint64_t topologySeed)>& makeScenario,
    const BenchOptions& options);

// The protocol list of Figure 2: original ODMRP first (the normalization
// baseline), then the five metrics in the paper's legend order.
std::vector<ProtocolSpec> figure2Protocols(double probeRateScale = 1.0);

}  // namespace mesh::harness
