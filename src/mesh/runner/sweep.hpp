#pragma once
// Parallel comparison sweeps: shard (topology seed, protocol) simulation
// runs across a work-stealing thread pool while keeping the aggregate
// ComparisonRows bit-identical to the serial path.
//
// Determinism by construction: every Simulation owns an Rng forked from
// its run seed, so a run's RunResults depend only on its RunPlan, never on
// scheduling. The runner's only obligations are (a) building plans — and
// hence calling the user's scenario factory — serially on the submitting
// thread, (b) folding results in the serial loop's (topology, protocol)
// order via the Aggregator, and (c) serializing progress/log output.
//
// World sharing (DESIGN §14): the runs of one topology share a world.
// The first of them builds it and freezes a TopologySnapshot; its
// siblings adopt that snapshot. Results are byte-identical either way.
//
// Per-run exceptions are captured into the RunRecord: one diverging
// simulation marks its cell failed and the sweep report says so, instead
// of the whole sweep aborting.

#include <functional>
#include <vector>

#include "mesh/harness/experiment.hpp"
#include "mesh/runner/run_plan.hpp"
#include "mesh/runner/result_sink.hpp"

namespace mesh::runner {

struct SweepReport {
  // Deterministic aggregates, one row per protocol (failed runs excluded).
  std::vector<harness::ComparisonRow> rows;
  // Every run's record in (topology, protocol) order.
  std::vector<RunRecord> records;
  std::size_t failures{0};
  double wallSeconds{0.0};   // whole-sweep wall clock
  std::size_t jobs{1};       // worker count actually used
  // World-sharing telemetry (DESIGN §14): runs that built and froze their
  // topology's world vs runs that adopted it, and the summed per-run
  // setup_seconds (the quantity sharing amortizes). Both counts are zero
  // when every scenario was ineligible.
  std::size_t snapshotsBuilt{0};
  std::size_t snapshotsReused{0};
  double setupSeconds{0.0};
};

// Expands the sweep matrix into per-run plans, invoking `makeScenario`
// serially, once per *topology* (the config is topology-determined;
// protocol/seed/duration are stamped onto a copy per cell) — so stateful
// factories stay deterministic, need not be thread-safe, and are not
// re-run per protocol. Plans with the same `topologyIndex` share a world.
std::vector<RunPlan> buildComparisonPlans(
    const std::vector<harness::ProtocolSpec>& protocols,
    const std::function<harness::ScenarioConfig(std::uint64_t topologySeed)>&
        makeScenario,
    const harness::BenchOptions& options);

// The full sweep: plan, shard across `options.jobs` workers (0 = one per
// hardware thread, 1 = serial on the calling thread), stream each
// completed run into `sink` (optional), and fold deterministically. Each
// topology's world lives only while its runs do: a serial sweep holds one
// world at a time.
SweepReport runComparisonSweep(
    const std::vector<harness::ProtocolSpec>& protocols,
    const std::function<harness::ScenarioConfig(std::uint64_t topologySeed)>&
        makeScenario,
    const harness::BenchOptions& options, ResultSink* sink = nullptr);

}  // namespace mesh::runner
