#pragma once
// Job descriptions for the parallel experiment runner.
//
// A RunPlan is one fully-specified simulation run — one (topology seed,
// protocol) cell of a comparison sweep — built eagerly on the submitting
// thread so scenario factories never execute concurrently. A RunRecord is
// the outcome: the simulation's aggregate results plus per-run telemetry
// (wall clock, event count) and, when the run threw, the captured error.

#include <cstddef>
#include <cstdint>
#include <string>

#include "mesh/harness/scenario.hpp"

namespace mesh::runner {

struct RunPlan {
  std::size_t topologyIndex{0};  // plans sharing it share one world (§14)
  std::size_t protocolIndex{0};
  std::uint64_t seed{0};
  std::string protocolName;
  harness::ScenarioConfig config;  // protocol/seed/duration already applied
};

struct RunRecord {
  std::size_t topologyIndex{0};
  std::size_t protocolIndex{0};
  std::uint64_t seed{0};
  std::string protocolName;

  bool ok{false};
  std::string error;  // what() of the escaped exception when !ok

  // Path of the packet-lifecycle trace this run exported (empty when
  // tracing was off). Echoed into the JSONL record so `meshtrace verify`
  // can join each result row to its trace.
  std::string tracePath;

  harness::RunResults results;  // zeroed when !ok

  // Telemetry.
  double wallSeconds{0.0};
  std::uint64_t eventsExecuted{0};
  // World-construction time (Simulation ctor: placement, channel plan,
  // reachability builds or snapshot adoption) — the share that sharing a
  // topology's world across its runs amortizes. Subset of wallSeconds.
  double setupSeconds{0.0};
  // How this run obtained its world: "built" (constructed from scratch and
  // frozen for its topology's sibling runs), "reused" (adopted a sibling's
  // snapshot), or "off" (scenario ineligible, built from scratch).
  std::string snapshot{"off"};
};

}  // namespace mesh::runner
