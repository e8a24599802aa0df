#pragma once
// Scenario configuration files for the meshsim driver.
//
// A small INI dialect — sections, key = value, '#' comments — mapping
// 1:1 onto ScenarioConfig, so whole experiments are runnable without
// writing C++:
//
//   # fifty.ini
//   [scenario]
//   nodes = 50
//   area = 1000x1000
//   duration_s = 400
//   fading = rayleigh        # or: none
//   seed = 7
//
//   [protocol]
//   routing = odmrp          # or: tree
//   metric = SPP             # HOP ETX ETT PP METX SPP BiETX, or: none
//   probe_rate = 1.0
//   adaptive = false
//
//   [traffic]
//   payload = 512
//   rate_pps = 20
//   start_s = 30
//   stop_s = 400
//
//   [group 1]                # one section per multicast group
//   sources = 0
//   members = 10 11 12 13 14
//
// Every key is one row of a table in config_file.cpp: its section, its
// name, a typed parse-and-store and the "must be …" text. Errors read
// "config error at line N: <key> <must be …>"; unknown keys are errors (a
// typo silently ignored is how experiments go wrong). Node ids are checked
// against the final `nodes` once the whole file is read, and no node may
// be the source of two flows.

#include <optional>
#include <string>
#include <string_view>

#include "mesh/harness/scenario.hpp"

namespace mesh::harness {

struct ConfigParseResult {
  std::optional<ScenarioConfig> config;
  std::string error;  // empty on success

  bool ok() const { return config.has_value(); }
};

// Parses the text of a scenario file.
ConfigParseResult parseScenarioConfig(std::string_view text);

// Reads and parses a file from disk.
ConfigParseResult loadScenarioConfig(const std::string& path);

// Applies one [scenario] key to `config` by the rules a file uses (the
// MESH_* overrides go through here). Returns "" once the value is stored,
// or the "<key> <must be …>" reason it was refused, leaving `config`
// unchanged. Whole-file checks (id ranges, the traffic window) do not run.
std::string applyScenarioKey(ScenarioConfig& config, std::string_view key,
                             std::string_view value);

}  // namespace mesh::harness
