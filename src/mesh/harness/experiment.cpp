#include "mesh/harness/experiment.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "mesh/harness/config_file.hpp"

namespace mesh::harness {
namespace {

// Strict positive-integer parse for environment knobs: rejects garbage,
// trailing characters, and out-of-range values instead of silently
// reading 0.
bool parsePositive(const char* text, long& out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v <= 0) return false;
  out = v;
  return true;
}

}  // namespace

BenchOptions BenchOptions::fromEnvironment(std::size_t defaultTopologies,
                                           std::int64_t defaultDurationS) {
  BenchOptions options;
  options.topologies = defaultTopologies;
  options.duration = SimTime::seconds(defaultDurationS);

  const char* full = std::getenv("MESH_BENCH_FULL");
  const bool forceFull = full != nullptr && full[0] == '1';
  if (forceFull) {
    // Paper scale (Section 4.1): 10 topologies × 400 s.
    options.topologies = 10;
    options.duration = SimTime::seconds(std::int64_t{400});
  } else {
    long v = 0;
    if (parsePositive(std::getenv("MESH_BENCH_TOPOLOGIES"), v)) {
      options.topologies = static_cast<std::size_t>(v);
    }
    if (parsePositive(std::getenv("MESH_BENCH_DURATION_S"), v)) {
      options.duration = SimTime::seconds(std::int64_t{v});
    }
  }
  long jobs = 0;
  if (parsePositive(std::getenv("MESH_BENCH_JOBS"), jobs)) {
    options.jobs = static_cast<std::size_t>(jobs);
  }
  if (const char* jsonl = std::getenv("MESH_BENCH_JSONL")) {
    if (jsonl[0] != '\0') options.jsonlPath = jsonl;
  }
  if (const char* trace = std::getenv("MESH_BENCH_TRACE")) {
    if (trace[0] != '\0') options.traceDir = trace;
  }
  return options;
}

void applyEnvironmentOverrides(ScenarioConfig& config) {
  // Each variable is its [scenario] key, read by the config file's rules.
  static constexpr std::pair<const char*, std::string_view> kOverrides[] = {
      {"MESH_RATE_CONTROL", "rate_control"},
      {"MESH_CHANNELS", "channels"},
      {"MESH_DOMAIN_WORKERS", "domain_workers"},
      {"MESH_GATEWAYS", "gateways"},
  };
  for (const auto& [variable, key] : kOverrides) {
    const char* env = std::getenv(variable);
    if (env == nullptr || *env == '\0') continue;
    const std::string error = applyScenarioKey(config, key, env);
    if (!error.empty()) {
      std::fprintf(stderr, "%s=%s ignored (%s)\n", variable, env,
                   error.c_str());
    } else if (key == "gateways" && config.gateways == 0) {
      // 0 disables the relay even when the config names gateway nodes.
      config.gatewayNodes.clear();
    }
  }
}

std::vector<ProtocolSpec> figure2Protocols(double probeRateScale) {
  return {
      ProtocolSpec::original(),
      ProtocolSpec::with(metrics::MetricKind::Ett, probeRateScale),
      ProtocolSpec::with(metrics::MetricKind::Etx, probeRateScale),
      ProtocolSpec::with(metrics::MetricKind::Metx, probeRateScale),
      ProtocolSpec::with(metrics::MetricKind::Pp, probeRateScale),
      ProtocolSpec::with(metrics::MetricKind::Spp, probeRateScale),
  };
}

}  // namespace mesh::harness
