#include "mesh/harness/experiment.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

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
  // Unsigned parse of a whole string; false on garbage or a bad range.
  const auto parseCount = [](const char* text, unsigned long long minValue,
                             unsigned long long maxValue, std::size_t& out) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || v < minValue ||
        v > maxValue) {
      return false;
    }
    out = static_cast<std::size_t>(v);
    return true;
  };
  const auto read = [](const char* name) -> const char* {
    const char* env = std::getenv(name);
    return env != nullptr && *env != '\0' ? env : nullptr;
  };

  if (const char* env = read("MESH_RATE_CONTROL")) {
    if (!rate::controlKindFromString(env, config.rateControl)) {
      std::fprintf(stderr,
                   "MESH_RATE_CONTROL=%s ignored (fixed/minstrel/genie)\n",
                   env);
    }
  }
  if (const char* env = read("MESH_CHANNELS")) {
    if (!parseCount(env, 1, 255, config.channels)) {
      std::fprintf(stderr, "MESH_CHANNELS=%s ignored (want 1..255)\n", env);
    }
  }
  if (const char* env = read("MESH_DOMAIN_WORKERS")) {
    if (!parseCount(env, 1, ~0ull, config.domainWorkers)) {
      std::fprintf(stderr, "MESH_DOMAIN_WORKERS=%s ignored (want >= 1)\n",
                   env);
    }
  }
  // 0 disables the relay even when the config names gateway nodes.
  if (const char* env = read("MESH_GATEWAYS")) {
    if (!parseCount(env, 0, ~0ull, config.gateways)) {
      std::fprintf(stderr, "MESH_GATEWAYS=%s ignored (want a count)\n", env);
    } else if (config.gateways == 0) {
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
