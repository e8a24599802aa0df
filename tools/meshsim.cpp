// meshsim: run a multicast mesh scenario described by a config file.
//
//   $ meshsim scenario.ini [--repeat N] [--jobs N] [--jsonl FILE]
//             [--trace DIR] [--csv]
//
// Prints the run's headline numbers; with --repeat, runs N seeds
// (seed, seed+1, ...) and reports mean ± 95% CI. --csv emits one
// machine-readable row per run instead. --jobs shards the repeats across
// worker threads (results are bit-identical to --jobs 1); --jsonl appends
// one structured record per run to FILE; --trace writes one
// packet-lifecycle trace per run into DIR (see tools/meshtrace.cpp).
// Missing parent directories for --jsonl/--trace are created on demand.
//
// See src/mesh/harness/config_file.hpp for the file format, and
// tools/examples/*.ini for ready-made scenarios.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "mesh/common/stats.hpp"
#include "mesh/harness/config_file.hpp"
#include "mesh/harness/experiment.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/runner/sweep.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario.ini> [--repeat N] [--jobs N] [--jsonl FILE]"
               " [--trace DIR] [--csv]\n"
               "  --repeat N   run N seeds (seed, seed+1, ...); N >= 1\n"
               "  --jobs N     worker threads (default 1; 0 = all hardware threads)\n"
               "  --jsonl F    append one JSON record per run to F\n"
               "  --trace D    write one packet-lifecycle trace per run into D\n"
               "  --csv        one machine-readable row per run\n"
               "see src/mesh/harness/config_file.hpp for the file format\n",
               argv0);
}

// Strict integer parse: whole string, base 10, no trailing garbage.
bool parseLong(const char* text, long minValue, long& out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < minValue) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mesh;
  using namespace mesh::harness;

  const char* path = nullptr;
  long repeat = 1;
  long jobs = 1;
  bool csv = false;
  std::string jsonlPath;
  std::string traceDir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeat") == 0) {
      if (i + 1 >= argc || !parseLong(argv[++i], 1, repeat)) {
        std::fprintf(stderr, "--repeat needs a positive integer count\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc || !parseLong(argv[++i], 0, jobs)) {
        std::fprintf(stderr, "--jobs needs a non-negative integer (0 = auto)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--jsonl") == 0) {
      if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        std::fprintf(stderr, "--jsonl needs a file path\n");
        return 2;
      }
      jsonlPath = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        std::fprintf(stderr, "--trace needs a directory path\n");
        return 2;
      }
      traceDir = argv[++i];
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage(argv[0]);
      return 2;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected positional argument: %s (scenario is %s)\n",
                   argv[i], path);
      usage(argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    usage(argv[0]);
    return 2;
  }

  const ConfigParseResult parsed = loadScenarioConfig(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", path, parsed.error.c_str());
    return 1;
  }
  // MESH_RATE_CONTROL / MESH_CHANNELS / MESH_DOMAIN_WORKERS / MESH_GATEWAYS
  // override the file, for A/B runs without editing it.
  ScenarioConfig scenario = *parsed.config;
  applyEnvironmentOverrides(scenario);

  // One protocol, `repeat` seeds: a 1-protocol comparison sweep. The
  // runner shards the seeds across workers and folds deterministically.
  BenchOptions options;
  options.topologies = static_cast<std::size_t>(repeat);
  options.baseSeed = scenario.seed;
  options.duration = SimTime::zero();  // keep the scenario's own duration
  options.verbose = false;
  options.jobs = static_cast<std::size_t>(jobs);
  options.traceDir = traceDir;

  std::unique_ptr<runner::JsonlResultSink> sink;
  if (!jsonlPath.empty()) {
    try {
      sink = std::make_unique<runner::JsonlResultSink>(jsonlPath);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  const runner::SweepReport report = runner::runComparisonSweep(
      {scenario.protocol},
      [&scenario](std::uint64_t) { return scenario; }, options,
      sink.get());

  if (csv) {
    std::printf("seed,protocol,pdr,throughput_kbps,delay_ms,probe_overhead_pct\n");
    for (const runner::RunRecord& record : report.records) {
      if (!record.ok) continue;
      std::printf("%llu,%s,%.6f,%.2f,%.3f,%.3f\n",
                  static_cast<unsigned long long>(record.seed),
                  record.protocolName.c_str(), record.results.pdr,
                  record.results.throughputBps / 1e3,
                  record.results.meanDelayS * 1e3,
                  record.results.probeOverheadPct);
    }
  } else {
    const ComparisonRow& row = report.rows.front();
    std::printf("%s — %zu nodes, protocol %s, %ld run%s\n", path,
                scenario.nodeCount, scenario.protocol.name().c_str(),
                repeat, repeat == 1 ? "" : "s");
    std::printf("  delivery    %.2f%% ± %.2f\n", row.pdr.mean() * 100.0,
                row.pdr.ci95HalfWidth() * 100.0);
    std::printf("  goodput     %.1f kbps\n", row.throughputBps.mean() / 1e3);
    std::printf("  mean delay  %.2f ms\n", row.delayS.mean() * 1e3);
    std::printf("  probe cost  %.2f%% of data bytes\n", row.overheadPct.mean());
    if (report.jobs > 1) {
      std::printf("  wall clock  %.1f s on %zu workers\n", report.wallSeconds,
                  report.jobs);
    }
  }

  for (const runner::RunRecord& record : report.records) {
    if (record.ok) continue;
    std::fprintf(stderr, "run seed=%llu FAILED: %s\n",
                 static_cast<unsigned long long>(record.seed),
                 record.error.c_str());
  }
  return report.failures == 0 ? 0 : 1;
}
