#include "mesh/runner/sweep.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "mesh/runner/aggregator.hpp"
#include "mesh/runner/thread_pool.hpp"

namespace mesh::runner {
namespace {

double elapsedSeconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

// Serialized progress output: worker completion lines must not interleave
// mid-line.
class ProgressPrinter {
 public:
  ProgressPrinter(bool enabled, std::size_t total)
      : enabled_{enabled}, total_{total} {}

  void completed(const RunRecord& record) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock{mutex_};
    ++done_;
    if (record.ok) {
      const double eventsPerSec =
          record.wallSeconds > 0.0
              ? static_cast<double>(record.eventsExecuted) / record.wallSeconds
              : 0.0;
      std::fprintf(stderr,
                   "[bench] %3zu/%zu  topology %zu  protocol %-6s "
                   "pdr=%.4f delay=%.4fs overhead=%.2f%%  (%.1fs wall, "
                   "%.2fM ev/s, setup %.2fs %s)\n",
                   done_, total_, record.topologyIndex + 1,
                   record.protocolName.c_str(), record.results.pdr,
                   record.results.meanDelayS, record.results.probeOverheadPct,
                   record.wallSeconds, eventsPerSec / 1e6, record.setupSeconds,
                   record.snapshot.c_str());
    } else {
      std::fprintf(stderr,
                   "[bench] %3zu/%zu  topology %zu  protocol %-6s "
                   "FAILED: %s\n",
                   done_, total_, record.topologyIndex + 1,
                   record.protocolName.c_str(), record.error.c_str());
    }
    std::fflush(stderr);
  }

 private:
  bool enabled_;
  std::size_t total_;
  std::mutex mutex_;
  std::size_t done_{0};
};

// Protocol names ("ODMRP_ETX", "T-PP", "ODMRP_ETT*") become filename-safe
// tokens: alphanumerics pass through, everything else maps to '_'.
std::string sanitizeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    out += alnum ? c : '_';
  }
  return out;
}

// Deterministic per-run trace file name: the (topology, protocol, seed)
// cell fully identifies a run, so any job count produces the same file
// set and reruns overwrite rather than accumulate.
std::string traceFileName(const RunPlan& plan) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "t%zu_p%zu_", plan.topologyIndex,
                plan.protocolIndex);
  return std::string{buf} + sanitizeName(plan.protocolName) + "_s" +
         std::to_string(plan.seed) + ".trace.jsonl";
}

// One topology's shared world. Its first run builds the world while
// holding `mutex` and leaves the frozen snapshot here; sibling runs wait
// for it and adopt it. A builder that throws leaves `built` false, so the
// next sibling builds instead. (A mutex rather than std::call_once: with
// libstdc++, call_once sits on pthread_once, and under ThreadSanitizer a
// callable that throws leaves the flag stuck, hanging every later call.)
// The last of the topology's runs to finish drops the slot's reference,
// so a serial sweep holds one world at a time and a parallel one roughly
// one per worker.
struct TopologySlot {
  std::mutex mutex;  // guards every field below
  bool built{false};
  harness::TopologySnapshotPtr snapshot;
  std::size_t runsLeft{0};
};

// Executes one plan on the current thread, capturing results, telemetry,
// and any escaped exception. The run builds its topology's world or
// adopts it (byte-identical results either way) and records which in
// RunRecord::snapshot.
RunRecord executePlan(const RunPlan& plan, TopologySlot& slot) {
  RunRecord record;
  record.topologyIndex = plan.topologyIndex;
  record.protocolIndex = plan.protocolIndex;
  record.seed = plan.seed;
  record.protocolName = plan.protocolName;
  record.tracePath = plan.config.tracePath;

  auto start = std::chrono::steady_clock::now();
  try {
    std::unique_ptr<harness::Simulation> sim;
    harness::TopologySnapshotPtr snapshot;
    {
      // Siblings block here while the builder constructs; that wait is
      // excluded from setup_seconds (it is contention, not construction).
      std::lock_guard<std::mutex> lock{slot.mutex};
      if (!slot.built) {
        start = std::chrono::steady_clock::now();
        sim = std::make_unique<harness::Simulation>(plan.config);
        slot.snapshot = sim->captureSnapshot();  // null when ineligible
        slot.built = true;
        if (slot.snapshot != nullptr) record.snapshot = "built";
      } else {
        snapshot = slot.snapshot;
      }
    }
    if (sim == nullptr) {
      start = std::chrono::steady_clock::now();
      if (snapshot != nullptr) {
        sim = std::make_unique<harness::Simulation>(plan.config,
                                                    std::move(snapshot));
        record.snapshot = "reused";
      } else {
        sim = std::make_unique<harness::Simulation>(plan.config);
      }
    }
    record.setupSeconds = elapsedSeconds(start);
    record.results = sim->run();
    record.eventsExecuted = record.results.eventsExecuted;
    record.ok = true;
  } catch (const std::exception& e) {
    record.error = e.what();
  } catch (...) {
    record.error = "unknown exception";
  }
  record.wallSeconds = elapsedSeconds(start);
  std::lock_guard<std::mutex> lock{slot.mutex};
  if (--slot.runsLeft == 0) slot.snapshot.reset();
  return record;
}

}  // namespace

std::vector<RunPlan> buildComparisonPlans(
    const std::vector<harness::ProtocolSpec>& protocols,
    const std::function<harness::ScenarioConfig(std::uint64_t topologySeed)>&
        makeScenario,
    const harness::BenchOptions& options) {
  std::vector<RunPlan> plans;
  plans.reserve(options.topologies * protocols.size());
  for (std::size_t t = 0; t < options.topologies; ++t) {
    const std::uint64_t seed = options.baseSeed + t;
    // One factory call per topology: the scenario is topology-determined;
    // every per-cell difference below is stamped onto a copy.
    const harness::ScenarioConfig base = makeScenario(seed);
    for (std::size_t p = 0; p < protocols.size(); ++p) {
      RunPlan plan;
      plan.topologyIndex = t;
      plan.protocolIndex = p;
      plan.seed = seed;
      plan.protocolName = protocols[p].name();
      plan.config = base;
      plan.config.protocol = protocols[p];
      plan.config.seed = seed;
      if (options.duration > SimTime::zero()) {
        plan.config.duration = options.duration;
        if (plan.config.traffic.stop > plan.config.duration) {
          plan.config.traffic.stop = plan.config.duration;
        }
      }
      if (!options.traceDir.empty()) {
        plan.config.tracePath = options.traceDir + "/" + traceFileName(plan);
      }
      plans.push_back(std::move(plan));
    }
  }
  return plans;
}

SweepReport runComparisonSweep(
    const std::vector<harness::ProtocolSpec>& protocols,
    const std::function<harness::ScenarioConfig(std::uint64_t topologySeed)>&
        makeScenario,
    const harness::BenchOptions& options, ResultSink* sink) {
  const auto sweepStart = std::chrono::steady_clock::now();
  const std::vector<RunPlan> plans =
      buildComparisonPlans(protocols, makeScenario, options);

  const std::size_t jobs =
      options.jobs == 0 ? ThreadPool::defaultWorkerCount() : options.jobs;

  // Worlds are shared within a topology's runs, never across topologies
  // or sweeps.
  std::vector<TopologySlot> slots(options.topologies);
  for (const RunPlan& plan : plans) ++slots[plan.topologyIndex].runsLeft;

  Aggregator aggregator{protocols, options.topologies};
  ProgressPrinter progress{options.verbose, plans.size()};

  const auto finishRun = [&](RunRecord record) {
    progress.completed(record);
    if (sink != nullptr) sink->write(record);
    aggregator.deliver(std::move(record));
  };

  if (jobs <= 1) {
    // Legacy serial path: everything on the calling thread, in plan order.
    for (const RunPlan& plan : plans) {
      finishRun(executePlan(plan, slots[plan.topologyIndex]));
    }
  } else {
    ThreadPool pool{jobs};
    for (const RunPlan& plan : plans) {
      TopologySlot& slot = slots[plan.topologyIndex];
      pool.submit([&plan, &finishRun, &slot] {
        finishRun(executePlan(plan, slot));
      });
    }
    pool.wait();
  }

  SweepReport report;
  report.rows = aggregator.rows();
  report.records = aggregator.records();
  report.failures = aggregator.failureCount();
  report.wallSeconds = elapsedSeconds(sweepStart);
  report.jobs = jobs;
  for (const RunRecord& record : report.records) {
    report.setupSeconds += record.setupSeconds;
    if (record.snapshot == "built") ++report.snapshotsBuilt;
    if (record.snapshot == "reused") ++report.snapshotsReused;
  }
  return report;
}

}  // namespace mesh::runner

namespace mesh::harness {

// Declared in mesh/harness/experiment.hpp; lives here so the harness
// library stays below the runner in the dependency order (runner links
// harness, never the reverse). Any binary linking mesh::mesh gets it.
std::vector<ComparisonRow> runProtocolComparison(
    const std::vector<ProtocolSpec>& protocols,
    const std::function<ScenarioConfig(std::uint64_t topologySeed)>&
        makeScenario,
    const BenchOptions& options) {
  std::unique_ptr<runner::JsonlResultSink> sink;
  if (!options.jsonlPath.empty()) {
    sink = std::make_unique<runner::JsonlResultSink>(options.jsonlPath);
  }
  runner::SweepReport report =
      runner::runComparisonSweep(protocols, makeScenario, options, sink.get());
  if (options.verbose && report.jobs > 1) {
    std::fprintf(stderr, "[bench] sweep: %zu runs on %zu workers in %.1fs\n",
                 report.records.size(), report.jobs, report.wallSeconds);
  }
  if (options.verbose &&
      (report.snapshotsBuilt > 0 || report.snapshotsReused > 0)) {
    const std::size_t cached = report.snapshotsBuilt + report.snapshotsReused;
    const double hitRate =
        cached > 0 ? 100.0 * static_cast<double>(report.snapshotsReused) /
                         static_cast<double>(cached)
                   : 0.0;
    std::fprintf(stderr,
                 "[bench] snapshots: %zu built, %zu reused (%.0f%% hit rate), "
                 "total setup %.2fs\n",
                 report.snapshotsBuilt, report.snapshotsReused, hitRate,
                 report.setupSeconds);
  }
  // Surface failed runs even when not verbose: a diverging simulation must
  // fail loudly in the report, not vanish from the averages silently.
  for (const runner::RunRecord& record : report.records) {
    if (record.ok) continue;
    std::fprintf(stderr,
                 "[bench] run FAILED  topology %zu  protocol %s  seed %llu: %s\n",
                 record.topologyIndex + 1, record.protocolName.c_str(),
                 static_cast<unsigned long long>(record.seed),
                 record.error.c_str());
  }
  return std::move(report.rows);
}

}  // namespace mesh::harness
