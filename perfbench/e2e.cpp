// End-to-end benchmark for the mesh simulator.
//
// One process runs one workload (see kWorkloads below and README.md for
// why each exists). Two modes, selected by --trace:
//
//   --trace 0  Timed. Constructs the workload's worlds repeatedly to time
//              set-up, then runs the whole workload through the sweep
//              runner for about --seconds, checking every run, and prints
//              the end-to-end metrics (medians over repetitions).
//   --trace 1  Traced. One untraced repetition, then the same workload
//              again through direct Simulation calls with the benchmark's
//              spans on, reading every layer's counters through the
//              library's public accessors. Prints the per-layer metrics
//              and one "where the work goes" row, and writes the spans
//              plus every raw counter to --spans-out.
//
// The last line of stdout is always one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Every simulation run attempted is one operation; a run that throws or
// fails a check counts as failed and makes the result incorrect.
//
// The library is only reached through public calls, and every call the
// benchmark makes into it is timed from the outside. Nothing here hooks
// the event loop: time spent per layer inside run() is not measurable
// from this side.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mesh/channelplan/channel_plan.hpp"
#include "mesh/gateway/gateway_set.hpp"
#include "mesh/harness/experiment.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/phy/fading.hpp"
#include "mesh/phy/link_model.hpp"
#include "mesh/phy/propagation.hpp"
#include "mesh/phy/radio.hpp"
#include "mesh/runner/sweep.hpp"
#include "mesh/sim/simulator.hpp"
#include "mesh/trace/replay.hpp"
#include "mesh/trace/trace_reader.hpp"

extern char** environ;

// --- global allocation counter ---------------------------------------------
// Counts operator new calls while armed (only around run() in the traced
// mode). Unarmed cost: one relaxed load per allocation.
namespace {
std::atomic<bool> gCountAllocs{false};
std::atomic<std::uint64_t> gAllocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (gCountAllocs.load(std::memory_order_relaxed)) {
    gAllocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mesh;
using Clock = std::chrono::steady_clock;

// Simulated horizons. The paper's cell is 400 s; the benchmark runs a
// shorter window of the same cell so several repetitions fit one run and
// the median is steady (README.md, "Sizing").
constexpr std::int64_t kPaperHorizonS = 45;
constexpr std::int64_t kGatewayHorizonS = 10;
constexpr std::int64_t kChurnHorizonS = 100;
// The short packet-traced SPP run behind the trace.* metrics: 6 s of
// traffic after the cell's 30 s start.
constexpr std::int64_t kTraceHorizonS = 36;
// Placements pooled per repetition: one 50-node placement differs a lot
// from the next.
constexpr std::size_t kPaperTopologies = 6;
constexpr std::size_t kChurnTopologies = 4;
// gateway_5000's multicast groups (see gatewayGroups): within one hop of
// a gateway.
constexpr std::size_t kGatewayGroups = 3;
constexpr std::size_t kGroupMembers = 10;
constexpr double kGroupRadiusM = 250.0;

// Timed mode: length of the set-up burst before each repetition, and
// floors on the samples behind every median.
constexpr double kSetupBurstS = 0.6;
constexpr std::size_t kMinBurstSamples = 2;
constexpr std::size_t kMinReps = 3;
// Traced mode: set-up samples behind harness.construct_ms/adopt_ms, and
// how long the bare PHY rig transmits.
constexpr std::size_t kTracedSetupSamples = 5;
constexpr double kBareRigSeconds = 0.3;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

// --- spans -------------------------------------------------------------------
// In-memory spans around the benchmark's calls into the library: name,
// start, end (seconds since process start) and the enclosing span. Kept
// only while enabled; written out by writeSpans() at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start{0.0};
    double end{0.0};
    int parent{-1};
  };

  explicit Tracer(Clock::time_point origin) : origin_{origin} {}
  void enable() { enabled_ = true; }
  const std::vector<Span>& spans() const { return spans_; }

  // Runs `fn`, records a span when enabled, and returns the seconds it
  // took (measured whether or not spans are kept).
  template <typename Fn>
  double time(const char* name, Fn&& fn) {
    int index = -1;
    const Clock::time_point start = Clock::now();
    if (enabled_) {
      index = static_cast<int>(spans_.size());
      spans_.push_back(Span{name, offset(start), 0.0, current_});
      current_ = index;
    }
    fn();
    const Clock::time_point end = Clock::now();
    if (index >= 0) {
      spans_[static_cast<std::size_t>(index)].end = offset(end);
      current_ = spans_[static_cast<std::size_t>(index)].parent;
    }
    return std::chrono::duration<double>(end - start).count();
  }

 private:
  double offset(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  Clock::time_point origin_;
  bool enabled_{false};
  int current_{-1};
  std::vector<Span> spans_;
};

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  // Topology/group seed -> the fully specified scenario (protocol stamped
  // per run). `smoke` shrinks every horizon for the self-check.
  harness::ScenarioConfig (*scenario)(std::uint64_t seed, bool smoke);
  std::vector<harness::ProtocolSpec> (*protocols)();
  // Topologies pooled per repetition, to keep the figures steady from one
  // --seed to another.
  std::size_t topologies;
};

// --seed N selects topology seeds N*1000 .. N*1000 + topologies - 1, so
// different seeds never share a placement.
std::uint64_t topologySeed(std::uint64_t seed, std::size_t index) {
  return seed * 1000 + index;
}

SimTime secondsT(std::int64_t s) { return SimTime::seconds(s); }

void setHorizon(harness::ScenarioConfig& config, std::int64_t trafficStartS,
                std::int64_t durationS) {
  config.traffic.start = secondsT(trafficStartS);
  config.duration = secondsT(durationS);
  config.traffic.stop = config.duration;
}

// Section 4.1 cell: 50 nodes, 1000 m x 1000 m, connected rejection
// placement, TwoRay + Rayleigh, 2 Mb/s, two groups of 10 members with one
// 512 B x 20 pkt/s CBR source each.
harness::ScenarioConfig paperCell(std::uint64_t seed) {
  harness::ScenarioConfig config = harness::paperSimulationScenario();
  config.seed = seed;
  Rng groupRng = Rng{seed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 2, 10, 1, groupRng);
  return config;
}

harness::ScenarioConfig paperFig2(std::uint64_t seed, bool smoke) {
  harness::ScenarioConfig config = paperCell(seed);
  if (smoke) {
    setHorizon(config, 2, 6);
  } else {
    setHorizon(config, 30, kPaperHorizonS);
  }
  return config;
}

// Groups of one source and kGroupMembers members, all drawn from the
// nodes within kGroupRadiusM of a gateway of the world `world` describes,
// one gateway per group in a seeded order. Channels are assigned by node
// id mod 3, so two thirds of every group's members sit on a foreign
// channel and need the relay. Sources and members spread over the whole
// field instead, as in bench_scale, leave most seeds with no route at
// all, so every delivery figure would be luck; the JOIN QUERY floods
// still cover every node either way.
std::vector<harness::GroupSpec> gatewayGroups(const harness::ScenarioConfig& world,
                                              Rng rng) {
  const harness::Simulation sim{world};
  const std::vector<Vec2>& positions = sim.positions();
  std::vector<net::NodeId> centres = sim.gatewaySet().nodes;
  for (std::size_t i = centres.size(); i > 1; --i) {
    std::swap(centres[i - 1], centres[static_cast<std::size_t>(rng.uniformInt(
                                  std::uint64_t{i}))]);
  }
  std::vector<bool> used(positions.size(), false);
  std::vector<harness::GroupSpec> out;
  for (const net::NodeId centre : centres) {
    if (out.size() == kGatewayGroups) break;
    std::vector<net::NodeId> pool;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (!used[i] && positions[i].distanceSquaredTo(positions[centre]) <=
                          kGroupRadiusM * kGroupRadiusM) {
        pool.push_back(static_cast<net::NodeId>(i));
      }
    }
    if (pool.size() < kGroupMembers + 1) continue;
    for (std::size_t m = 0; m <= kGroupMembers; ++m) {
      const std::size_t pick = m + static_cast<std::size_t>(rng.uniformInt(
                                       std::uint64_t{pool.size() - m}));
      std::swap(pool[m], pool[pick]);
      used[pool[m]] = true;
    }
    harness::GroupSpec spec;
    spec.group = static_cast<net::GroupId>(out.size() + 1);
    spec.sources = {pool[0]};
    spec.members.assign(pool.begin() + 1, pool.begin() + 1 + kGroupMembers);
    out.push_back(std::move(spec));
  }
  if (out.size() != kGatewayGroups) {
    throw std::runtime_error("cannot place the gateway groups");
  }
  return out;
}

// bench_scale's bridged row: 5000 nodes at 3x the paper's density on three
// orthogonal channels, 12 boundary gateways, three domain-spanning groups
// (see gatewayGroups).
harness::ScenarioConfig gateway5000(std::uint64_t seed, bool smoke) {
  harness::ScenarioConfig config = harness::scaledSimulationScenario(5000);
  config.areaWidthM /= std::sqrt(3.0);
  config.areaHeightM /= std::sqrt(3.0);
  config.seed = seed;
  config.channels = 3;
  // Timed with one domain worker. With three, the wall clock on a shared
  // virtual machine also carries the barrier stalls of whichever worker's
  // CPU is slowest at the time: over 10 seeds its IQR/median was 0.30
  // against 0.13 for CPU time. The traced run checks that three workers
  // give identical results and reports their CPU/wall ratio.
  config.domainWorkers = 1;
  config.gateways = 12;
  config.gatewaySelect = gateway::GatewaySelect::Boundary;
  setHorizon(config, smoke ? 1 : 5, smoke ? 2 : kGatewayHorizonS);
  config.groups = gatewayGroups(config, Rng{seed}.fork("spangroups"));
  return config;
}

// The paper cell under seed-generated churn: crashes, link blackouts and
// interference bursts at 6/min each, after a warm-up that lets routes form.
harness::ScenarioConfig churnFig2(std::uint64_t seed, bool smoke) {
  harness::ScenarioConfig config = paperCell(seed);
  fault::ChurnSpec churn;
  churn.crashesPerMinute = 6.0;
  churn.blackoutsPerMinute = 6.0;
  churn.burstsPerMinute = 6.0;
  if (smoke) {
    setHorizon(config, 2, 12);
    churn.warmup = secondsT(3);
  } else {
    setHorizon(config, 30, kChurnHorizonS);
    churn.warmup = secondsT(40);
  }
  config.churn = churn;
  return config;
}

std::vector<harness::ProtocolSpec> figure2() { return harness::figure2Protocols(); }
std::vector<harness::ProtocolSpec> sppOnly() {
  return {harness::ProtocolSpec::with(metrics::MetricKind::Spp)};
}
std::vector<harness::ProtocolSpec> odmrpAndSpp() {
  return {harness::ProtocolSpec::original(),
          harness::ProtocolSpec::with(metrics::MetricKind::Spp)};
}

const Workload kWorkloads[] = {
    {"paper_fig2", paperFig2, figure2, kPaperTopologies},
    {"gateway_5000", gateway5000, sppOnly, 1},
    {"churn_fig2", churnFig2, odmrpAndSpp, kChurnTopologies},
};

// The generated inputs of one process: one scenario per topology of a
// repetition, built once before anything is timed.
using Inputs = std::vector<harness::ScenarioConfig>;

Inputs makeInputs(const Workload& workload, std::uint64_t seed, bool smoke) {
  Inputs inputs;
  for (std::size_t t = 0; t < workload.topologies; ++t) {
    inputs.push_back(workload.scenario(topologySeed(seed, t), smoke));
  }
  return inputs;
}

harness::ScenarioConfig runConfig(const harness::ScenarioConfig& topology,
                                  const harness::ProtocolSpec& p) {
  harness::ScenarioConfig config = topology;
  config.protocol = p;
  return config;
}

// --- checks ------------------------------------------------------------------

struct Checker {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;

  void fail(std::string message) {
    errors.push_back(std::move(message));
  }
  bool correct() const { return errors.empty() && failed == 0; }
};

// Every deterministic output of one run, bit-exact. Two runs of the same
// plan must produce equal fingerprints regardless of tracing, repetition
// or domain worker count.
std::vector<std::uint64_t> fingerprint(const harness::RunResults& r) {
  const auto bits = [](double v) {
    std::uint64_t out = 0;
    std::memcpy(&out, &v, sizeof out);
    return out;
  };
  std::vector<std::uint64_t> out = {
      r.packetsSent,         r.expectedDeliveries,   r.packetsDelivered,
      bits(r.pdr),           bits(r.throughputBps),  bits(r.meanDelayS),
      r.probeBytesReceived,  r.dataBytesReceived,    r.controlBytesReceived,
      bits(r.probeOverheadPct), r.macBroadcastsSent, r.radioFramesCorrupted,
      r.eventsExecuted,      r.faultsApplied,        r.faultsCleared,
      bits(r.inWindowPdr),   bits(r.outWindowPdr),   bits(r.overheadInflation),
      bits(r.meanTimeToRepairS), r.repairsObserved,  r.handoffFrames};
  out.insert(out.end(), r.channelFrames.begin(), r.channelFrames.end());
  out.insert(out.end(), r.channelDelivered.begin(), r.channelDelivered.end());
  return out;
}

// Per-run sanity: returns false (and records why) when a result is
// impossible.
bool checkResults(const harness::RunResults& r, const std::string& label,
                  Checker& checker) {
  const auto bad = [&](const char* what) {
    checker.fail(label + ": " + what);
    return false;
  };
  if (r.packetsSent == 0) return bad("no packets sent");
  if (r.eventsExecuted == 0) return bad("no events executed");
  if (!(r.pdr >= 0.0 && r.pdr <= 1.0)) return bad("pdr outside [0,1]");
  if (r.packetsDelivered > r.expectedDeliveries) {
    return bad("delivered exceeds expected");
  }
  if (r.pdr != static_cast<double>(r.packetsDelivered) /
                   static_cast<double>(r.expectedDeliveries)) {
    return bad("pdr != delivered/expected");
  }
  if (!(r.probeOverheadPct >= 0.0) || !std::isfinite(r.meanDelayS)) {
    return bad("non-finite or negative overhead/delay");
  }
  return true;
}

// --- outcome metrics over one workload repetition ---------------------------

struct Quality {
  double pdr{0.0};
  double goodputKbps{0.0};
  double delayMs{0.0};
  double probeOverheadPct{0.0};
};

// Pooled over the repetition's runs: delivered/expected, mean goodput per
// run, delivery-weighted mean delay, probe bytes per data byte received.
Quality qualityOf(const std::vector<harness::RunResults>& runs) {
  std::uint64_t delivered = 0, expected = 0, probe = 0, data = 0;
  double goodput = 0.0, delaySum = 0.0;
  for (const harness::RunResults& r : runs) {
    delivered += r.packetsDelivered;
    expected += r.expectedDeliveries;
    probe += r.probeBytesReceived;
    data += r.dataBytesReceived;
    goodput += r.throughputBps;
    delaySum += r.meanDelayS * static_cast<double>(r.packetsDelivered);
  }
  Quality q;
  q.pdr = ratio(delivered, expected);
  q.goodputKbps = ratio(goodput, static_cast<double>(runs.size())) / 1000.0;
  q.delayMs = 1000.0 * ratio(delaySum, static_cast<double>(delivered));
  q.probeOverheadPct = 100.0 * ratio(probe, data);
  return q;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(const Checker& checker, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += checker.correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(checker.attempted);
  out += ",\"failed\":" + std::to_string(checker.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" + value + ",\"unit\":\"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- world construction (set-up) ---------------------------------------------

// Builds every world one workload repetition uses, exactly as the sweep
// runner does: the first protocol builds from scratch and publishes its
// snapshot, the rest adopt it. Returns the seconds spent inside the
// Simulation constructors and captureSnapshot(); teardown is not counted.
struct SetupSample {
  double total{0.0};
  std::vector<double> constructs;
  std::vector<double> adopts;
};

SetupSample constructWorlds(const Workload& workload, const Inputs& inputs,
                            Tracer& tracer) {
  SetupSample sample;
  const std::vector<harness::ProtocolSpec> protocols = workload.protocols();
  std::vector<std::unique_ptr<harness::Simulation>> worlds;
  harness::TopologySnapshotPtr snapshot;
  for (std::size_t w = 0; w < workload.topologies * protocols.size(); ++w) {
    const std::size_t p = w % protocols.size();
    harness::ScenarioConfig config =
        runConfig(inputs[w / protocols.size()], protocols[p]);
    if (p == 0) {
      const double construct = tracer.time("harness.Simulation(config)", [&] {
        worlds.push_back(std::make_unique<harness::Simulation>(std::move(config)));
        snapshot = worlds.back()->captureSnapshot();
      });
      sample.constructs.push_back(construct);
      sample.total += construct;
    } else {
      const double adopt = tracer.time("harness.Simulation(config,snapshot)", [&] {
        worlds.push_back(
            std::make_unique<harness::Simulation>(std::move(config), snapshot));
      });
      sample.adopts.push_back(adopt);
      sample.total += adopt;
    }
  }
  return sample;
}

// --- one repetition through the sweep runner ---------------------------------

struct RepOutcome {
  double wallS{0.0};
  double cpuS{0.0};
  runner::SweepReport report;
};

RepOutcome runRepetition(const Workload& workload, const Inputs& inputs,
                         Checker& checker, Tracer& tracer,
                         std::vector<std::vector<std::uint64_t>>& reference) {
  const std::vector<harness::ProtocolSpec> protocols = workload.protocols();
  harness::BenchOptions options;
  options.topologies = workload.topologies;
  options.baseSeed = inputs.front().seed;
  options.jobs = 1;
  options.verbose = false;
  options.duration = SimTime::zero();  // keep each scenario's own horizon

  RepOutcome outcome;
  const double cpuStart = cpuSeconds();
  outcome.wallS = tracer.time("runner.runComparisonSweep", [&] {
    outcome.report = runner::runComparisonSweep(
        protocols,
        [&](std::uint64_t s) { return inputs.at(s - inputs.front().seed); },
        options);
    checker.attempted += outcome.report.records.size();
    for (const runner::RunRecord& record : outcome.report.records) {
      const std::string label = std::string{workload.name} + "/" +
                                record.protocolName + " topology seed " +
                                std::to_string(record.seed);
      if (!record.ok) {
        ++checker.failed;
        checker.fail(label + ": " + record.error);
        continue;
      }
      if (!checkResults(record.results, label, checker)) {
        ++checker.failed;
        continue;
      }
      const std::vector<std::uint64_t> print = fingerprint(record.results);
      const std::size_t p =
          record.topologyIndex * protocols.size() + record.protocolIndex;
      if (reference.size() <= p) reference.resize(p + 1);
      if (reference[p].empty()) {
        reference[p] = print;
      } else if (reference[p] != print) {
        ++checker.failed;
        checker.fail(label + ": results differ from an earlier repetition");
      }
    }
  });
  outcome.cpuS = cpuSeconds() - cpuStart;
  if (outcome.report.records.size() != workload.topologies * protocols.size()) {
    checker.fail("sweep returned the wrong number of runs");
  }
  return outcome;
}

// --- timed mode --------------------------------------------------------------

int timedMode(const Workload& workload, std::uint64_t seed, double seconds,
              bool smoke) {
  Checker checker;
  Tracer tracer{Clock::now()};
  const Inputs inputs = makeInputs(workload, seed, smoke);
  const Clock::time_point start = Clock::now();

  // Set-up: one discarded warm-up construction (the first worlds built in
  // a process pay one-off costs, about 3x later ones), then a burst of
  // constructions before every repetition, so the samples span the whole
  // run instead of one moment of it; setup_s is their median.
  constructWorlds(workload, inputs, tracer);
  std::vector<double> setups;
  const auto setupBurst = [&] {
    const Clock::time_point burstStart = Clock::now();
    for (std::size_t taken = 0;
         taken < kMinBurstSamples || secondsSince(burstStart) < kSetupBurstS;
         ++taken) {
      setups.push_back(constructWorlds(workload, inputs, tracer).total);
    }
  };

  // Timed repetitions until the budget is spent (at least kMinReps): a
  // repetition starts only if it is expected to end within half a
  // repetition of --seconds, so runs last about --seconds.
  std::vector<std::vector<std::uint64_t>> reference;
  std::vector<double> walls, cpus;
  while (walls.size() < kMinReps ||
         secondsSince(start) + 0.5 * (walls.back() + kSetupBurstS) < seconds) {
    setupBurst();
    RepOutcome rep = runRepetition(workload, inputs, checker, tracer, reference);
    walls.push_back(rep.wallS);
    cpus.push_back(rep.cpuS);
    if (!checker.correct()) break;
  }

  std::fprintf(stderr,
               "[perfbench] %s seed %llu: %zu setup samples, %zu repetitions, "
               "wall median %.4f s\n",
               workload.name, static_cast<unsigned long long>(seed),
               setups.size(), walls.size(), median(walls));
  for (const std::string& error : checker.errors) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", error.c_str());
  }
  printResult(checker, {
                           {"wall_s", median(walls), "s"},
                           {"cpu_s", median(cpus), "s"},
                           {"setup_s", median(setups), "s"},
                           {"peak_rss_mb", peakRssMiB(), "MiB"},
                       });
  return checker.correct() ? 0 : 1;
}

// --- traced mode -------------------------------------------------------------

// Layer totals summed over every run of the traced repetition, read only
// through public accessors after each run() returns.
struct LayerTotals {
  std::uint64_t events{0};
  std::uint64_t transmissions{0};
  std::uint64_t arrivals{0};
  std::uint64_t rowsRebuilt{0};
  std::uint64_t incrementalRebuilds{0};
  std::vector<std::uint64_t> domainArrivals;
  std::map<std::string, std::uint64_t> counters;  // CounterRegistry totals
  std::uint64_t gwCaptured{0}, gwInjected{0}, gwResidual{0};
  std::uint64_t faultsApplied{0};
  double pdrIn{0.0}, pdrOut{0.0}, ttrS{0.0}, inflation{0.0};
  std::size_t faultRuns{0};
  double runS{0.0};
  std::uint64_t allocs{0};

  std::uint64_t c(const char* name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

// Per-run record kept for the spans file.
struct TracedRun {
  std::string protocol;
  harness::RunResults results;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<phy::ChannelStats> channels;
  std::vector<gateway::GatewayCounters> relay;
  double runS{0.0};
};

void absorbRun(harness::Simulation& sim, const harness::RunResults& results,
               double runS, std::uint64_t allocs, LayerTotals& totals,
               TracedRun& record) {
  totals.events += results.eventsExecuted;
  totals.runS += runS;
  totals.allocs += allocs;
  totals.domainArrivals.resize(sim.channelCount(), 0);
  for (std::size_t d = 0; d < sim.channelCount(); ++d) {
    const phy::ChannelStats& stats = sim.domainChannel(d).stats();
    totals.transmissions += stats.transmissions;
    totals.arrivals += stats.deliveriesScheduled;
    totals.domainArrivals[d] += stats.deliveriesScheduled;
    totals.rowsRebuilt += stats.rowsRebuilt;
    totals.incrementalRebuilds += stats.incrementalRebuilds;
    record.channels.push_back(stats);
  }
  record.counters = sim.counters().snapshot();
  for (const auto& [name, value] : record.counters) totals.counters[name] += value;
  if (const gateway::GatewayRelay* relay = sim.gatewayRelay()) {
    record.relay = relay->counters();
    for (const gateway::GatewayCounters& g : record.relay) {
      totals.gwCaptured += g.captured;
      totals.gwInjected += g.injected;
      totals.gwResidual += g.residual;
    }
  }
  if (results.faultsApplied > 0) {
    totals.faultsApplied += results.faultsApplied;
    totals.pdrIn += results.inWindowPdr;
    totals.pdrOut += results.outWindowPdr;
    totals.ttrS += results.meanTimeToRepairS;
    totals.inflation += results.overheadInflation;
    ++totals.faultRuns;
  }
  record.results = results;
  record.runS = runS;
}

// PHY cost with nothing above it: the workload's domain-0 radios on a bare
// Channel, transmitting 540-byte frames round-robin, each drained by
// Simulator::run. Returns nanoseconds per scheduled arrival.
double bareNsPerArrival(const std::vector<Vec2>& positions,
                        const std::vector<net::NodeId>& ids, Tracer& tracer) {
  sim::Simulator simulator;
  phy::PhyParams params;
  auto model = std::make_unique<phy::GeometricLinkModel>(
      params, positions, std::make_unique<phy::TwoRayGroundModel>(),
      std::make_unique<phy::RayleighFading>());
  phy::Channel channel{simulator, std::move(model), Rng{1}.fork("bare")};
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (const net::NodeId id : ids) {
    radios.push_back(std::make_unique<phy::Radio>(simulator, id, params));
    channel.attach(*radios.back());
  }
  channel.rebuildReachabilityNow();
  auto frame = phy::makeFrame(std::vector<std::uint8_t>(540, 0), nullptr);
  const SimTime airtime = params.frameAirtime(540);
  std::size_t tx = 0;
  const double elapsed = tracer.time("phy.bare_rig", [&] {
    const Clock::time_point start = Clock::now();
    while (tx < 200 || secondsSince(start) < kBareRigSeconds) {
      channel.transmit(*radios[tx % radios.size()], frame, airtime);
      ++tx;
      simulator.run();
    }
  });
  return 1e9 * ratio(elapsed, static_cast<double>(channel.stats().deliveriesScheduled));
}

template <typename Fn>
double medianMs(Tracer& tracer, const char* name, int count, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < count; ++i) samples.push_back(1e3 * tracer.time(name, fn));
  return median(samples);
}

// The trace.* metrics: a short SPP run of the paper cell, once untraced and
// once with the packet trace on, replayed with trace::summarizeTrace and
// compared bit-exactly against the harness's own results.
struct TraceCost {
  double recordsPerTx{0.0};
  double bytesPerTx{0.0};
  double overheadX{0.0};
  double replayS{0.0};
};

TraceCost measureTraceExport(std::uint64_t seed, bool smoke,
                             const std::filesystem::path& scratch,
                             Checker& checker, Tracer& tracer) {
  harness::ScenarioConfig config = paperCell(seed);
  if (smoke) {
    setHorizon(config, 2, 4);
  } else {
    setHorizon(config, 30, kTraceHorizonS);
  }
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);

  TraceCost cost;
  harness::RunResults plain;
  const double plainS = tracer.time("trace.untraced_run", [&] {
    harness::Simulation sim{config};
    plain = sim.run();
  });
  std::filesystem::create_directories(scratch);
  const std::filesystem::path path = scratch / "paper_spp.trace.jsonl";
  config.tracePath = path.string();
  harness::RunResults traced;
  std::uint64_t transmissions = 0;
  const double tracedS = tracer.time("trace.traced_run", [&] {
    harness::Simulation sim{config};
    traced = sim.run();
    transmissions = sim.channel().stats().transmissions;
  });
  checker.attempted += 2;
  if (fingerprint(plain) != fingerprint(traced)) {
    ++checker.failed;
    checker.fail("paper_fig2 trace: tracing changed the results");
  }
  trace::TraceSummary summary;
  std::size_t records = 0;
  cost.replayS = tracer.time("trace.replay", [&] {
    trace::TraceReadResult read = trace::readTraceFile(path.string());
    if (!read.trace) {
      checker.fail("paper_fig2 trace: " + read.error);
      return;
    }
    records = read.trace->records.size();
    summary = trace::summarizeTrace(*read.trace);
  });
  const bool same =
      summary.packetsSent == traced.packetsSent &&
      summary.expectedDeliveries == traced.expectedDeliveries &&
      summary.packetsDelivered == traced.packetsDelivered &&
      summary.pdr == traced.pdr && summary.meanDelayS == traced.meanDelayS &&
      summary.throughputBps == traced.throughputBps &&
      summary.probeBytesReceived == traced.probeBytesReceived &&
      summary.dataBytesReceived == traced.dataBytesReceived &&
      summary.controlBytesReceived == traced.controlBytesReceived &&
      summary.probeOverheadPct == traced.probeOverheadPct;
  if (!same) {
    ++checker.failed;
    checker.fail("paper_fig2 trace: trace::replay disagrees with the harness");
  }
  const double bytes = static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove_all(scratch);
  cost.recordsPerTx = ratio(static_cast<double>(records),
                            static_cast<double>(transmissions));
  cost.bytesPerTx = ratio(bytes, static_cast<double>(transmissions));
  cost.overheadX = ratio(tracedS, plainS);
  return cost;
}

void writeSpansFile(const std::string& path, const Workload& workload,
                    std::uint64_t seed, const Tracer& tracer,
                    const std::vector<TracedRun>& runs,
                    const std::vector<Metric>& metrics) {
  if (path.empty()) return;
  const std::filesystem::path target{path};
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path());
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[perfbench] cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\"workload\":\"%s\",\"seed\":%llu,\"spans\":[\n",
               workload.name, static_cast<unsigned long long>(seed));
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(out, "%s{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                      "\"end_s\":%.9f,\"parent\":%d}\n",
                 i > 0 ? "," : "", i, spans[i].name.c_str(), spans[i].start,
                 spans[i].end, spans[i].parent);
  }
  std::fprintf(out, "],\"runs\":[\n");
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const TracedRun& run = runs[r];
    const harness::RunResults& res = run.results;
    std::fprintf(out,
                 "%s{\"protocol\":\"%s\",\"run_s\":%.9f,\"events\":%llu,"
                 "\"pdr\":%.17g,\"recovery\":{\"faults_applied\":%llu,"
                 "\"faults_cleared\":%llu,\"fault_window_s\":%.17g,"
                 "\"in_window_pdr\":%.17g,\"out_window_pdr\":%.17g,"
                 "\"overhead_inflation\":%.17g,\"mean_ttr_s\":%.17g,"
                 "\"repairs_observed\":%llu,\"repairs_unresolved\":%llu},"
                 "\"channels\":[",
                 r > 0 ? "," : "", run.protocol.c_str(), run.runS,
                 static_cast<unsigned long long>(res.eventsExecuted), res.pdr,
                 static_cast<unsigned long long>(res.faultsApplied),
                 static_cast<unsigned long long>(res.faultsCleared),
                 res.faultWindowS, res.inWindowPdr, res.outWindowPdr,
                 res.overheadInflation, res.meanTimeToRepairS,
                 static_cast<unsigned long long>(res.repairsObserved),
                 static_cast<unsigned long long>(res.repairsUnresolved));
    for (std::size_t d = 0; d < run.channels.size(); ++d) {
      const phy::ChannelStats& s = run.channels[d];
      std::fprintf(out,
                   "%s{\"transmissions\":%llu,\"deliveries_scheduled\":%llu,"
                   "\"reachability_rebuilds\":%llu,\"incremental_rebuilds\":%llu,"
                   "\"rows_rebuilt\":%llu,\"coalesced_invalidations\":%llu,"
                   "\"fault_suppressed\":%llu,\"snapshot_adopts\":%llu}",
                   d > 0 ? "," : "",
                   static_cast<unsigned long long>(s.transmissions),
                   static_cast<unsigned long long>(s.deliveriesScheduled),
                   static_cast<unsigned long long>(s.reachabilityRebuilds),
                   static_cast<unsigned long long>(s.incrementalRebuilds),
                   static_cast<unsigned long long>(s.rowsRebuilt),
                   static_cast<unsigned long long>(s.coalescedInvalidations),
                   static_cast<unsigned long long>(s.faultSuppressedDeliveries),
                   static_cast<unsigned long long>(s.snapshotAdopts));
    }
    std::fprintf(out, "],\"relay\":[");
    for (std::size_t g = 0; g < run.relay.size(); ++g) {
      const gateway::GatewayCounters& gw = run.relay[g];
      std::fprintf(out, "%s{\"node\":%u,\"captured\":%llu,\"injected\":%llu,"
                        "\"residual\":%llu}",
                   g > 0 ? "," : "", static_cast<unsigned>(gw.node),
                   static_cast<unsigned long long>(gw.captured),
                   static_cast<unsigned long long>(gw.injected),
                   static_cast<unsigned long long>(gw.residual));
    }
    std::fprintf(out, "],\"counters\":{");
    for (std::size_t i = 0; i < run.counters.size(); ++i) {
      std::fprintf(out, "%s\"%s\":%llu", i > 0 ? "," : "",
                   run.counters[i].first.c_str(),
                   static_cast<unsigned long long>(run.counters[i].second));
    }
    std::fprintf(out, "}}\n");
  }
  std::fprintf(out, "],\"metrics\":{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(out, "%s\"%s\":%.17g", i > 0 ? "," : "",
                 metrics[i].name.c_str(), metrics[i].value);
  }
  std::fprintf(out, "}}\n");
  std::fclose(out);
}

int tracedMode(const Workload& workload, std::uint64_t seed, bool smoke,
               const std::string& spansOut, const std::string& scratch) {
  Checker checker;
  Tracer tracer{Clock::now()};
  const std::vector<harness::ProtocolSpec> protocols = workload.protocols();
  const Inputs inputs = makeInputs(workload, seed, smoke);

  // Untraced reference repetition: the results every traced run must
  // reproduce, and the wall clock the tracing overhead is measured from.
  std::vector<std::vector<std::uint64_t>> reference;
  const RepOutcome plain =
      runRepetition(workload, inputs, checker, tracer, reference);
  // Multi-domain workloads once more with one worker per domain: the
  // results must not change, and CPU/wall shows the parallel speed-up.
  RepOutcome parallel = plain;
  if (inputs.front().channels > 1) {
    Inputs perDomain = inputs;
    for (harness::ScenarioConfig& config : perDomain) {
      config.domainWorkers = config.channels;
    }
    parallel = runRepetition(workload, perDomain, checker, tracer, reference);
  }

  tracer.enable();
  std::vector<double> constructMs, adoptMs;
  for (std::size_t i = 0; i < kTracedSetupSamples; ++i) {
    const SetupSample setup = constructWorlds(workload, inputs, tracer);
    for (const double c : setup.constructs) constructMs.push_back(1e3 * c);
    for (const double a : setup.adopts) adoptMs.push_back(1e3 * a);
  }

  // The traced repetition: the sweep runner's build-then-adopt sequence
  // through direct Simulation calls, so every layer can be read after
  // run(). Results must still match the untraced run bit for bit.
  LayerTotals totals;
  std::vector<TracedRun> runs;
  std::vector<Vec2> positions;
  std::vector<net::NodeId> domain0;
  const double tracedWall = tracer.time("perfbench.traced_repetition", [&] {
    harness::TopologySnapshotPtr snapshot;
    for (std::size_t w = 0; w < workload.topologies * protocols.size(); ++w) {
      const std::size_t p = w % protocols.size();
      harness::ScenarioConfig config =
          runConfig(inputs[w / protocols.size()], protocols[p]);
      std::unique_ptr<harness::Simulation> sim;
      if (p == 0) {
        tracer.time("harness.Simulation(config)", [&] {
          sim = std::make_unique<harness::Simulation>(std::move(config));
          snapshot = sim->captureSnapshot();
        });
      } else {
        tracer.time("harness.Simulation(config,snapshot)", [&] {
          sim = std::make_unique<harness::Simulation>(std::move(config), snapshot);
        });
      }
      if (w == 0) {
        positions = sim->positions();
        domain0 = sim->plan() != nullptr ? sim->plan()->domainNodes(0)
                                         : std::vector<net::NodeId>{};
        if (domain0.empty()) {
          for (std::size_t i = 0; i < positions.size(); ++i) {
            domain0.push_back(static_cast<net::NodeId>(i));
          }
        }
      }
      ++checker.attempted;
      const std::string label = std::string{workload.name} + "/" +
                                protocols[p].name() + " traced";
      harness::RunResults results;
      const std::uint64_t allocsBefore = gAllocs.load();
      gCountAllocs.store(true);
      const double runS = tracer.time("harness.run", [&] { results = sim->run(); });
      gCountAllocs.store(false);
      TracedRun record;
      record.protocol = protocols[p].name();
      absorbRun(*sim, results, runS, gAllocs.load() - allocsBefore, totals, record);
      runs.push_back(std::move(record));
      if (!checkResults(results, label, checker)) {
        ++checker.failed;
      } else if (w >= reference.size() || fingerprint(results) != reference[w]) {
        ++checker.failed;
        checker.fail(label + ": results differ from the untraced run");
      }
    }
  });

  // Reachability build on a fresh world, all domains.
  double reachMs = 0.0;
  {
    harness::Simulation fresh{runConfig(inputs.front(), protocols[0])};
    for (std::size_t d = 0; d < fresh.channelCount(); ++d) {
      reachMs += 1e3 * tracer.time("phy.rebuildReachabilityNow", [&] {
        fresh.domainChannel(d).rebuildReachabilityNow();
      });
    }
  }
  const double bareNs = bareNsPerArrival(positions, domain0, tracer);

  const harness::ScenarioConfig& base = inputs.front();
  double planMs = 0.0, selectMs = 0.0;
  if (base.channels > 1) {
    channelplan::ChannelPlan plan;
    planMs = medianMs(tracer, "channelplan.makeChannelPlan", 5, [&] {
      plan = channelplan::makeChannelPlan(base.channelAssign, base.channels,
                                          positions, 250.0);
    });
    if (base.gateways > 0) {
      selectMs = medianMs(tracer, "gateway.makeGatewaySet", 5, [&] {
        gateway::makeGatewaySet(base.gatewaySelect, base.gateways,
                                base.gatewayNodes, plan, positions, 250.0);
      });
    }
  }
  TraceCost traceCost;
  if (std::strcmp(workload.name, "paper_fig2") == 0) {
    traceCost = measureTraceExport(base.seed, smoke, scratch, checker, tracer);
  }

  // Conservation: every scheduled arrival ends in at most one PHY outcome;
  // the gap is what is still in flight when the run stops (0 unless a
  // frame starts less than one airtime before the horizon) plus anything
  // a fault swallowed.
  const LayerTotals& t = totals;
  const double ledgerGap =
      static_cast<double>(t.arrivals) -
      static_cast<double>(t.c("phy.frames_delivered") +
                          t.c("phy.frames_below_threshold") +
                          t.c("phy.frames_corrupted") +
                          t.c("phy.frames_rate_corrupted") +
                          t.c("phy.frames_missed_busy"));
  if (ledgerGap < 0.0) {
    checker.fail("PHY counted more outcomes than arrivals: gap " +
                 std::to_string(ledgerGap));
  }
  const std::uint64_t macSent =
      t.c("mac.broadcast_sent") + t.c("mac.unicast_sent") - t.c("mac.retries");
  const double tx = static_cast<double>(t.transmissions);
  std::uint64_t maxDomainArrivals = 0;
  for (const std::uint64_t a : t.domainArrivals) {
    maxDomainArrivals = std::max(maxDomainArrivals, a);
  }
  std::uint64_t sent = 0, expected = 0, delivered = 0;
  std::vector<harness::RunResults> results;
  for (const TracedRun& run : runs) {
    sent += run.results.packetsSent;
    expected += run.results.expectedDeliveries;
    delivered += run.results.packetsDelivered;
    results.push_back(run.results);
  }
  const Quality quality = qualityOf(results);
  const double faultRuns = static_cast<double>(std::max<std::size_t>(t.faultRuns, 1));
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::vector<Metric> metrics = {
      {"sim.events", n(t.events), "count"},
      {"sim.events_per_tx", ratio(n(t.events), tx), "ratio"},
      {"sim.ns_per_event", 1e9 * ratio(t.runS, n(t.events)), "ns"},
      {"harness.construct_ms", median(constructMs), "ms"},
      {"harness.adopt_ms", median(adoptMs), "ms"},
      {"runner.snapshot_reuse",
       ratio(n(plain.report.snapshotsReused), n(plain.report.snapshotsBuilt)),
       "ratio"},
      {"phy.transmissions", tx, "count"},
      {"phy.arrivals", n(t.arrivals), "count"},
      {"phy.fanout", ratio(n(t.arrivals), tx), "ratio"},
      {"phy.below_threshold", n(t.c("phy.frames_below_threshold")), "count"},
      {"phy.collisions", n(t.c("phy.frames_corrupted")), "count"},
      {"phy.missed_busy", n(t.c("phy.frames_missed_busy")), "count"},
      {"phy.arrival_event_share", ratio(2.0 * n(t.arrivals), n(t.events)), "ratio"},
      {"phy.decode_ratio", ratio(t.c("phy.frames_delivered"), t.arrivals), "ratio"},
      {"phy.ledger_gap", ledgerGap, "count"},
      {"phy.reach_build_ms", reachMs, "ms"},
      {"phy.bare_ns_per_arrival", bareNs, "ns"},
      {"phy.est_run_share", ratio(bareNs * 1e-9 * n(t.arrivals), t.runS), "ratio"},
      {"phy.rows_rebuilt", n(t.rowsRebuilt), "count"},
      {"phy.incremental_rebuilds", n(t.incrementalRebuilds), "count"},
      {"mac.enqueued", n(t.c("mac.enqueued")), "count"},
      {"mac.sent", n(macSent), "count"},
      {"mac.queue_drops", n(t.c("mac.queue_tail_drops")), "count"},
      {"mac.ledger_gap", n(t.c("mac.enqueued")) - n(macSent), "count"},
      {"metrics.probes_sent", n(t.c("probe.sent")), "count"},
      {"metrics.probes_received", n(t.c("probe.received")), "count"},
      {"metrics.probe_tx_share", ratio(n(t.c("probe.sent")), tx), "ratio"},
      {"odmrp.queries_forwarded", n(t.c("route.queries_forwarded")), "count"},
      {"odmrp.queries_dropped", n(t.c("route.queries_dropped")), "count"},
      {"odmrp.replies_forwarded", n(t.c("route.replies_forwarded")), "count"},
      {"odmrp.data_forwarded", n(t.c("route.data_forwarded")), "count"},
      {"odmrp.dup_ratio",
       ratio(t.c("route.data_duplicates"),
             t.c("route.data_originated") + t.c("route.data_forwarded")),
       "ratio"},
      {"odmrp.control_byte_share",
       ratio(t.c("route.control_bytes_sent"),
             t.c("route.control_bytes_sent") + t.c("route.data_bytes_sent")),
       "ratio"},
      {"app.sent", n(sent), "count"},
      {"app.expected", n(expected), "count"},
      {"app.delivered", n(delivered), "count"},
      {"pdr", quality.pdr, "ratio"},
      {"goodput_kbps", quality.goodputKbps, "kb/s"},
      {"delay_ms", quality.delayMs, "ms"},
      {"probe_overhead_pct", quality.probeOverheadPct, "%"},
      {"channelplan.plan_ms", planMs, "ms"},
      {"channelplan.domain_arrival_max_share",
       ratio(maxDomainArrivals, t.arrivals), "ratio"},
      {"channelplan.cpu_per_wall", ratio(parallel.cpuS, parallel.wallS), "ratio"},
      {"gateway.select_ms", selectMs, "ms"},
      {"gateway.captured", n(t.gwCaptured), "count"},
      {"gateway.injected", n(t.gwInjected), "count"},
      {"gateway.residual", n(t.gwResidual), "count"},
      {"gateway.inject_per_capture", ratio(t.gwInjected, t.gwCaptured), "ratio"},
      {"gateway.handoff_tx_share", ratio(n(t.gwInjected), tx), "ratio"},
      {"fault.applied", n(t.faultsApplied), "count"},
      {"fault.pdr_in_window", t.pdrIn / faultRuns, "ratio"},
      {"fault.pdr_out_window", t.pdrOut / faultRuns, "ratio"},
      {"fault.ttr_s", t.ttrS / faultRuns, "s"},
      {"fault.overhead_inflation", t.inflation / faultRuns, "ratio"},
      {"net.allocs_per_tx", ratio(n(t.allocs), tx), "ratio"},
      {"trace.records_per_tx", traceCost.recordsPerTx, "ratio"},
      {"trace.bytes_per_tx", traceCost.bytesPerTx, "B"},
      {"trace.overhead_x", traceCost.overheadX, "ratio"},
      {"trace.replay_s", traceCost.replayS, "s"},
      {"perfbench.tracing_overhead_s", tracedWall - plain.wallS, "s"},
  };

  // "Where the work goes": one row per workload (each workload is its own
  // process, so the header repeats).
  std::printf("%-13s %6s %11s %8s %7s %8s %8s %8s %8s %8s\n", "workload", "nodes",
              "events", "Mev/s", "fanout", "arr_shr", "probe_tx", "handoff",
              "ns/ev", "phy_est");
  std::printf("%-13s %6zu %11llu %8.2f %7.1f %8.3f %8.3f %8.4f %8.1f %8.3f\n",
              workload.name, positions.size(),
              static_cast<unsigned long long>(t.events),
              1e-6 * ratio(n(t.events), t.runS), ratio(n(t.arrivals), tx),
              ratio(2.0 * n(t.arrivals), n(t.events)),
              ratio(n(t.c("probe.sent")), tx), ratio(n(t.gwInjected), tx),
              1e9 * ratio(t.runS, n(t.events)),
              ratio(bareNs * 1e-9 * n(t.arrivals), t.runS));
  for (const std::string& error : checker.errors) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", error.c_str());
  }
  writeSpansFile(spansOut, workload, seed, tracer, runs, metrics);
  printResult(checker, metrics);
  return checker.correct() ? 0 : 1;
}

// --- entry -------------------------------------------------------------------

// The library and the repo's benches read MESH_* variables that silently
// change a workload (channel count, workers, gateways, rate control, the
// spatial index, the packet pool, the snapshot cache, bench sizes,
// logging). Refuse to measure under any of them.
bool environmentClean() {
  bool clean = true;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "MESH_", 5) != 0) continue;
    const char* eq = std::strchr(*env, '=');
    const std::string name{*env, eq != nullptr ? static_cast<std::size_t>(eq - *env)
                                              : std::strlen(*env)};
    std::fprintf(stderr,
                 "[perfbench] refusing to run: %s is set and would change "
                 "what the benchmark measures; unset it\n",
                 name.c_str());
    clean = false;
  }
  return clean;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "e2e: %s\nusage: e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans-out FILE] [--scratch DIR]\n",
               message);
  std::exit(2);
}

bool parseUint(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workloadName, spansOut, scratch = ".bench_build/perfbench/scratch";
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool haveSeed = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (value == nullptr) usage(("missing value for " + arg).c_str());
    ++i;
    if (arg == "--workload") {
      workloadName = value;
    } else if (arg == "--seed") {
      if (!parseUint(value, seed)) usage("--seed needs a non-negative integer");
      haveSeed = true;
    } else if (arg == "--seconds") {
      if (!parseUint(value, seconds) || seconds == 0) {
        usage("--seconds needs a positive integer");
      }
    } else if (arg == "--trace") {
      if (!parseUint(value, trace) || trace > 1) usage("--trace needs 0 or 1");
    } else if (arg == "--spans-out") {
      spansOut = value;
    } else if (arg == "--scratch") {
      scratch = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!haveSeed || seconds == 0 || trace > 1 || workloadName.empty()) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workloadName == w.name) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload " + workloadName).c_str());
  if (!environmentClean()) return 2;

  try {
    return trace == 1 ? tracedMode(*workload, seed, smoke, spansOut, scratch)
                      : timedMode(*workload, seed, static_cast<double>(seconds),
                                  smoke);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] %s failed: %s\n", workloadName.c_str(),
                 e.what());
    return 1;
  }
}
