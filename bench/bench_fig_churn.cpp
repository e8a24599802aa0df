// Extension — metric robustness under churn (src/mesh/fault).
//
// The paper evaluates a healthy static mesh; this bench asks what each
// routing metric buys when the mesh is *not* healthy. For each failure
// rate, a seed-defined fault schedule (node crashes + link blackouts +
// interference bursts, victims drawn outside the source/member sets) is
// injected into the Section 4.1 scenario, and the RecoveryAnalyzer
// reports per-run churn metrics: PDR inside vs outside fault windows,
// control-overhead inflation while the protocol heals, and time-to-repair
// after forwarding-group node death. One JSONL record per (metric,
// failure-rate, topology) run when --jsonl is given; every row carries a
// `failure_rate` tag.
//
// --on-route sharpens the figure (DESIGN §9): the default victim draw
// excludes endpoints but not *bystanders* — at the paper's density most
// random crashes hit nodes no route runs through, so in-window PDR barely
// moves. The flag runs a fault-free pilot per topology, ranks nodes by
// how much data they actually forwarded (the union of per-node data-edge
// counts), and crashes the top forwarders; the topology is also drawn
// ~35% sparser and the runs go the paper's full 400 s, so crashes land
// on links routes actually use and the out-window recovery is long
// enough to measure.

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "bench_common.hpp"
#include "mesh/runner/result_sink.hpp"
#include "mesh/runner/sweep.hpp"

namespace {

// Fault-free pilot: same topology, seed, and groups; the original ODMRP
// (one victim list per topology, shared by every metric — fairer than
// letting each protocol nominate its own victims). Returns the heaviest
// data forwarders outside the source/member sets, busiest first.
std::vector<mesh::net::NodeId> onRouteVictims(
    const mesh::harness::ScenarioConfig& base, std::size_t count) {
  using namespace mesh;
  harness::ScenarioConfig pilot = base;
  pilot.churn.reset();
  pilot.churnVictims.clear();
  pilot.protocol = harness::ProtocolSpec::original();
  pilot.duration = SimTime::seconds(std::int64_t{100});
  pilot.tracePath.clear();
  harness::Simulation sim{pilot};
  sim.run();

  std::vector<std::uint64_t> forwarded(pilot.nodeCount, 0);
  for (const auto& [edge, packets] : sim.dataEdgeCounts()) {
    forwarded[edge.from] += packets;
  }
  std::vector<bool> endpoint(pilot.nodeCount, false);
  for (const harness::GroupSpec& spec : pilot.groups) {
    for (const net::NodeId s : spec.sources) endpoint.at(s) = true;
    for (const net::NodeId m : spec.members) endpoint.at(m) = true;
  }
  std::vector<net::NodeId> ranked;
  for (std::size_t i = 0; i < pilot.nodeCount; ++i) {
    if (!endpoint[i] && forwarded[i] > 0) {
      ranked.push_back(static_cast<net::NodeId>(i));
    }
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](net::NodeId a, net::NodeId b) {
                     return forwarded[a] > forwarded[b];
                   });
  if (ranked.size() > count) ranked.resize(count);
  return ranked;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mesh;
  using namespace mesh::bench;

  bool onRoute = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--on-route") == 0) onRoute = true;
  }

  harness::BenchOptions options =
      benchOptions(argc, argv, kQuickTopologies, kQuickDurationS);
  if (onRoute) options.duration = SimTime::zero();  // keep the 400 s below

  // One sink across the whole sweep: the constructor truncates, so opening
  // it per failure rate would keep only the last rate's rows.
  std::unique_ptr<runner::JsonlResultSink> sink;
  if (!options.jsonlPath.empty()) {
    sink = std::make_unique<runner::JsonlResultSink>(options.jsonlPath);
    options.jsonlPath.clear();
  }
  const std::string traceRoot = options.traceDir;

  // Failure rate: expected fault events per minute, per category (crashes,
  // blackouts, bursts all run at this rate). 0 = the paper's fault-free
  // baseline.
  const double rates[] = {0.0, 1.0, 3.0, 6.0};
  const std::vector<harness::ProtocolSpec> protocols =
      harness::figure2Protocols();

  // Per-topology victim cache: the scenario factory runs once per
  // (protocol, rate, topology) and may run on sweep worker threads, but
  // the pilot only depends on the seed.
  std::map<std::uint64_t, std::vector<net::NodeId>> victimCache;
  std::mutex victimMutex;

  std::printf("Extension — churn robustness (faults/min per category%s)\n",
              onRoute ? ", on-route victims" : "");
  std::printf("%-10s  %6s  %8s  %8s  %8s  %8s  %8s\n", "protocol", "rate",
              "pdr", "pdr_in", "pdr_out", "ttr_s", "ovh_x");
  for (const double rate : rates) {
    if (sink != nullptr) {
      char extra[48];
      std::snprintf(extra, sizeof extra, "\"failure_rate\":%.17g", rate);
      sink->setExtra(extra);
    }
    if (!traceRoot.empty()) {
      // Per-rate subdirectory: trace names are keyed by (topology,
      // protocol, seed) only, identical across rates.
      char sub[32];
      std::snprintf(sub, sizeof sub, "/rate_%g", rate);
      options.traceDir = traceRoot + sub;
    }

    const runner::SweepReport report = runner::runComparisonSweep(
        protocols,
        [rate, onRoute, &victimCache, &victimMutex](std::uint64_t seed) {
          harness::ScenarioConfig config = simulationScenario(seed);
          if (onRoute) {
            // Sparser mesh (~37 nodes/km² instead of 50) and the paper's
            // full 400 s: fewer detours around a dead forwarder, and
            // enough post-repair runtime for out-window PDR to mean
            // something.
            config.areaWidthM *= 1.16;
            config.areaHeightM *= 1.16;
            config.duration = SimTime::seconds(std::int64_t{400});
            config.traffic.stop = config.duration;
          }
          if (rate > 0.0) {
            fault::ChurnSpec churn;
            churn.crashesPerMinute = rate;
            churn.blackoutsPerMinute = rate;
            churn.burstsPerMinute = rate;
            // Routes exist only after traffic starts at 30 s.
            churn.warmup = SimTime::seconds(std::int64_t{40});
            config.churn = churn;
            if (onRoute) {
              std::scoped_lock lock{victimMutex};
              auto [it, fresh] = victimCache.try_emplace(seed);
              if (fresh) it->second = onRouteVictims(config, 5);
              config.churnVictims = it->second;
            }
          }
          return config;
        },
        options, sink.get());

    // Fold churn metrics per protocol (the sweep report's rows cover the
    // headline metrics only).
    for (std::size_t p = 0; p < protocols.size(); ++p) {
      OnlineStats pdr, inPdr, outPdr, ttr, inflation;
      for (const runner::RunRecord& record : report.records) {
        if (!record.ok || record.protocolIndex != p) continue;
        pdr.add(record.results.pdr);
        inPdr.add(record.results.inWindowPdr);
        outPdr.add(record.results.outWindowPdr);
        if (record.results.repairsObserved > 0) {
          ttr.add(record.results.meanTimeToRepairS);
        }
        inflation.add(record.results.overheadInflation);
      }
      std::printf("%-10s  %6.1f  %8.4f  %8.4f  %8.4f  %8.2f  %8.2f\n",
                  protocols[p].name().c_str(), rate, pdr.mean(), inPdr.mean(),
                  outPdr.mean(), ttr.mean(), inflation.mean());
    }
  }
  printPaperReference(
      "Section 6 (future work: robustness)",
      "expect in-window PDR to fall and control overhead to inflate with "
      "failure rate; metrics with loss history (ETX/SPP) should repair onto "
      "good links faster than freshest-flood ODMRP");
  return 0;
}
