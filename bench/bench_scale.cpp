// Engineering bench — the simulator past the paper's 50-node scale.
//
// The paper stops at 50 nodes (Section 4.1); the spatial channel index
// (DESIGN §8.5) exists so the same per-node density can be pushed to 500+
// nodes without the O(n²) reachability build dominating. This bench runs
// ODMRP and ODMRP_SPP at 50 / 200 / 500 nodes with the area scaled to
// keep the paper's 50 nodes/km² density, and reports protocol metrics so
// a sane PDR at 500 nodes is part of the perf story, not assumed.
//
// Quick by default (1 topology × 40 s). MESH_BENCH_* overrides apply.

#include "bench_common.hpp"

#include <cmath>

int main(int argc, char** argv) {
  using namespace mesh;
  using namespace mesh::bench;

  const harness::BenchOptions options = benchOptions(argc, argv, 1, 40);

  const std::size_t nodeCounts[] = {50, 200, 500};

  std::printf("Engineering — ODMRP vs ODMRP_SPP at constant density, scaled node count\n");
  std::printf("%6s  %10s  %12s  %10s  %12s\n", "nodes", "ODMRP pdr",
              "ODMRP thrpt", "SPP pdr", "SPP thrpt");
  for (const std::size_t n : nodeCounts) {
    const auto rows = harness::runProtocolComparison(
        {harness::ProtocolSpec::original(),
         harness::ProtocolSpec::with(metrics::MetricKind::Spp)},
        [n](std::uint64_t seed) {
          harness::ScenarioConfig config = harness::scaledSimulationScenario(n);
          config.seed = seed;
          config.traffic.start = SimTime::seconds(std::int64_t{5});
          Rng groupRng = Rng{seed}.fork("groups");
          config.groups =
              harness::makeRandomGroups(config.nodeCount, 2, 10, 1, groupRng);
          return config;
        },
        options);
    std::printf("%6zu  %10.4f  %10.0f b/s  %10.4f  %10.0f b/s\n", n,
                rows[0].pdr.mean(), rows[0].throughputBps.mean(),
                rows[1].pdr.mean(), rows[1].throughputBps.mean());
  }
  // Multi-channel extension (DESIGN §11): the same footprint packed to 3x
  // the paper's density, carried by one shared channel vs. three
  // orthogonal collision domains. Groups are striped per channel
  // (channel-local multicast) and identical in both runs, so the offered
  // load matches; the single channel has to absorb every JOIN-QUERY flood
  // and CBR frame in one collision domain while channels=3 splits them
  // across independent domains driven by parallel domain workers. The
  // delivered-throughput gap is the subsystem's reason to exist.
  const std::size_t denseCounts[] = {2000, 5000};
  std::printf(
      "\nMulti-channel — 3x density footprint, 1 vs 3 orthogonal channels "
      "(ODMRP_SPP)\n");
  std::printf("%6s  %12s  %10s  %12s  %10s\n", "nodes", "1ch thrpt",
              "1ch pdr", "3ch thrpt", "3ch pdr");
  for (const std::size_t n : denseCounts) {
    const auto denseScenario = [n](std::size_t channels) {
      return [n, channels](std::uint64_t seed) {
        harness::ScenarioConfig config = harness::scaledSimulationScenario(n);
        // Shrink the area by the channel budget: each of the 3 collision
        // domains then sits at the paper's 50 nodes/km².
        config.areaWidthM /= std::sqrt(3.0);
        config.areaHeightM /= std::sqrt(3.0);
        config.seed = seed;
        config.channels = channels;
        config.domainWorkers = channels;
        config.traffic.start = SimTime::seconds(std::int64_t{5});
        Rng groupRng = Rng{seed}.fork("groups");
        config.groups =
            harness::makeStripedGroups(config.nodeCount, 3, 1, 10, 1, groupRng);
        return config;
      };
    };
    const std::vector<harness::ProtocolSpec> spp = {
        harness::ProtocolSpec::with(metrics::MetricKind::Spp)};
    const auto one = harness::runProtocolComparison(spp, denseScenario(1), options);
    const auto three =
        harness::runProtocolComparison(spp, denseScenario(3), options);
    std::printf("%6zu  %10.0f b/s  %10.4f  %10.0f b/s  %10.4f\n", n,
                one[0].throughputBps.mean(), one[0].pdr.mean(),
                three[0].throughputBps.mean(), three[0].pdr.mean());
  }
  // Cross-domain gateways (DESIGN §13): the same 3x-density footprint, but
  // the groups now *span* the domains (drawn over the whole id space, so
  // roughly 2/3 of every group's members sit on a foreign channel). Three
  // rows: one shared channel (every frame contends in one domain), three
  // sealed domains (foreign members are unreachable — PDR caps at the
  // intra-domain fraction), and three domains bridged by boundary-selected
  // gateways relaying at the epoch barriers. The bridged row must beat the
  // sealed row decisively (it reaches foreign members at all — measured
  // ~4x delivered throughput at 5000 nodes). The shared-channel row is the
  // honest upper bound on this fully-global workload: every gateway
  // re-injects every captured flood frame into every foreign domain, so
  // the relay funnels roughly the global control load through 12 nodes —
  // closing that gap (handoff filtering, more gateways) is the top
  // ROADMAP open item, and the row is printed so progress is visible.
  {
    const std::size_t n = 5000;
    const auto spanningScenario = [n](std::size_t channels,
                                      std::size_t gateways) {
      return [n, channels, gateways](std::uint64_t seed) {
        harness::ScenarioConfig config = harness::scaledSimulationScenario(n);
        config.areaWidthM /= std::sqrt(3.0);
        config.areaHeightM /= std::sqrt(3.0);
        config.seed = seed;
        config.channels = channels;
        config.domainWorkers = channels;
        config.gateways = gateways;
        config.gatewaySelect = gateway::GatewaySelect::Boundary;
        config.traffic.start = SimTime::seconds(std::int64_t{5});
        Rng groupRng = Rng{seed}.fork("spangroups");
        config.groups =
            harness::makeRandomGroups(config.nodeCount, 3, 10, 1, groupRng);
        return config;
      };
    };
    const std::vector<harness::ProtocolSpec> spp = {
        harness::ProtocolSpec::with(metrics::MetricKind::Spp)};
    const auto oneCh = harness::runProtocolComparison(
        spp, spanningScenario(1, 0), options);
    const auto sealed = harness::runProtocolComparison(
        spp, spanningScenario(3, 0), options);
    const auto bridged = harness::runProtocolComparison(
        spp, spanningScenario(3, 12), options);
    std::printf(
        "\nGateways — %zu nodes at 3x density, domain-spanning groups "
        "(ODMRP_SPP)\n", n);
    std::printf("%22s  %10s  %12s\n", "variant", "pdr", "thrpt");
    std::printf("%22s  %10.4f  %10.0f b/s\n", "1 channel",
                oneCh[0].pdr.mean(), oneCh[0].throughputBps.mean());
    std::printf("%22s  %10.4f  %10.0f b/s\n", "3 channels, sealed",
                sealed[0].pdr.mean(), sealed[0].throughputBps.mean());
    std::printf("%22s  %10.4f  %10.0f b/s\n", "3 channels + gateways",
                bridged[0].pdr.mean(), bridged[0].throughputBps.mean());
  }
  printPaperReference(
      "Section 4.1 (scale extension)",
      "the paper's density is 50 nodes/km²; at 500 nodes the mesh spans "
      "~3.2 km × 3.2 km and multicast routes cross many more hops, so PDR "
      "below the 50-node value is expected — it must stay well above zero; "
      "the multi-channel rows must show channels=3 delivering measurably "
      "more than channels=1 at the same dense footprint");
  return 0;
}
