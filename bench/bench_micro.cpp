// Microbenchmarks of the simulator's hot paths (google-benchmark).
//
// These are engineering benches, not paper experiments: they track the
// cost of the primitives the 29-million-event Figure 2 runs are made of.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "mesh/channelplan/channel_plan.hpp"
#include "mesh/common/rng.hpp"
#include "mesh/gateway/gateway_relay.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/harness/topology_snapshot.hpp"
#include "mesh/mac/frames.hpp"
#include "mesh/mac/mac80211.hpp"
#include "mesh/net/packet.hpp"
#include "mesh/net/pool.hpp"
#include "mesh/metrics/loss_window.hpp"
#include "mesh/metrics/metric.hpp"
#include "mesh/metrics/neighbor_table.hpp"
#include "mesh/odmrp/messages.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/phy/fading.hpp"
#include "mesh/phy/link_model.hpp"
#include "mesh/phy/propagation.hpp"
#include "mesh/rate/rate_controller.hpp"
#include "mesh/rate/rate_table.hpp"
#include "mesh/sim/event_queue.hpp"
#include "mesh/sim/simulator.hpp"

namespace {

using namespace mesh;
using namespace mesh::time_literals;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  Rng rng{1};
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.push(SimTime::nanoseconds(t + rng.uniformInt(std::int64_t{0},
                                                         std::int64_t{1000000})),
                 [] {});
    }
    for (int i = 0; i < 64; ++i) {
      auto popped = queue.pop();
      benchmark::DoNotOptimize(popped.time);
      t = popped.time.ns();
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_EventQueuePushPop);

// Timer-restart workload: half of all scheduled events are cancelled
// before firing (MAC backoff and protocol-window timers behave this way).
// Exercises the O(1) generation-tagged tombstone path plus the lazy
// discard of tombstones surfacing at the heap root.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
  sim::EventQueue queue;
  Rng rng{7};
  std::int64_t t = 0;
  std::vector<sim::EventId> ids;
  ids.reserve(64);
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < 64; ++i) {
      ids.push_back(queue.push(
          SimTime::nanoseconds(t + rng.uniformInt(std::int64_t{0},
                                                  std::int64_t{1000000})),
          [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) queue.cancel(ids[i]);
    while (!queue.empty()) {
      auto popped = queue.pop();
      benchmark::DoNotOptimize(popped.time);
      t = popped.time.ns();
    }
  }
  state.SetItemsProcessed(state.iterations() * 96);  // 64 pushes + 32 pops
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < 1000; ++i) {
      simulator.schedule(SimTime::microseconds(std::int64_t{i}), [] {});
    }
    simulator.run();
    benchmark::DoNotOptimize(simulator.eventsExecuted());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_RngUniform(benchmark::State& state) {
  Rng rng{2};
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void BM_RayleighGain(benchmark::State& state) {
  Rng rng{3};
  phy::RayleighFading fading;
  for (auto _ : state) benchmark::DoNotOptimize(fading.powerGain(rng));
}
BENCHMARK(BM_RayleighGain);

void BM_TwoRayPropagation(benchmark::State& state) {
  phy::PhyParams params;
  phy::TwoRayGroundModel model;
  double d = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.rxPowerW(params, {0, 0}, {d, 0}));
    d = d < 1000.0 ? d + 1.0 : 10.0;
  }
}
BENCHMARK(BM_TwoRayPropagation);

void BM_MetricAccumulate(benchmark::State& state) {
  const auto metric =
      metrics::makeMetric(static_cast<metrics::MetricKind>(state.range(0)));
  metrics::LinkMeasurement m;
  m.df = 0.7;
  m.hasDelay = true;
  m.delayS = 0.005;
  m.hasBandwidth = true;
  m.bandwidthBps = 1.5e6;
  for (auto _ : state) {
    double cost = metric->initialPathCost();
    for (int hop = 0; hop < 8; ++hop) {
      cost = metric->accumulate(cost, metric->linkCost(m));
    }
    benchmark::DoNotOptimize(cost);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MetricAccumulate)
    ->Arg(static_cast<int>(metrics::MetricKind::Etx))
    ->Arg(static_cast<int>(metrics::MetricKind::Metx))
    ->Arg(static_cast<int>(metrics::MetricKind::Spp))
    ->Arg(static_cast<int>(metrics::MetricKind::Pp));

void BM_LossWindowUpdateAndQuery(benchmark::State& state) {
  metrics::LossWindow window{10};
  std::uint32_t seq = 0;
  SimTime t = SimTime::zero();
  for (auto _ : state) {
    window.onProbe(seq++, t);
    t += 5_s;
    benchmark::DoNotOptimize(window.df(t, 5_s));
  }
}
BENCHMARK(BM_LossWindowUpdateAndQuery);

void BM_NeighborTableProbe(benchmark::State& state) {
  metrics::NeighborTable table{5_s};
  std::uint32_t seq = 0;
  SimTime t = SimTime::zero();
  for (auto _ : state) {
    metrics::ProbeMessage probe;
    probe.type = metrics::ProbeType::Single;
    probe.sender = static_cast<net::NodeId>(seq % 30);
    probe.seq = seq / 30;
    table.onProbe(probe, t);
    ++seq;
    t += 100_ms;
    benchmark::DoNotOptimize(
        table.measure(static_cast<net::NodeId>(seq % 30), t).df);
  }
}
BENCHMARK(BM_NeighborTableProbe);

void BM_TxVectorAirtime(benchmark::State& state) {
  // Per-frame rate-aware airtime lookup: the cost Mac80211::airtime adds
  // over the legacy PhyParams path on every multi-rate transmission.
  const rate::RateTable table =
      rate::RateTable::forSet(rate::RateSetKind::DsssOfdm);
  std::uint8_t code = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.frameAirtime(540, code));
    code = static_cast<std::uint8_t>(code % table.size() + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxVectorAirtime);

void BM_MinstrelDecision(benchmark::State& state) {
  // Worst-case Minstrel broadcast pick: every feedback dirties the cache,
  // so each dataVector() call recomputes the bitrate × coverage-quantile
  // argmax over a warm 10-neighbor × full-ladder state.
  const rate::RateTable table =
      rate::RateTable::forSet(rate::RateSetKind::DsssOfdm);
  rate::MinstrelController minstrel{table};
  Rng rng{42};
  for (net::NodeId n = 1; n <= 10; ++n) {
    for (std::uint8_t c = 1; c <= table.size(); ++c) {
      minstrel.onRateFeedback(n, c, rng.uniform());
    }
  }
  net::NodeId neighbor = 1;
  std::uint8_t code = 1;
  for (auto _ : state) {
    minstrel.onRateFeedback(neighbor, code, 0.9);
    benchmark::DoNotOptimize(minstrel.dataVector().code);
    neighbor = static_cast<net::NodeId>(neighbor % 10 + 1);
    code = static_cast<std::uint8_t>(code % table.size() + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinstrelDecision);

void BM_JoinQuerySerializeParse(benchmark::State& state) {
  odmrp::JoinQuery query;
  query.group = 1;
  query.source = 10;
  query.seq = 1234;
  query.hopCount = 3;
  query.prevHop = 7;
  query.pathCost = 0.456;
  for (auto _ : state) {
    const auto bytes = query.serialize();
    benchmark::DoNotOptimize(odmrp::JoinQuery::parse(bytes));
  }
}
BENCHMARK(BM_JoinQuerySerializeParse);

// The pooled serialization path every data transmission pays (DESIGN §12):
// build the ODMRP data packet straight into its slab slot (exact-size
// writer, no temporary vector), serialize the MAC header into a stack
// buffer, and wrap both in a pooled PhyFrame. What the old
// make_shared + vector-building Frame::serialize path cost per frame is
// now this row.
void BM_FrameSerialize(benchmark::State& state) {
  odmrp::DataHeader h;
  h.group = 1;
  h.source = 3;
  std::uint32_t seq = 0;
  for (auto _ : state) {
    h.seq = ++seq;
    auto payload = net::Packet::build(
        net::PacketKind::Data, 3, odmrp::kDataHeaderBytes + 512,
        SimTime::zero(), 0, [&h](net::ByteWriter& w) {
          h.writeTo(w);
          w.zeros(512);
        });
    mac::Frame f;
    f.header.type = mac::FrameType::Data;
    f.header.src = 3;
    f.header.seq = static_cast<std::uint16_t>(seq);
    f.payload = payload;
    std::uint8_t buf[phy::PhyFrame::kMaxHeaderBytes];
    const std::size_t headerLen = f.serializeHeader(buf);
    auto frame = phy::makeFrame(std::span<const std::uint8_t>{buf, headerLen},
                                f.sizeBytes(), std::move(payload));
    benchmark::DoNotOptimize(frame->sizeBytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameSerialize);

// End-to-end pooled frame round trip: node 0's MAC broadcasts an ODMRP
// data packet, the channel fans it out, every receiver's MAC delivers the
// payload, and the rx callback decodes the header through the packet's
// view cache (one parse per frame, not per receiver). hotpath_test pins
// this path's zero-alloc property; this row tracks its cost.
void BM_PacketRoundTrip(benchmark::State& state) {
  sim::Simulator simulator;
  phy::PhyParams params;
  const int n = 12;
  std::vector<Vec2> positions;
  Rng place{17};
  for (int i = 0; i < n; ++i) {
    positions.push_back({place.uniform(0.0, 300.0), place.uniform(0.0, 300.0)});
  }
  auto model = std::make_unique<phy::GeometricLinkModel>(
      params, positions, std::make_unique<phy::TwoRayGroundModel>(),
      std::make_unique<phy::RayleighFading>());
  phy::Channel channel{simulator, std::move(model), Rng{18}};
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<mac::Mac80211>> macs;
  std::uint64_t decoded = 0;
  for (int i = 0; i < n; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        simulator, static_cast<net::NodeId>(i), params));
    channel.attach(*radios.back());
    macs.push_back(std::make_unique<mac::Mac80211>(
        simulator, *radios.back(), mac::MacParams{},
        Rng{19}.fork("mac", static_cast<std::uint64_t>(i))));
    macs.back()->setReceiveCallback(
        [&decoded](const net::PacketPtr& p, net::NodeId) {
          if (odmrp::DataHeader::decode(*p) != nullptr) ++decoded;
        });
  }
  odmrp::DataHeader h;
  h.group = 1;
  h.source = 0;
  std::uint32_t seq = 0;
  for (auto _ : state) {
    h.seq = ++seq;
    auto p = net::Packet::build(
        net::PacketKind::Data, 0, odmrp::kDataHeaderBytes + 512,
        simulator.now(), 0, [&h](net::ByteWriter& w) {
          h.writeTo(w);
          w.zeros(512);
        });
    macs[0]->send(std::move(p), net::kBroadcastNode);
    simulator.run(simulator.now() + 10_ms);  // drain the exchange
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decoded));
}
BENCHMARK(BM_PacketRoundTrip);

void BM_ChannelBroadcastFanout(benchmark::State& state) {
  // 50 radios in the paper's area; one broadcast per iteration.
  sim::Simulator simulator;
  phy::PhyParams params;
  std::vector<Vec2> positions;
  Rng place{5};
  for (int i = 0; i < 50; ++i) {
    positions.push_back({place.uniform(0, 1000), place.uniform(0, 1000)});
  }
  auto model = std::make_unique<phy::GeometricLinkModel>(
      params, positions, std::make_unique<phy::TwoRayGroundModel>(),
      std::make_unique<phy::RayleighFading>());
  phy::Channel channel{simulator, std::move(model), Rng{6}};
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (int i = 0; i < 50; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        simulator, static_cast<net::NodeId>(i), params));
    channel.attach(*radios.back());
  }
  auto frame = phy::makeFrame(std::vector<std::uint8_t>(540, 0), nullptr);
  const SimTime airtime = params.frameAirtime(540);
  std::size_t tx = 0;
  for (auto _ : state) {
    radios[tx % 50]->transmit(frame, airtime);
    ++tx;
    simulator.run();  // drain all arrivals
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelBroadcastFanout);

// The per-transmission channel loop in isolation: Channel::transmit over
// the precomputed link cache (fading draw + delivery scheduling), then a
// drain of the scheduled arrivals. Tracks the zero-virtual-call hot path
// that every simulated frame funnels through.
void BM_ChannelTransmit(benchmark::State& state) {
  sim::Simulator simulator;
  phy::PhyParams params;
  std::vector<Vec2> positions;
  Rng place{8};
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    positions.push_back({place.uniform(0, 1500), place.uniform(0, 1500)});
  }
  auto model = std::make_unique<phy::GeometricLinkModel>(
      params, positions, std::make_unique<phy::TwoRayGroundModel>(),
      std::make_unique<phy::RayleighFading>());
  phy::Channel channel{simulator, std::move(model), Rng{9}};
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (int i = 0; i < n; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        simulator, static_cast<net::NodeId>(i), params));
    channel.attach(*radios.back());
  }
  auto frame = phy::makeFrame(std::vector<std::uint8_t>(540, 0), nullptr);
  const SimTime airtime = params.frameAirtime(540);
  std::size_t tx = 0;
  for (auto _ : state) {
    channel.transmit(*radios[tx % n], frame, airtime);
    ++tx;
    simulator.run();  // drain the scheduled arrivals
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(channel.stats().deliveriesScheduled));
}
BENCHMARK(BM_ChannelTransmit);

// Shared rig for the reachability-build and fan-out benches: n radios
// placed uniformly at a given density.
struct ReachabilityRig {
  sim::Simulator simulator;
  phy::PhyParams params;
  std::unique_ptr<phy::Channel> channel;
  std::vector<std::unique_ptr<phy::Radio>> radios;

  ReachabilityRig(std::int64_t n, double nodesPerKm2) {
    const double side =
        1000.0 * std::sqrt(static_cast<double>(n) / nodesPerKm2);
    std::vector<Vec2> positions;
    Rng place{11};
    for (std::int64_t i = 0; i < n; ++i) {
      positions.push_back(
          {place.uniform(0.0, side), place.uniform(0.0, side)});
    }
    auto model = std::make_unique<phy::GeometricLinkModel>(
        params, positions, std::make_unique<phy::TwoRayGroundModel>(),
        std::make_unique<phy::RayleighFading>());
    channel =
        std::make_unique<phy::Channel>(simulator, std::move(model), Rng{12});
    for (std::int64_t i = 0; i < n; ++i) {
      radios.push_back(std::make_unique<phy::Radio>(
          simulator, static_cast<net::NodeId>(i), params));
      channel->attach(*radios.back());
    }
  }
};

// Full reachability rebuild cost on the uniform grid across the 50 -> 1000
// node sweep. Density is fixed well below the paper's 50/km² (2/km²: the
// ~1.3 km reach disk then holds ~10 nodes) so the per-row candidate count
// k stays small and constant while n grows — the regime where the build
// must scale as O(n·k), not O(n²).
void BM_BuildReachabilityGrid(benchmark::State& state) {
  ReachabilityRig rig{state.range(0), 2.0};
  for (auto _ : state) {
    rig.channel->rebuildReachabilityNow();
    benchmark::DoNotOptimize(rig.channel->stats().reachabilityRebuilds);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildReachabilityGrid)->Arg(50)->Arg(200)->Arg(500)->Arg(1000);

// Per-transmission cost at the paper's density as the mesh scales. The
// cached receiver row holds the nodes inside one ~1.3 km reach disk —
// about 270 at 50 nodes/km² — so per-transmit cost grows until the area
// outgrows the disk (n ≈ 300) and must stay flat from there to 1000
// nodes: O(k) in disk occupancy, not O(n) in mesh size.
void BM_TransmitFanout(benchmark::State& state) {
  ReachabilityRig rig{state.range(0), 50.0};
  const auto n = static_cast<std::size_t>(state.range(0));
  auto frame = phy::makeFrame(std::vector<std::uint8_t>(540, 0), nullptr);
  const SimTime airtime = rig.params.frameAirtime(540);
  std::size_t tx = 0;
  for (auto _ : state) {
    rig.channel->transmit(*rig.radios[tx % n], frame, airtime);
    ++tx;
    rig.simulator.run();  // drain the scheduled arrivals
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(rig.channel->stats().deliveriesScheduled));
}
BENCHMARK(BM_TransmitFanout)->Arg(50)->Arg(200)->Arg(500)->Arg(1000);

// Frame dispatch across orthogonal collision domains. 150 radios at the
// paper's density are striped over `channels` domains (one Channel +
// Simulator each); every iteration transmits one frame per domain and
// drains the arrivals. At channels=1 this is BM_ChannelTransmit plus the
// plan overhead; at channels=3 each frame fans out to a third of the
// receivers, so per-frame cost must drop — that gap is the mechanism the
// multi-channel scaling win (bench_scale) is made of.
void BM_MultiChannelTransmit(benchmark::State& state) {
  const auto channelCount = static_cast<std::size_t>(state.range(0));
  const int n = 150;
  phy::PhyParams params;
  const double side = 1000.0 * std::sqrt(n / 50.0);
  std::vector<Vec2> positions;
  Rng place{13};
  for (int i = 0; i < n; ++i) {
    positions.push_back({place.uniform(0.0, side), place.uniform(0.0, side)});
  }
  const channelplan::ChannelPlan plan = channelplan::makeChannelPlan(
      channelplan::AssignStrategy::Static, channelCount, positions, 250.0);

  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<std::unique_ptr<phy::Channel>> channels;
  std::vector<std::vector<std::unique_ptr<phy::Radio>>> radios(channelCount);
  for (std::size_t d = 0; d < channelCount; ++d) {
    sims.push_back(std::make_unique<sim::Simulator>());
    auto model = std::make_unique<phy::GeometricLinkModel>(
        params, positions, std::make_unique<phy::TwoRayGroundModel>(),
        std::make_unique<phy::RayleighFading>());
    channels.push_back(std::make_unique<phy::Channel>(
        *sims[d], std::move(model), Rng{14}.fork("channel", d)));
    for (const net::NodeId id : plan.domainNodes(d)) {
      radios[d].push_back(
          std::make_unique<phy::Radio>(*sims[d], id, params));
      channels[d]->attach(*radios[d].back());
    }
  }
  auto frame = phy::makeFrame(std::vector<std::uint8_t>(540, 0), nullptr);
  const SimTime airtime = params.frameAirtime(540);
  std::size_t tx = 0;
  for (auto _ : state) {
    for (std::size_t d = 0; d < channelCount; ++d) {
      channels[d]->transmit(*radios[d][tx % radios[d].size()], frame,
                            airtime);
      sims[d]->run();  // drain the scheduled arrivals
    }
    ++tx;
  }
  std::uint64_t delivered = 0;
  for (const auto& channel : channels) {
    delivered += channel->stats().deliveriesScheduled;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_MultiChannelTransmit)->Arg(1)->Arg(3);

// Full scaled-topology construction at the sizes the multi-channel
// subsystem exists for: grid placement (O(n), no rejection loop), a
// 3-channel plan, and per-domain channel/node wiring. This is the
// bench_scale setup path under the perf-smoke gate — a reintroduced
// O(n²) placement or plan pass shows up here long before anyone runs a
// 5000-node sweep by hand.
void BM_ScaleTopologyBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    harness::ScenarioConfig config = harness::scaledSimulationScenario(n);
    config.seed = 15;
    config.channels = 3;
    Rng groupRng = Rng{config.seed}.fork("groups");
    config.groups = harness::makeStripedGroups(n, 3, 1, 10, 1, groupRng);
    harness::Simulation sim{config};
    benchmark::DoNotOptimize(sim.plan()->maxSameChannelNeighbors);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScaleTopologyBuild)->Arg(2000)->Arg(5000);

// Snapshot adoption (DESIGN §14): the construction cost a sweep run pays
// when the topology world is already cached. Same 3-channel scaled
// scenarios as BM_ScaleTopologyBuild, but the placement, channel plan and
// every reachability build are spliced in from a frozen snapshot — the
// remaining cost is node/protocol wiring. The gap between this row and
// BM_ScaleTopologyBuild at the same n is the per-run win the sweep-level
// cache converts into wall-clock.
void BM_SnapshotAdopt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::ScenarioConfig config = harness::scaledSimulationScenario(n);
  config.seed = 15;
  config.channels = 3;
  Rng groupRng = Rng{config.seed}.fork("groups");
  config.groups = harness::makeStripedGroups(n, 3, 1, 10, 1, groupRng);
  harness::TopologySnapshotPtr snapshot;
  {
    harness::Simulation builder{config};
    snapshot = builder.captureSnapshot();
  }
  for (auto _ : state) {
    harness::Simulation sim{config, snapshot};
    benchmark::DoNotOptimize(sim.adoptedSnapshot());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SnapshotAdopt)->Arg(500)->Arg(2000);

// The sweep's per-run setup path, cold vs warm, on one 500-node
// single-channel world: cold is what the first run of a topology pays
// (full world build plus the freeze); warm is what each sibling run pays
// (adopting the frozen world).
harness::ScenarioConfig sweepSetupScenario() {
  harness::ScenarioConfig config = harness::scaledSimulationScenario(500);
  config.seed = 16;
  Rng groupRng = Rng{config.seed}.fork("groups");
  config.groups = harness::makeRandomGroups(500, 2, 10, 1, groupRng);
  return config;
}

void BM_SweepSetupCold(benchmark::State& state) {
  const harness::ScenarioConfig config = sweepSetupScenario();
  for (auto _ : state) {
    harness::Simulation sim{config};
    benchmark::DoNotOptimize(sim.captureSnapshot());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepSetupCold);

void BM_SweepSetupWarm(benchmark::State& state) {
  const harness::ScenarioConfig config = sweepSetupScenario();
  harness::TopologySnapshotPtr snapshot;
  {
    harness::Simulation builder{config};
    snapshot = builder.captureSnapshot();
  }
  for (auto _ : state) {
    harness::Simulation sim{config, snapshot};
    benchmark::DoNotOptimize(sim.adoptedSnapshot());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepSetupWarm);

// The cross-domain handoff path (DESIGN §13): stage one epoch's worth of
// outbound broadcasts at a gateway, then drain the barrier — merge-sort
// the lanes, rebuild every frame into the destination domain's pool, hand
// it to the port MAC, and drain the foreign domain's transmission. This
// is the per-frame cost a spanning multicast group pays on top of the
// intra-domain forwarding that BM_PacketRoundTrip tracks.
void BM_GatewayHandoff(benchmark::State& state) {
  const std::size_t domains = 2;
  phy::PhyParams params;
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<std::unique_ptr<phy::Channel>> channels;
  std::vector<std::unique_ptr<net::PacketPool>> pools;
  std::vector<std::vector<std::unique_ptr<phy::Radio>>> radios(domains);
  // One position per node id across both domains (the link model indexes
  // positions by id, like the harness' shared node roster).
  Rng place{21};
  std::vector<Vec2> positions;
  for (std::size_t i = 0; i < domains * 10; ++i) {
    positions.push_back({place.uniform(0.0, 400.0), place.uniform(0.0, 400.0)});
  }
  for (std::size_t d = 0; d < domains; ++d) {
    sims.push_back(std::make_unique<sim::Simulator>());
    pools.push_back(std::make_unique<net::PacketPool>());
    auto model = std::make_unique<phy::GeometricLinkModel>(
        params, positions, std::make_unique<phy::TwoRayGroundModel>(),
        std::make_unique<phy::RayleighFading>());
    channels.push_back(std::make_unique<phy::Channel>(
        *sims[d], std::move(model), Rng{22}.fork("channel", d)));
    // Disjoint id ranges per domain, as a channel plan would assign them —
    // the port radio reuses the gateway's id on the foreign channel.
    for (std::size_t i = 0; i < 10; ++i) {
      radios[d].push_back(std::make_unique<phy::Radio>(
          *sims[d], static_cast<net::NodeId>(d * 10 + i), params));
      channels[d]->attach(*radios[d].back());
    }
  }
  std::vector<gateway::GatewayRelay::DomainContext> contexts;
  for (std::size_t d = 0; d < domains; ++d) {
    contexts.push_back(gateway::GatewayRelay::DomainContext{
        sims[d].get(), channels[d].get(), pools[d].get(), nullptr});
  }
  gateway::GatewayRelay relay{std::move(contexts)};
  std::uint64_t inbound = 0;
  const std::size_t gw = relay.addGateway(
      0, /*home=*/0, params, mac::MacParams{}, Rng{23},
      [&inbound](const net::PacketPtr&, net::NodeId) { ++inbound; });

  net::PacketPool* prev = net::PacketPool::setCurrent(pools[0].get());
  auto packet = net::Packet::make(net::PacketKind::Data, 0,
                                  std::vector<std::uint8_t>(540, 0), 0_s);
  net::PacketPool::setCurrent(prev);
  constexpr int kPerEpoch = 32;
  for (auto _ : state) {
    for (int i = 0; i < kPerEpoch; ++i) relay.captureOutbound(gw, packet);
    relay.drainAtBarrier();
    for (auto& sim : sims) sim->run();  // drain the foreign transmissions
  }
  benchmark::DoNotOptimize(inbound);
  state.SetItemsProcessed(state.iterations() * kPerEpoch);
}
BENCHMARK(BM_GatewayHandoff);

// Carrier-sense query cost with N concurrent arrivals: the MAC polls
// mediumBusy() far more often than the arrival set changes, so this must
// be O(1) on the running in-band power sum, not O(arrivals).
void BM_RadioMediumBusy(benchmark::State& state) {
  sim::Simulator simulator;
  phy::PhyParams params;
  phy::Radio radio{simulator, 0, params};
  auto frame = phy::makeFrame(std::vector<std::uint8_t>(64, 0), nullptr);
  // Park N weak (non-locking) arrivals on the radio; their ends lie an
  // hour ahead, so every query takes sync()'s one-compare early out.
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    radio.beginArrival(frame, params.rxThresholdW * 0.1,
                       SimTime::seconds(std::int64_t{3600}));
  }
  for (auto _ : state) benchmark::DoNotOptimize(radio.mediumBusy());
}
BENCHMARK(BM_RadioMediumBusy)->Arg(1)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
