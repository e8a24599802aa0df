// Tests for the mobility models and the mobile link model / channel
// reachability refresh.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mesh/harness/scenario.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/phy/frame.hpp"
#include "mesh/phy/link_model.hpp"
#include "mesh/phy/mobility.hpp"

namespace mesh::phy {
namespace {

using namespace mesh::time_literals;

RandomWaypointMobility::Params smallArea() {
  RandomWaypointMobility::Params params;
  params.areaWidthM = 500.0;
  params.areaHeightM = 300.0;
  params.minSpeedMps = 2.0;
  params.maxSpeedMps = 8.0;
  params.maxPause = 4_s;
  params.horizon = 300_s;
  return params;
}

TEST(RandomWaypoint, StaysInsideArea) {
  RandomWaypointMobility model{5, smallArea(), Rng{1}};
  for (net::NodeId n = 0; n < 5; ++n) {
    for (int t = 0; t <= 300; t += 3) {
      const Vec2 p = model.positionAt(n, SimTime::seconds(std::int64_t{t}));
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 500.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 300.0);
    }
  }
}

TEST(RandomWaypoint, RespectsSpeedLimit) {
  RandomWaypointMobility model{4, smallArea(), Rng{2}};
  const SimTime dt = 500_ms;
  for (net::NodeId n = 0; n < 4; ++n) {
    SimTime t = SimTime::zero();
    Vec2 prev = model.positionAt(n, t);
    while (t < 250_s) {
      t += dt;
      const Vec2 cur = model.positionAt(n, t);
      const double speed = prev.distanceTo(cur) / dt.toSeconds();
      EXPECT_LE(speed, 8.0 * 1.001) << "node " << n << " at " << t.str();
      prev = cur;
    }
  }
}

TEST(RandomWaypoint, ActuallyMoves) {
  RandomWaypointMobility model{3, smallArea(), Rng{3}};
  int moved = 0;
  for (net::NodeId n = 0; n < 3; ++n) {
    const Vec2 a = model.positionAt(n, 0_s);
    const Vec2 b = model.positionAt(n, 100_s);
    moved += a.distanceTo(b) > 10.0;
  }
  EXPECT_GE(moved, 2);  // pausing forever is not an option
}

TEST(RandomWaypoint, DeterministicPerSeed) {
  RandomWaypointMobility a{3, smallArea(), Rng{7}};
  RandomWaypointMobility b{3, smallArea(), Rng{7}};
  RandomWaypointMobility c{3, smallArea(), Rng{8}};
  bool anyDiffer = false;
  for (int t = 0; t <= 200; t += 10) {
    const SimTime at = SimTime::seconds(std::int64_t{t});
    EXPECT_EQ(a.positionAt(1, at), b.positionAt(1, at));
    anyDiffer |= !(a.positionAt(1, at) == c.positionAt(1, at));
  }
  EXPECT_TRUE(anyDiffer);
}

TEST(RandomWaypoint, FreezesBeyondHorizon) {
  RandomWaypointMobility model{2, smallArea(), Rng{4}};
  const Vec2 end = model.positionAt(0, 400_s);
  const Vec2 later = model.positionAt(0, 500_s);
  EXPECT_EQ(end, later);
}

TEST(StaticMobilityTest, NeverMoves) {
  StaticMobility model{{{1.0, 2.0}, {3.0, 4.0}}};
  EXPECT_EQ(model.positionAt(1, 0_s), (Vec2{3.0, 4.0}));
  EXPECT_EQ(model.positionAt(1, 999_s), (Vec2{3.0, 4.0}));
  EXPECT_DOUBLE_EQ(model.maxSpeedMps(), 0.0);
}

TEST(MobileLinkModel, PowerTracksDistanceOverTime) {
  sim::Simulator simulator;
  RandomWaypointMobility::Params params = smallArea();
  auto mobility = std::make_unique<RandomWaypointMobility>(2, params, Rng{5});
  const auto* mobilityPtr = mobility.get();
  MobileGeometricLinkModel model{simulator, PhyParams{}, std::move(mobility),
                                 std::make_unique<TwoRayGroundModel>(),
                                 std::make_unique<NoFading>()};
  // Power must equal the static formula at the instantaneous distance; the
  // simulator clock only advances via events, so schedule the checks.
  for (int t = 0; t <= 200; t += 20) {
    simulator.schedule(SimTime::seconds(std::int64_t{t}), [&] {
      const double d = mobilityPtr->positionAt(0, simulator.now())
                           .distanceTo(mobilityPtr->positionAt(1, simulator.now()));
      EXPECT_NEAR(model.meanRxPowerW(0, 1),
                  TwoRayGroundModel::atDistance(PhyParams{}, d),
                  model.meanRxPowerW(0, 1) * 1e-9);
      EXPECT_NEAR(model.distanceM(0, 1), d, 1e-9);
    });
  }
  simulator.run();
}

TEST(MobilityEndToEnd, MovingMeshStillDelivers) {
  // A dense mobile mesh: connectivity churns but ODMRP's periodic refresh
  // keeps routes alive; the run must stay healthy (no crash, most data
  // delivered).
  harness::ScenarioConfig config;
  config.nodeCount = 15;
  config.areaWidthM = 400.0;
  config.areaHeightM = 400.0;
  config.mobilityMaxSpeedMps = 5.0;
  config.rayleighFading = false;  // isolate mobility effects
  config.duration = 120_s;
  config.seed = 6;
  config.traffic.start = 20_s;
  config.traffic.stop = 110_s;
  config.groups = {harness::GroupSpec{1, {0}, {8, 9, 10}}};
  config.protocol = harness::ProtocolSpec::original();
  harness::Simulation sim{std::move(config)};
  const auto results = sim.run();
  EXPECT_GT(results.pdr, 0.75);
}

TEST(MobileLinkModel, LiveQueriesMatchFrozenPositionsBitForBit) {
  // meansCacheable() == false forces the channel to query the model live
  // per transmission instead of freezing per-pair means into the link
  // cache. The contract behind that fallback: a live query at time t is
  // bit-identical to a static model frozen at the instantaneous positions
  // — same propagation arithmetic, same fading draw sequence.
  sim::Simulator simulator;
  RandomWaypointMobility::Params params = smallArea();
  auto mobility = std::make_unique<RandomWaypointMobility>(3, params, Rng{21});
  const auto* mobilityPtr = mobility.get();
  MobileGeometricLinkModel mobile{simulator, PhyParams{}, std::move(mobility),
                                  std::make_unique<TwoRayGroundModel>(),
                                  std::make_unique<RayleighFading>()};
  ASSERT_FALSE(mobile.meansCacheable());

  for (int t = 0; t <= 120; t += 30) {
    simulator.schedule(SimTime::seconds(std::int64_t{t}), [&] {
      const SimTime now = simulator.now();
      std::vector<Vec2> frozen;
      for (net::NodeId n = 0; n < 3; ++n) {
        frozen.push_back(mobilityPtr->positionAt(n, now));
      }
      const GeometricLinkModel still{PhyParams{}, frozen,
                                     std::make_unique<TwoRayGroundModel>(),
                                     std::make_unique<RayleighFading>()};
      // Identical Rng streams: the draws must align sample for sample.
      Rng liveRng{99};
      Rng frozenRng{99};
      for (int draw = 0; draw < 8; ++draw) {
        EXPECT_EQ(mobile.sampleRxPowerW(0, 1, liveRng),
                  still.sampleRxPowerW(0, 1, frozenRng))
            << "t=" << t << " draw=" << draw;
      }
      EXPECT_EQ(mobile.meanRxPowerW(1, 2), still.meanRxPowerW(1, 2));
      EXPECT_EQ(mobile.distanceM(1, 2), still.distanceM(1, 2));
    });
  }
  simulator.run();
}

TEST(MobileLinkModel, ChannelCountsLiveVsCachedRebuilds) {
  // A mobile scenario must take the live-rebuild path on every refresh
  // (no frozen per-pair means), a static one the cached path; the split
  // counters always sum to the rebuild total.
  auto runAtSpeed = [](double speed) {
    harness::ScenarioConfig config;
    config.nodeCount = 8;
    config.areaWidthM = 300.0;
    config.areaHeightM = 300.0;
    config.mobilityMaxSpeedMps = speed;
    config.rayleighFading = false;
    config.duration = 20_s;
    config.seed = 13;
    config.traffic.start = 2_s;
    config.traffic.stop = 19_s;
    config.groups = {harness::GroupSpec{1, {0}, {5, 6}}};
    harness::Simulation sim{std::move(config)};
    sim.run();
    return sim.channel().stats();
  };

  const ChannelStats moving = runAtSpeed(5.0);
  EXPECT_GT(moving.liveRebuilds, 0u);
  EXPECT_EQ(moving.cachedRebuilds, 0u);
  EXPECT_EQ(moving.reachabilityRebuilds,
            moving.cachedRebuilds + moving.liveRebuilds);

  const ChannelStats parked = runAtSpeed(0.0);
  EXPECT_GT(parked.cachedRebuilds, 0u);
  EXPECT_EQ(parked.liveRebuilds, 0u);
  EXPECT_EQ(parked.reachabilityRebuilds,
            parked.cachedRebuilds + parked.liveRebuilds);
}

TEST(MobileLinkModel, LiveDelaysBeginInDelayThenRowOrder) {
  // Under mobility every delay is queried live per transmission. Nodes 1,
  // 3 and 4 sit exactly 70 m from the transmitter, 2 and 6 exactly 50 m:
  // equal delays must begin in row (receiver index) order. Every delay is
  // below 256 ns, so one radix pass orders them and a pass that reversed
  // ties would show.
  const std::vector<Vec2> positions{{0, 0},   {70, 0},   {30, 40}, {0, 70},
                                    {42, 56}, {15, 20}, {-40, -30}};
  sim::Simulator simulator;
  const PhyParams params;
  auto model = std::make_unique<MobileGeometricLinkModel>(
      simulator, params, std::make_unique<StaticMobility>(positions),
      std::make_unique<TwoRayGroundModel>(), std::make_unique<NoFading>());
  Channel channel{simulator, std::move(model), Rng{5}.fork("channel")};
  channel.enableReachabilityRefresh(200_ms);
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::pair<net::NodeId, SimTime>> begins;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    radios.push_back(std::make_unique<Radio>(
        simulator, static_cast<net::NodeId>(i), params));
    channel.attach(*radios.back());
    Radio& radio = *radios.back();
    radio.setMediumCallback([&begins, &radio, &simulator](bool busy) {
      if (busy) begins.emplace_back(radio.nodeId(), simulator.now());
    });
    radio.setMediumListening(i != 0);
  }
  radios[0]->transmit(makeFrame(std::vector<std::uint8_t>(100, 0), nullptr),
                      params.frameAirtime(100));
  simulator.run(1_s);

  const auto at = [](double distanceM) {
    return SimTime::seconds(distanceM / 299'792'458.0);
  };
  const std::vector<std::pair<net::NodeId, SimTime>> expected{
      {5, at(25)}, {2, at(50)}, {6, at(50)},
      {1, at(70)}, {3, at(70)}, {4, at(70)}};
  EXPECT_EQ(begins, expected);
  EXPECT_EQ(channel.stats().liveRebuilds, 1u);
}

TEST(MobilityEndToEnd, MobilityErodesMetricFreshness) {
  // Static vs fast-moving mesh under SPP: the probe windows go stale as
  // neighbors churn, so the metric's PDR drops with speed.
  auto pdrAtSpeed = [](double speed) {
    harness::ScenarioConfig config;
    config.nodeCount = 20;
    config.areaWidthM = 700.0;
    config.areaHeightM = 700.0;
    config.mobilityMaxSpeedMps = speed;
    config.rayleighFading = true;
    config.duration = 150_s;
    config.seed = 11;
    config.traffic.start = 30_s;
    config.traffic.stop = 140_s;
    config.groups = {harness::GroupSpec{1, {0}, {12, 13, 14, 15}}};
    config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
    harness::Simulation sim{std::move(config)};
    return sim.run().pdr;
  };
  const double fast = pdrAtSpeed(12.0);
  EXPECT_GT(fast, 0.1);  // still functional, just worse
  // (A strict static > fast assertion would be flaky per-seed; the
  // bench_mobility extension measures the trend over many seeds.)
}

}  // namespace
}  // namespace mesh::phy
