// Spatial channel index guarantees (DESIGN §8.5).
//
// The uniform grid must be invisible except for speed:
//  * SpatialGrid superset contract — candidatesWithin never misses a
//    radio inside the query radius, including positions exactly on cell
//    boundaries, everything collapsed into one cell, and nodes at the
//    world origin/extent.
//  * Channel rows bit-identical grid vs. scan, for static geometry, for
//    Rayleigh-fading delivery statistics, and for a moving node crossing
//    cells mid-run under the frozen-refresh mobility model.
//  * Incremental invalidation (Radio::setFailed -> invalidateRadio)
//    produces exactly the rows a full rebuild would, and repeated
//    invalidations coalesce.
//
// The O(n²) pair scan survives only as the path for models without
// geometry; here it is the oracle, forced by wrapping a geometric model in
// ScanOnly (spatiallyIndexable() == false).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "mesh/phy/channel.hpp"
#include "mesh/phy/fading.hpp"
#include "mesh/phy/link_model.hpp"
#include "mesh/phy/propagation.hpp"
#include "mesh/phy/spatial_grid.hpp"

namespace mesh::phy {
namespace {

using namespace mesh::time_literals;

// ------------------------------------------------ SpatialGrid unit tests

std::vector<std::uint32_t> sortedCandidates(const SpatialGrid& grid,
                                            Vec2 center, double radius) {
  std::vector<std::uint32_t> out;
  grid.candidatesWithin(center, radius, out);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SpatialGrid, BoundaryPositionsLandInExactlyOneCell) {
  // Positions exactly on cell boundaries (multiples of the cell size) and
  // on the bounding-box max corner must each be bucketed exactly once.
  std::vector<Vec2> positions = {{0, 0},     {100, 0},  {200, 0},
                                 {100, 100}, {0, 200},  {200, 200},
                                 {150, 50},  {100, 200}};
  SpatialGrid grid;
  grid.build(positions, 100.0);
  EXPECT_EQ(grid.radioCount(), positions.size());

  // A query covering everything returns every radio exactly once.
  const auto all = sortedCandidates(grid, {100, 100}, 1000.0);
  ASSERT_EQ(all.size(), positions.size());
  for (std::uint32_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

TEST(SpatialGrid, AllRadiosInOneCellStillEnumerate) {
  std::vector<Vec2> positions(17, Vec2{5.0, 5.0});  // duplicates too
  SpatialGrid grid;
  grid.build(positions, 1000.0);
  EXPECT_EQ(grid.cellCount(), 1u);
  const auto all = sortedCandidates(grid, {5, 5}, 1.0);
  ASSERT_EQ(all.size(), positions.size());
  for (std::uint32_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

TEST(SpatialGrid, QueryCenterOutsideTheGridIsValid) {
  std::vector<Vec2> positions = {{0, 0}, {50, 50}, {100, 100}};
  SpatialGrid grid;
  grid.build(positions, 30.0);
  // Center far outside the bounding box: clamping must not crash and the
  // superset must still contain the radios actually within the radius.
  const auto hits = sortedCandidates(grid, {-500, -500}, 710.0);
  EXPECT_TRUE(std::find(hits.begin(), hits.end(), 0u) != hits.end());
  // A tiny query nowhere near the grid returns nothing inside the radius
  // once the exact distance filter is applied; the superset may or may
  // not be empty, but must not contain out-of-range cells' radios when
  // the whole grid is beyond the radius.
  std::vector<std::uint32_t> far;
  grid.candidatesWithin({-500, -500}, 10.0, far);
  EXPECT_TRUE(far.empty());
}

TEST(SpatialGrid, RandomizedSupersetProperty) {
  // The load-bearing contract: for random geometry, cell sizes, and query
  // radii, candidatesWithin ⊇ { i : |p_i - c| <= r }.
  Rng rng{2024};
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(
                                  rng.uniformInt(std::uint64_t{200}));
    const double side = 10.0 + rng.uniform(0.0, 5000.0);
    std::vector<Vec2> positions;
    positions.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back(
          {rng.uniform(0.0, side), rng.uniform(0.0, side)});
    }
    SpatialGrid grid;
    const double cell = 1.0 + rng.uniform(0.0, side);
    grid.build(positions, cell);
    for (int q = 0; q < 10; ++q) {
      const Vec2 center{rng.uniform(-side * 0.2, side * 1.2),
                        rng.uniform(-side * 0.2, side * 1.2)};
      const double radius = rng.uniform(0.0, side);
      const auto candidates = sortedCandidates(grid, center, radius);
      const std::set<std::uint32_t> got(candidates.begin(), candidates.end());
      for (std::uint32_t i = 0; i < n; ++i) {
        if (center.distanceTo(positions[i]) <= radius) {
          EXPECT_TRUE(got.count(i))
              << "round " << round << " query " << q << " missed radio " << i;
        }
      }
    }
  }
}

// ------------------------------------- conservative reach-radius contract

TEST(Propagation, MaxRangeIsAConservativeUpperBound) {
  PhyParams params;
  const TwoRayGroundModel model;
  for (const double floorW : {1e-9, 1e-11, 1e-13, 1e-15}) {
    const double reach = maxRangeForMeanPowerM(model, params, floorW);
    ASSERT_TRUE(reach > 0.0);
    // Strictly below the floor just past the returned radius...
    EXPECT_LT(model.rxPowerW(params, {0, 0}, {reach * 1.0001, 0}), floorW);
    // ...and at/above it a touch inside.
    EXPECT_GE(model.rxPowerW(params, {0, 0}, {reach * 0.999, 0}), floorW);
  }
}

// ------------------------------------------------ channel row equivalence

// Forwards every link query to `inner` but declines the spatial index, so
// the channel builds its rows with the full pair scan.
class ScanOnly final : public LinkModel {
 public:
  explicit ScanOnly(std::unique_ptr<LinkModel> inner)
      : inner_{std::move(inner)} {}

  double meanRxPowerW(net::NodeId from, net::NodeId to) const override {
    return inner_->meanRxPowerW(from, to);
  }
  double sampleRxPowerW(net::NodeId from, net::NodeId to,
                        Rng& rng) const override {
    return inner_->sampleRxPowerW(from, to, rng);
  }
  double distanceM(net::NodeId from, net::NodeId to) const override {
    return inner_->distanceM(from, to);
  }
  bool meansCacheable() const override { return inner_->meansCacheable(); }
  double samplePowerGivenMeanW(net::NodeId from, net::NodeId to,
                               double meanPowerW, Rng& rng) const override {
    return inner_->samplePowerGivenMeanW(from, to, meanPowerW, rng);
  }
  const FadingModel* meanScaledFading() const override {
    return inner_->meanScaledFading();
  }

 private:
  std::unique_ptr<LinkModel> inner_;
};

std::unique_ptr<LinkModel> indexedOrScan(std::unique_ptr<LinkModel> model,
                                         bool spatial) {
  if (spatial) return model;
  return std::make_unique<ScanOnly>(std::move(model));
}

struct Rig {
  sim::Simulator simulator;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<Radio>> radios;

  Rig(const std::vector<Vec2>& positions, bool spatial, bool rayleigh = false,
      std::uint64_t seed = 99) {
    PhyParams params;
    std::unique_ptr<FadingModel> fading;
    if (rayleigh) {
      fading = std::make_unique<RayleighFading>();
    } else {
      fading = std::make_unique<NoFading>();
    }
    auto model = std::make_unique<GeometricLinkModel>(
        params, positions, std::make_unique<TwoRayGroundModel>(),
        std::move(fading));
    channel = std::make_unique<Channel>(
        simulator, indexedOrScan(std::move(model), spatial),
        Rng{seed}.fork("channel"));
    for (std::size_t i = 0; i < positions.size(); ++i) {
      radios.push_back(std::make_unique<Radio>(
          simulator, static_cast<net::NodeId>(i), params));
      channel->attach(*radios.back());
    }
  }

  PhyFramePtr frame(std::size_t bytes = 100) {
    return makeFrame(std::vector<std::uint8_t>(bytes, 0xAB), nullptr);
  }
  SimTime airtime(std::size_t bytes = 100) {
    return radios[0]->params().frameAirtime(bytes);
  }
};

std::vector<Vec2> randomPositions(std::size_t n, double side,
                                  std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return positions;
}

// Deliveries observed per receiver for one broadcast from each radio.
std::vector<std::uint64_t> broadcastDeliveryCounts(Rig& rig) {
  std::vector<std::uint64_t> delivered(rig.radios.size(), 0);
  for (std::size_t i = 0; i < rig.radios.size(); ++i) {
    rig.radios[i]->setReceiveCallback(
        [&delivered, i](const PhyFramePtr&, const RxInfo&) {
          ++delivered[i];
        });
  }
  for (auto& radio : rig.radios) {
    radio->transmit(rig.frame(), rig.airtime());
    rig.simulator.run();
  }
  return delivered;
}

TEST(SpatialChannel, GridAndScanDeliverIdenticallyUnderRayleigh) {
  // Wide sparse area (the regime where the grid actually prunes): every
  // radio broadcasts once; per-receiver delivery counts — which depend on
  // receiver-set contents AND RNG draw order — must match bit-for-bit.
  const auto positions = randomPositions(120, 7000.0, 31);
  Rig gridRig{positions, /*spatial=*/true, /*rayleigh=*/true};
  Rig scanRig{positions, /*spatial=*/false, /*rayleigh=*/true};
  const auto viaGrid = broadcastDeliveryCounts(gridRig);
  const auto viaScan = broadcastDeliveryCounts(scanRig);
  EXPECT_TRUE(gridRig.channel->spatialIndexActive());
  EXPECT_FALSE(scanRig.channel->spatialIndexActive());
  EXPECT_EQ(viaGrid, viaScan);
  EXPECT_EQ(gridRig.channel->stats().deliveriesScheduled,
            scanRig.channel->stats().deliveriesScheduled);
  // The comparison is not vacuous.
  std::uint64_t total = 0;
  for (const auto d : viaGrid) total += d;
  EXPECT_GT(total, 0u);
}

TEST(SpatialChannel, NodeAtWorldOriginAndExtentMatchScan) {
  // Corner nodes exercise the grid's boundary rows/columns.
  std::vector<Vec2> positions = randomPositions(40, 3000.0, 32);
  positions.push_back({0.0, 0.0});
  positions.push_back({3000.0, 3000.0});
  positions.push_back({0.0, 3000.0});
  positions.push_back({3000.0, 0.0});
  Rig gridRig{positions, true, true};
  Rig scanRig{positions, false, true};
  EXPECT_EQ(broadcastDeliveryCounts(gridRig),
            broadcastDeliveryCounts(scanRig));
}

TEST(SpatialChannel, IncrementalInvalidationMatchesFullRebuild) {
  // Fail and recover radios one at a time; after each step the grid
  // channel (incremental row rebuilds) and the scan channel (full
  // rebuilds) must deliver identically.
  const auto positions = randomPositions(60, 5000.0, 33);
  Rig gridRig{positions, true};
  Rig scanRig{positions, false};
  // Prime both caches.
  gridRig.channel->rebuildReachabilityNow();
  scanRig.channel->rebuildReachabilityNow();

  Rng pick{77};
  for (int step = 0; step < 12; ++step) {
    const auto victim =
        static_cast<std::size_t>(pick.uniformInt(std::uint64_t{60}));
    const bool fail = (step % 3) != 2;  // mostly fail, sometimes recover
    gridRig.radios[victim]->setFailed(fail);
    scanRig.radios[victim]->setFailed(fail);
    EXPECT_EQ(broadcastDeliveryCounts(gridRig),
              broadcastDeliveryCounts(scanRig))
        << "diverged after step " << step;
  }
  // The grid side actually took the incremental path.
  EXPECT_GT(gridRig.channel->stats().incrementalRebuilds, 0u);
  EXPECT_GT(gridRig.channel->stats().rowsRebuilt, 0u);
  // Incremental passes rebuild fewer rows than n * passes would.
  EXPECT_LT(gridRig.channel->stats().rowsRebuilt,
            gridRig.channel->stats().incrementalRebuilds * 60);
  // The scan side fell back to full rebuilds.
  EXPECT_GT(scanRig.channel->stats().reachabilityRebuilds, 1u);
}

TEST(SpatialChannel, RepeatInvalidationsCoalesce) {
  const auto positions = randomPositions(30, 2000.0, 34);
  Rig rig{positions, true};
  rig.channel->rebuildReachabilityNow();
  ASSERT_EQ(rig.channel->stats().coalescedInvalidations, 0u);

  // Same radio invalidated twice before the next transmit: the second is
  // coalesced (the rows it would dirty are already pending).
  rig.radios[3]->setFailed(true);
  rig.channel->invalidateRadio(rig.radios[3]->nodeId());
  EXPECT_EQ(rig.channel->stats().coalescedInvalidations, 1u);

  // A full invalidation absorbs the dirty set; further invalidations of
  // any kind coalesce against the pending full rebuild.
  rig.channel->invalidateReachability();
  rig.channel->invalidateReachability();
  rig.channel->invalidateRadio(rig.radios[7]->nodeId());
  EXPECT_EQ(rig.channel->stats().coalescedInvalidations, 3u);

  // The pending rebuild happens once, on the next transmission.
  const auto rebuildsBefore = rig.channel->stats().reachabilityRebuilds;
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_EQ(rig.channel->stats().reachabilityRebuilds, rebuildsBefore + 1);
}

TEST(SpatialChannel, MovingNodeCrossingCellsMatchesScanBitForBit) {
  // Random-waypoint mobility with the periodic frozen-refresh: positions
  // cross grid cells between rebuilds. The grid is rebuilt from live
  // positions at every refresh, so delivery behavior must stay identical
  // to the scan path throughout.
  const std::size_t n = 40;
  const auto run = [&](bool spatial) {
    PhyParams params;
    sim::Simulator simulator;
    RandomWaypointMobility::Params mp;
    mp.areaWidthM = 4000.0;
    mp.areaHeightM = 4000.0;
    mp.minSpeedMps = 10.0;
    mp.maxSpeedMps = 20.0;
    mp.maxPause = 1_s;
    mp.horizon = 30_s;
    auto mobility = std::make_unique<RandomWaypointMobility>(
        n, mp, Rng{55}.fork("mobility"));
    auto model = std::make_unique<MobileGeometricLinkModel>(
        simulator, params, std::move(mobility),
        std::make_unique<TwoRayGroundModel>(),
        std::make_unique<RayleighFading>());
    Channel channel{simulator, indexedOrScan(std::move(model), spatial),
                    Rng{56}.fork("channel")};
    channel.enableReachabilityRefresh(2_s);
    std::vector<std::unique_ptr<Radio>> radios;
    std::vector<std::uint64_t> delivered(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      radios.push_back(std::make_unique<Radio>(
          simulator, static_cast<net::NodeId>(i), params));
      channel.attach(*radios.back());
      radios.back()->setReceiveCallback(
          [&delivered, i](const PhyFramePtr&, const RxInfo&) {
            ++delivered[i];
          });
    }
    // One broadcast per second per node for 20 s: many refreshes, nodes
    // cross cells between them.
    auto frame = makeFrame(std::vector<std::uint8_t>(100, 0xCD), nullptr);
    const SimTime airtime = params.frameAirtime(100);
    for (int second = 0; second < 20; ++second) {
      for (std::size_t i = 0; i < n; ++i) {
        simulator.schedule(
            SimTime::seconds(std::int64_t{second}) +
                SimTime::milliseconds(static_cast<std::int64_t>(i * 7)) -
                simulator.now(),
            [&radios, i, frame, airtime] {
              if (!radios[i]->isTransmitting()) {
                radios[i]->transmit(frame, airtime);
              }
            });
      }
    }
    simulator.run();
    return std::pair{delivered, channel.stats().reachabilityRebuilds};
  };

  const auto [viaGrid, gridRebuilds] = run(true);
  const auto [viaScan, scanRebuilds] = run(false);
  EXPECT_EQ(viaGrid, viaScan);
  EXPECT_EQ(gridRebuilds, scanRebuilds);
  EXPECT_GT(gridRebuilds, 5u);  // the refresh actually cycled
  std::uint64_t total = 0;
  for (const auto d : viaGrid) total += d;
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace mesh::phy
