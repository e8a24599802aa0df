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
//  * A failed receiver is an absent receiver: skipping it at transmit
//    time gives exactly the draws and arrivals of a row built without it.
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
        [&delivered, i](const PhyFramePtr&) {
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

// A geometric model that logs every power draw and can hide one receiver:
// while hidden, every link into it has zero mean power, so a row built
// then leaves it out. Every draw goes through samplePowerGivenMeanW (no
// inline Rayleigh), so the log sees all of them.
class HideableLinks final : public LinkModel {
 public:
  struct Draw {
    net::NodeId from;
    net::NodeId to;
    double powerW;
    bool operator==(const Draw&) const = default;
  };

  HideableLinks(std::unique_ptr<GeometricLinkModel> inner,
                std::vector<Draw>& log)
      : inner_{std::move(inner)}, log_{log} {}

  void hide(net::NodeId node) { hidden_ = node; }
  void unhide() { hidden_ = net::kInvalidNode; }

  double meanRxPowerW(net::NodeId from, net::NodeId to) const override {
    return to == hidden_ ? 0.0 : inner_->meanRxPowerW(from, to);
  }
  double distanceM(net::NodeId from, net::NodeId to) const override {
    return inner_->distanceM(from, to);
  }
  double samplePowerGivenMeanW(net::NodeId from, net::NodeId to,
                               double meanPowerW, Rng& rng) const override {
    const double powerW =
        inner_->samplePowerGivenMeanW(from, to, meanPowerW, rng);
    log_.push_back(Draw{from, to, powerW});
    return powerW;
  }
  bool spatiallyIndexable() const override { return true; }
  Vec2 nodePosition(net::NodeId node) const override {
    return inner_->nodePosition(node);
  }
  double maxReachRadiusM(double minMeanPowerW) const override {
    return inner_->maxReachRadiusM(minMeanPowerW);
  }

 private:
  std::unique_ptr<GeometricLinkModel> inner_;
  std::vector<Draw>& log_;
  net::NodeId hidden_{net::kInvalidNode};
};

// The executing event's seq: the largest s that reached(now, s) admits.
std::uint64_t executingSeq(const sim::Simulator& simulator) {
  std::uint64_t lo = 0;
  std::uint64_t hi = std::uint64_t{1} << 40;  // seqs are 40 bits
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (simulator.reached(simulator.now(), mid) ? lo : hi) = mid;
  }
  return lo;
}

TEST(SpatialChannel, FailedReceiverIsAnAbsentReceiver) {
  // Two same-seed channels over one geometry. In `failing`, radio k is
  // failed and recovered with setFailed and the rows are never rebuilt;
  // in `hiding`, k's links fall below the row predicate instead and the
  // rows are rebuilt at each flip — what a rebuilt row without k gives.
  // Partial loss overrides on every link into k (and one more) make the
  // loss draws part of the comparison: a skip placed after k's loss draw
  // or after its power draw shifts every later draw.
  constexpr std::size_t kNodes = 12;
  constexpr net::NodeId k = 5;
  const auto positions = randomPositions(kNodes, 400.0, 35);

  struct Arrival {
    net::NodeId receiver;
    SimTime at;
    std::uint64_t seq;
    bool operator==(const Arrival&) const = default;
  };
  struct Side {
    sim::Simulator simulator;
    std::vector<HideableLinks::Draw> draws;
    std::vector<Arrival> arrivals;
    HideableLinks* links{nullptr};
    std::unique_ptr<Channel> channel;
    std::vector<std::unique_ptr<Radio>> radios;

    explicit Side(const std::vector<Vec2>& positions) {
      PhyParams params;
      auto model = std::make_unique<HideableLinks>(
          std::make_unique<GeometricLinkModel>(
              params, positions, std::make_unique<TwoRayGroundModel>(),
              std::make_unique<RayleighFading>()),
          draws);
      links = model.get();
      channel = std::make_unique<Channel>(simulator, std::move(model),
                                          Rng{61}.fork("channel"));
      for (std::size_t i = 0; i < positions.size(); ++i) {
        radios.push_back(std::make_unique<Radio>(
            simulator, static_cast<net::NodeId>(i), params));
        Radio& radio = *radios.back();
        channel->attach(radio);
        // Each broadcast runs to completion before the next, so every
        // arrival above carrier sense begins with a busy edge.
        radio.setMediumCallback([this, &radio](bool busy) {
          if (!busy) return;
          arrivals.push_back(Arrival{radio.nodeId(), simulator.now(),
                                     executingSeq(simulator)});
        });
        radio.setMediumListening(true);
      }
      for (net::NodeId j = 0; j < kNodes; ++j) {
        if (j != k) channel->overrideLinkLoss(j, k, 0.5);
      }
      channel->overrideLinkLoss(0, 1, 0.5);
      channel->rebuildReachabilityNow();
    }

    // Every radio but k broadcasts once, one after another.
    void broadcastRound() {
      const auto frame =
          makeFrame(std::vector<std::uint8_t>(100, 0xEF), nullptr);
      const SimTime airtime = radios[0]->params().frameAirtime(100);
      for (auto& radio : radios) {
        if (radio->nodeId() == k) continue;
        radio->transmit(frame, airtime);
        simulator.run(simulator.now() + SimTime::milliseconds(20));
      }
    }
  };

  Side failing{positions};
  Side hiding{positions};
  const auto heardByK = [](const Side& side, std::size_t fromDraw,
                           std::size_t fromArrival) {
    std::size_t n = 0;
    for (std::size_t i = fromDraw; i < side.draws.size(); ++i) {
      n += side.draws[i].to == k;
    }
    for (std::size_t i = fromArrival; i < side.arrivals.size(); ++i) {
      n += side.arrivals[i].receiver == k;
    }
    return n;
  };

  failing.broadcastRound();
  hiding.broadcastRound();
  EXPECT_GT(heardByK(failing, 0, 0), 0u);  // k is in range at all

  failing.radios[k]->setFailed(true);
  hiding.links->hide(k);
  hiding.channel->rebuildReachabilityNow();
  const std::size_t drawsAtFail = failing.draws.size();
  const std::size_t arrivalsAtFail = failing.arrivals.size();
  failing.broadcastRound();
  hiding.broadcastRound();
  EXPECT_EQ(heardByK(failing, drawsAtFail, arrivalsAtFail), 0u);
  EXPECT_EQ(failing.radios[k]->stats().framesLostFailed, 0u);

  failing.radios[k]->setFailed(false);
  hiding.links->unhide();
  hiding.channel->rebuildReachabilityNow();
  const std::size_t drawsAtRecover = failing.draws.size();
  const std::size_t arrivalsAtRecover = failing.arrivals.size();
  failing.broadcastRound();
  hiding.broadcastRound();
  EXPECT_GT(heardByK(failing, drawsAtRecover, arrivalsAtRecover), 0u);

  EXPECT_EQ(failing.draws, hiding.draws);
  EXPECT_EQ(failing.arrivals, hiding.arrivals);
  EXPECT_EQ(failing.channel->stats().deliveriesScheduled,
            hiding.channel->stats().deliveriesScheduled);
  EXPECT_EQ(failing.channel->stats().faultSuppressedDeliveries,
            hiding.channel->stats().faultSuppressedDeliveries);
  EXPECT_GT(failing.channel->stats().faultSuppressedDeliveries, 0u);
  // The failing side never rebuilt a row: the skip did all the work.
  EXPECT_EQ(failing.channel->stats().reachabilityRebuilds, 1u);
  EXPECT_GT(failing.arrivals.size(), 3 * (kNodes - 1));
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
          [&delivered, i](const PhyFramePtr&) {
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
