#pragma once
// LinkModel: how the channel decides per-frame received power on a link.
//
// Two implementations exist:
//  * GeometricLinkModel — positions + propagation model + fading; the
//    simulation substrate (Glomosim replacement).
//  * testbed::LossLinkModel (in mesh/testbed) — a measured-loss emulation
//    of the 8-node Purdue deployment, where link quality is defined by
//    time-varying loss rates rather than geometry.
//
// Keeping this behind one interface lets the whole stack above the channel
// (radio, MAC, ODMRP, metrics) run unchanged on either substrate, exactly
// as the paper runs the same protocol code in Glomosim and on the testbed.

#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "mesh/common/rng.hpp"
#include "mesh/common/vec2.hpp"
#include "mesh/net/addr.hpp"
#include "mesh/phy/fading.hpp"
#include "mesh/phy/mobility.hpp"
#include "mesh/phy/propagation.hpp"
#include "mesh/sim/simulator.hpp"

namespace mesh::phy {

class LinkModel {
 public:
  virtual ~LinkModel() = default;

  // Mean (fading-free) received power on the directed link. Used to build
  // the channel's neighbor cache: receivers whose mean power is negligible
  // even with fading headroom are skipped entirely.
  virtual double meanRxPowerW(net::NodeId from, net::NodeId to) const = 0;

  // Distance used for propagation delay; may be zero for emulated links.
  virtual double distanceM(net::NodeId from, net::NodeId to) const = 0;

  // True when meanRxPowerW/distanceM are pure functions of the node pair
  // between reachability rebuilds. The channel then precomputes flat
  // per-pair arrays (mean power, propagation delay) at buildReachability()
  // time and the per-transmission loop makes no virtual calls except the
  // per-frame sampling hook below. Clock-dependent geometry (mobility)
  // must return false to keep live positions authoritative.
  virtual bool meansCacheable() const { return true; }

  // The per-frame received power on a link whose mean (fading-free) power
  // is `meanPowerW`: the one sampling hook. The channel passes the mean
  // it froze into its link cache, or, when means are not cacheable
  // (mobility), meanRxPowerW(from, to) queried at transmit time.
  virtual double samplePowerGivenMeanW(net::NodeId from, net::NodeId to,
                                       double meanPowerW, Rng& rng) const = 0;

  // Non-null iff samplePowerGivenMeanW is exactly
  // `meanPowerW * fading->powerGain(rng)` for every link, independent of
  // the pair. The channel then inlines the Rayleigh draw in its
  // cached-means delivery loop — same draws, same bits, no virtual
  // dispatch per receiver.
  // Models with per-link stochastic structure (loss matrices) decline.
  virtual const FadingModel* meanScaledFading() const { return nullptr; }

  // --- spatial index support (Channel's O(k) reachability path) ----------
  // A geometric model exposes per-node positions plus a conservative
  // maximum reach radius so the channel can replace its O(n²) pair scan
  // with a uniform-grid candidate enumeration (phy/spatial_grid). The
  // contract is pruning-only and must be conservative: for ANY pair with
  // meanRxPowerW(from, to) >= minMeanPowerW, the distance between
  // nodePosition(from) and nodePosition(to) must be at most
  // maxReachRadiusM(minMeanPowerW). Candidates still pass through the
  // exact meanRxPowerW predicate, so an over-generous radius costs speed,
  // never correctness. Models without meaningful geometry (explicit loss
  // matrices, the testbed emulation) decline and the channel keeps the
  // full scan.
  virtual bool spatiallyIndexable() const { return false; }
  // Valid only when spatiallyIndexable(). For clock-dependent geometry
  // (mobility) this is the position *now* — the channel snapshots it at
  // reachability-build time, so candidate queries between rebuilds see a
  // geometry consistent with the rows they prune.
  virtual Vec2 nodePosition(net::NodeId node) const {
    (void)node;
    return {};
  }
  // May return +infinity (no pruning possible); see contract above.
  virtual double maxReachRadiusM(double minMeanPowerW) const {
    (void)minMeanPowerW;
    return std::numeric_limits<double>::infinity();
  }
};

class GeometricLinkModel final : public LinkModel {
 public:
  GeometricLinkModel(PhyParams params, std::vector<Vec2> positions,
                     std::unique_ptr<PropagationModel> propagation,
                     std::unique_ptr<FadingModel> fading)
      : params_{params},
        positions_{std::move(positions)},
        propagation_{std::move(propagation)},
        fading_{std::move(fading)} {
    MESH_REQUIRE(propagation_ != nullptr);
    MESH_REQUIRE(fading_ != nullptr);
  }

  double meanRxPowerW(net::NodeId from, net::NodeId to) const override {
    return propagation_->rxPowerW(params_, position(from), position(to));
  }

  double distanceM(net::NodeId from, net::NodeId to) const override {
    return position(from).distanceTo(position(to));
  }

  // One fading draw per frame; the only stochastic part of a sample.
  double sampleFadingGain(Rng& rng) const { return fading_->powerGain(rng); }

  double samplePowerGivenMeanW(net::NodeId, net::NodeId, double meanPowerW,
                               Rng& rng) const override {
    return meanPowerW * sampleFadingGain(rng);
  }

  const FadingModel* meanScaledFading() const override {
    return fading_.get();
  }

  bool spatiallyIndexable() const override { return true; }
  Vec2 nodePosition(net::NodeId node) const override { return position(node); }
  double maxReachRadiusM(double minMeanPowerW) const override {
    return maxRangeForMeanPowerM(*propagation_, params_, minMeanPowerW);
  }

  std::size_t nodeCount() const { return positions_.size(); }
  Vec2 position(net::NodeId id) const {
    MESH_REQUIRE(id < positions_.size());
    return positions_[id];
  }
  const PhyParams& params() const { return params_; }

 private:
  PhyParams params_;
  std::vector<Vec2> positions_;
  std::unique_ptr<PropagationModel> propagation_;
  std::unique_ptr<FadingModel> fading_;
};

// Geometry + mobility: positions are functions of the simulation clock.
// Used with Channel::enableReachabilityRefresh so the neighbor cache
// follows the nodes around.
class MobileGeometricLinkModel final : public LinkModel {
 public:
  MobileGeometricLinkModel(const sim::Simulator& simulator, PhyParams params,
                           std::unique_ptr<MobilityModel> mobility,
                           std::unique_ptr<PropagationModel> propagation,
                           std::unique_ptr<FadingModel> fading)
      : simulator_{simulator},
        params_{params},
        mobility_{std::move(mobility)},
        propagation_{std::move(propagation)},
        fading_{std::move(fading)} {
    MESH_REQUIRE(mobility_ != nullptr);
    MESH_REQUIRE(propagation_ != nullptr);
    MESH_REQUIRE(fading_ != nullptr);
  }

  double meanRxPowerW(net::NodeId from, net::NodeId to) const override {
    const SimTime now = simulator_.now();
    return propagation_->rxPowerW(params_, mobility_->positionAt(from, now),
                                  mobility_->positionAt(to, now));
  }

  double samplePowerGivenMeanW(net::NodeId, net::NodeId, double meanPowerW,
                               Rng& rng) const override {
    return meanPowerW * fading_->powerGain(rng);
  }

  double distanceM(net::NodeId from, net::NodeId to) const override {
    const SimTime now = simulator_.now();
    return mobility_->positionAt(from, now)
        .distanceTo(mobility_->positionAt(to, now));
  }

  // Positions move between reachability rebuilds: power and delay must be
  // sampled live per transmission, never frozen into the link cache.
  bool meansCacheable() const override { return false; }

  bool spatiallyIndexable() const override { return true; }
  Vec2 nodePosition(net::NodeId node) const override {
    return mobility_->positionAt(node, simulator_.now());
  }
  double maxReachRadiusM(double minMeanPowerW) const override {
    return maxRangeForMeanPowerM(*propagation_, params_, minMeanPowerW);
  }

  const MobilityModel& mobility() const { return *mobility_; }

 private:
  const sim::Simulator& simulator_;
  PhyParams params_;
  std::unique_ptr<MobilityModel> mobility_;
  std::unique_ptr<PropagationModel> propagation_;
  std::unique_ptr<FadingModel> fading_;
};

}  // namespace mesh::phy
