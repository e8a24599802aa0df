#pragma once
// StaticLinkModel: an explicit link-budget matrix.
//
// Used by unit tests (exact control over which links exist and how strong
// they are) and as the base of the testbed emulation (where per-link loss
// rates, not geometry, define quality). Each directed link has a mean
// received power; optionally a Bernoulli loss rate, in which case a "lost"
// frame arrives at `lostPowerW` instead (below the reception threshold but
// typically above carrier sense, like a deeply faded but still audible
// frame).

#include <functional>
#include <vector>

#include "mesh/common/assert.hpp"
#include "mesh/phy/link_model.hpp"

namespace mesh::phy {

class StaticLinkModel : public LinkModel {
 public:
  explicit StaticLinkModel(std::size_t nodeCount, double defaultPowerW = 0.0)
      : n_{nodeCount},
        power_(nodeCount * nodeCount, defaultPowerW),
        lossRate_(nodeCount * nodeCount, 0.0) {}

  void setLink(net::NodeId from, net::NodeId to, double powerW) {
    power_[index(from, to)] = powerW;
  }
  void setSymmetric(net::NodeId a, net::NodeId b, double powerW) {
    setLink(a, b, powerW);
    setLink(b, a, powerW);
  }
  void setLossRate(net::NodeId from, net::NodeId to, double rate) {
    MESH_REQUIRE(rate >= 0.0 && rate <= 1.0);
    lossRate_[index(from, to)] = rate;
  }
  void setSymmetricLossRate(net::NodeId a, net::NodeId b, double rate) {
    setLossRate(a, b, rate);
    setLossRate(b, a, rate);
  }
  void setLostPowerW(double powerW) { lostPowerW_ = powerW; }
  void setDistanceM(double d) { distanceM_ = d; }

  double meanRxPowerW(net::NodeId from, net::NodeId to) const override {
    return power_[index(from, to)];
  }

  // The link budget itself is static (the cached mean IS power_[from][to]);
  // only the Bernoulli loss draw — which may be time-varying in subclasses
  // — happens per frame.
  double samplePowerGivenMeanW(net::NodeId from, net::NodeId to,
                               double meanPowerW, Rng& rng) const override {
    const double rate = lossRateNow(from, to);
    if (rate > 0.0 && rng.bernoulli(rate)) return lostPowerW_;
    return meanPowerW;
  }

  double distanceM(net::NodeId, net::NodeId) const override { return distanceM_; }

  std::size_t nodeCount() const { return n_; }

 protected:
  // Subclasses (the testbed's time-varying model) override the effective
  // loss rate; the base class uses the static matrix.
  virtual double lossRateNow(net::NodeId from, net::NodeId to) const {
    return lossRate_[index(from, to)];
  }

  std::size_t index(net::NodeId from, net::NodeId to) const {
    MESH_REQUIRE(from < n_ && to < n_);
    return static_cast<std::size_t>(from) * n_ + to;
  }

 private:
  std::size_t n_;
  std::vector<double> power_;
  std::vector<double> lossRate_;
  double lostPowerW_{0.0};
  double distanceM_{0.0};
};

}  // namespace mesh::phy
