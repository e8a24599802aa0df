#include "mesh/channelplan/domain_scheduler.hpp"

#include <algorithm>

#include "mesh/common/assert.hpp"
#include "mesh/common/parallel_for.hpp"

namespace mesh::channelplan {

DomainScheduler::DomainScheduler(std::vector<sim::Simulator*> domains,
                                 std::size_t workers)
    : domains_{std::move(domains)} {
  MESH_REQUIRE(!domains_.empty());
  for (sim::Simulator* d : domains_) MESH_REQUIRE(d != nullptr);
  workers_ = std::clamp<std::size_t>(workers, 1, domains_.size());
}

void DomainScheduler::addBarrier(SimTime at, std::function<void()> callback) {
  MESH_REQUIRE(callback != nullptr);
  Barrier barrier{at, std::move(callback)};
  // Stable position: after every earlier-or-equal barrier, so callbacks at
  // one instant fire in registration order.
  const auto pos = std::upper_bound(
      barriers_.begin(), barriers_.end(), barrier,
      [](const Barrier& a, const Barrier& b) { return a.at < b.at; });
  barriers_.insert(pos, std::move(barrier));
}

void DomainScheduler::runEpoch(SimTime horizon) {
  ++epochsRun_;
  // One worker walks the domains in ascending index: the reference order.
  // With more, each domain is still driven by exactly one thread and the
  // domains share no state inside an epoch, so the events each executes —
  // and their per-domain order — do not depend on which worker claims it.
  // parallelFor joins before anything reads domain state.
  parallelFor(domains_.size(), workers_,
              [this, horizon](std::size_t d) { domains_[d]->run(horizon); });
}

void DomainScheduler::run(SimTime until) {
  for (const Barrier& barrier : barriers_) {
    if (barrier.at > until) break;
    runEpoch(barrier.at);
    // All domain clocks now sit exactly at barrier.at (Simulator::run
    // advances the clock to the horizon even when the queue ran dry), so
    // the callback sees a globally consistent instant.
    barrier.callback();
  }
  runEpoch(until);
}

}  // namespace mesh::channelplan
