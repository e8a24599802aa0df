#pragma once
// DomainScheduler: deterministic intra-run parallelism over collision
// domains.
//
// With a ChannelPlan in force, the run decomposes into one sim::Simulator
// (event sub-queue) per collision domain — frames only interact within a
// domain, so between cross-domain events the domains share no mutable
// state whatsoever. The scheduler exploits exactly that:
//
//   epoch 0          barrier        epoch 1            barrier   ...
//   [d0 ─ run(t1)]                  [d0 ─ run(t2)]
//   [d1 ─ run(t1)]   callbacks on   [d1 ─ run(t2)]     ...
//   [d2 ─ run(t1)]   one thread     [d2 ─ run(t2)]
//
// Epoch boundaries are the registered cross-domain events (channel
// switches, future gateway hops) plus the final horizon. Inside an epoch
// every domain advances its own clock with its own queue; with
// `workers > 1` the domains of one epoch run through mesh::parallelFor.
// Because domains are independent inside an epoch, the per-domain event
// sequence — and therefore every RNG draw, trace record, and counter —
// is identical no matter how many workers run or how the OS schedules
// them. Cross-domain callbacks execute on the calling thread after all
// workers have joined the barrier (in registration order for equal
// timestamps), so they may touch any domain safely.
//
// The merged global order used by trace export is (time, domain, per-
// domain emission seq) — the multi-queue generalization of the event
// queue's (time, insertion seq) contract. Sequential execution (workers
// == 1) walks domains in ascending index inside each epoch, which is
// byte-identical to any parallel execution by construction; tests pin
// this.

#include <cstdint>
#include <functional>
#include <vector>

#include "mesh/common/simtime.hpp"
#include "mesh/sim/simulator.hpp"

namespace mesh::channelplan {

class DomainScheduler {
 public:
  // `domains` are borrowed; they must outlive the scheduler. `workers` is
  // clamped to [1, domains.size()]; 1 means run on the calling thread.
  DomainScheduler(std::vector<sim::Simulator*> domains, std::size_t workers);

  DomainScheduler(const DomainScheduler&) = delete;
  DomainScheduler& operator=(const DomainScheduler&) = delete;

  // Register a cross-domain event: all domains are barrier-synced at `at`
  // (every domain clock reaches exactly `at`, no domain has passed it),
  // then `callback` runs alone on the run() caller's thread. Callbacks at
  // equal times run in registration order. Must be called before run().
  void addBarrier(SimTime at, std::function<void()> callback);

  // Drives every domain to `until` (inclusive, like Simulator::run),
  // pausing at each registered barrier. Each domain's eventsExecuted()
  // counts what it ran.
  void run(SimTime until);

  std::size_t workerCount() const { return workers_; }
  std::size_t domainCount() const { return domains_.size(); }
  // Number of epochs executed so far (barriers crossed + final segments).
  std::uint64_t epochsRun() const { return epochsRun_; }

 private:
  struct Barrier {
    SimTime at;
    std::function<void()> callback;
  };

  // Advances every domain to `horizon`, parallel when workers_ > 1.
  void runEpoch(SimTime horizon);

  std::vector<sim::Simulator*> domains_;
  std::size_t workers_;
  std::vector<Barrier> barriers_;  // sorted by (at, registration order)
  std::uint64_t epochsRun_{0};
};

}  // namespace mesh::channelplan
