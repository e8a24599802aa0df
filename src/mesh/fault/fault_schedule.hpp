#pragma once
// FaultSchedule: a deterministic timeline of typed fault events.
//
// A schedule is either written out explicitly (config `[faults]` section,
// tests) or generated from a ChurnSpec + seed. Either way it is a plain
// sorted vector of FaultEvent values — no clocks, no side effects — so the
// same schedule object drives the FaultInjector, the RecoveryAnalyzer's
// window accounting, and any offline tooling, and two runs given the same
// schedule and seed replay the identical fault timeline.

#include <cstdint>
#include <utility>
#include <vector>

#include "mesh/common/rng.hpp"
#include "mesh/common/simtime.hpp"
#include "mesh/net/addr.hpp"
#include "mesh/trace/trace_event.hpp"

namespace mesh::fault {

// One typed fault. Field meaning by kind:
//   NodeCrash          `node` powered off at start, back after `duration`
//   LinkBlackout       node--peer loses every frame inside the window
//   LossRamp           node--peer loss ramps up to `lossRate` across window
//   InterferenceBurst  `powerDbm` of undecodable in-band noise at `node`
//   ProbeBlackhole     `node` silently eats incoming probes for the window
//   MacQueueDrop       `node`'s MAC swallows every payload at enqueue
// duration == 0 means permanent (never cleared); bursts require a window.
struct FaultEvent {
  trace::FaultKind kind{trace::FaultKind::NodeCrash};
  net::NodeId node{net::kInvalidNode};
  net::NodeId peer{net::kInvalidNode};  // link faults only
  SimTime start{SimTime::zero()};
  SimTime duration{SimTime::zero()};
  double lossRate{1.0};    // LossRamp target
  double powerDbm{-55.0};  // InterferenceBurst strength at the victim
  // Multi-channel scoping: a gateway has a radio in several domains, so
  // one configured radio-level fault becomes one scoped copy per domain
  // where the victim (and for link faults the peer) has a radio. Only the
  // copy in the lowest such domain — not necessarily the victim's home
  // domain — records FaultInject/FaultClear and counts in the
  // RecoveryReport; the others set traced=false so the merged trace and
  // the run's fault counts carry each fault once. Node-level faults get a
  // single copy, in the home domain.
  bool traced{true};
};

// Seed-defined churn: expected events per minute across the whole network,
// per category. Outage/burst lengths are exponential around the means. A
// given (spec, horizon, node set, seed) always yields the same timeline.
struct ChurnSpec {
  double crashesPerMinute{0.0};
  double blackoutsPerMinute{0.0};
  double burstsPerMinute{0.0};
  SimTime meanOutage{SimTime::seconds(std::int64_t{5})};
  SimTime meanBurst{SimTime::milliseconds(500)};
  double burstPowerDbm{-55.0};
  // No faults before this point: routes must exist before they can break.
  SimTime warmup{SimTime::seconds(std::int64_t{10})};
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  static FaultSchedule fromEvents(std::vector<FaultEvent> events);

  // Poisson arrivals per category over [warmup, horizon). Crashes and
  // bursts pick a victim from `nodes`; blackouts pick an unordered pair.
  // `nodes` lists eligible victims (callers exclude sources/members when
  // crashing them would make the metric meaningless). Throws
  // std::invalid_argument for a rate whose mean gap cannot advance the
  // clock at the horizon.
  static FaultSchedule generate(const ChurnSpec& spec, SimTime horizon,
                                const std::vector<net::NodeId>& nodes,
                                Rng rng);

  void add(FaultEvent event);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  // Sorted by (start, kind, node, peer): arming order == timeline order.
  const std::vector<FaultEvent>& events() const { return events_; }

  // Merged [start, end) windows, clamped to `horizon`; permanent faults
  // extend to the horizon. The RecoveryAnalyzer's in/out-window split.
  std::vector<std::pair<SimTime, SimTime>> mergedWindows(SimTime horizon) const;
  // Total length of the merged windows.
  SimTime faultWindow(SimTime horizon) const;

 private:
  std::vector<FaultEvent> events_;  // kept sorted by add()
};

}  // namespace mesh::fault
