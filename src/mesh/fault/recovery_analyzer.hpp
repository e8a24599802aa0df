#pragma once
// RecoveryAnalyzer: per-run churn metrics from counter snapshots.
//
// The analyzer never touches protocol state. It schedules counter
// snapshots at the boundaries of the schedule's merged fault windows and a
// bounded 100 ms delivery poll after every node crash, all through the
// ordinary event queue — so its measurements are deterministic and cost
// nothing on fault-free runs. After the run, report() folds the snapshots
// into the three quantities the churn experiment sweeps:
//
//   * PDR inside vs. outside fault windows (delivery degradation),
//   * control-byte rate inside vs. outside (overhead inflation as the
//     protocol re-floods queries to heal the forwarding group),
//   * time-to-repair: first delivery after each crash instant.

#include <cstdint>
#include <functional>
#include <vector>

#include "mesh/fault/fault_schedule.hpp"
#include "mesh/sim/simulator.hpp"

namespace mesh::fault {

struct RecoveryReport {
  // Traced schedule events only (see FaultEvent::traced).
  std::uint64_t faultsApplied{0};
  std::uint64_t faultsCleared{0};
  double faultWindowS{0.0};  // union of fault windows, clamped to the run

  double inWindowPdr{0.0};
  double outWindowPdr{0.0};
  double inWindowControlBps{0.0};   // control bytes originated per second
  double outWindowControlBps{0.0};
  // inWindowControlBps / outWindowControlBps (0 when the baseline is 0).
  double overheadInflation{0.0};

  double meanTimeToRepairS{0.0};  // over resolved crashes
  std::uint64_t repairsObserved{0};
  std::uint64_t repairsUnresolved{0};  // no delivery within cap / run end
};

class RecoveryAnalyzer {
 public:
  // The three counts the analyzer samples, summed over its domain.
  struct Counts {
    std::uint64_t originated{0};    // data packets originated by sources
    std::uint64_t delivered{0};     // packets handed to member sinks
    std::uint64_t controlBytes{0};  // routing control bytes sent
  };
  // Returns the current counts. It runs inside `simulator`'s events — on
  // that domain's worker thread — so it must read only that domain's
  // nodes and ports.
  using CountsFn = std::function<Counts()>;

  // `fanout` is the expected deliveries per originated data packet (group
  // members minus the source when it is also a member) — the same factor
  // Simulation::run() uses, so in+out PDR decompose the headline PDR.
  // `horizon` is the run duration; the schedule must outlive this.
  RecoveryAnalyzer(sim::Simulator& simulator, CountsFn counts,
                   const FaultSchedule& schedule, SimTime horizon,
                   double fanout);

  RecoveryAnalyzer(const RecoveryAnalyzer&) = delete;
  RecoveryAnalyzer& operator=(const RecoveryAnalyzer&) = delete;

  // Schedules the window snapshots and crash pollers. Call once before the
  // run (no-op on an empty schedule).
  void arm();

  // Call after the run has finished.
  RecoveryReport report() const;

 private:
  // One crash's delivery poll: resolved when the delivered count first
  // rises above its value at the crash instant.
  struct RepairProbe {
    SimTime crashAt{SimTime::zero()};
    std::uint64_t baseDelivered{0};
    bool resolved{false};
    SimTime repairedAt{SimTime::zero()};
  };

  void beginRepairProbe(std::size_t index);
  void pollRepair(std::size_t index);

  sim::Simulator& simulator_;
  CountsFn counts_;
  const FaultSchedule& schedule_;
  SimTime horizon_;
  double fanout_;

  // Snapshot pairs per merged window, filled in as the run crosses each
  // boundary (windowStarts_[i]/windowEnds_[i] for mergedWindows()[i]).
  std::vector<std::pair<SimTime, SimTime>> windows_;
  std::vector<Counts> windowStarts_;
  std::vector<Counts> windowEnds_;
  std::vector<RepairProbe> probes_;
  bool armed_{false};
};

}  // namespace mesh::fault
