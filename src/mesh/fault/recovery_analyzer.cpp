#include "mesh/fault/recovery_analyzer.hpp"

#include "mesh/common/assert.hpp"

namespace mesh::fault {
namespace {

constexpr SimTime kRepairPollInterval = SimTime::milliseconds(100);
// A crash with no delivery after this long counts as unresolved rather
// than skewing the mean with an arbitrarily large tail.
constexpr SimTime kRepairCap = SimTime::seconds(std::int64_t{30});

constexpr const char* kOriginated = "route.data_originated";
constexpr const char* kDelivered = "app.packets_delivered";
constexpr const char* kControlBytes = "route.control_bytes_sent";

}  // namespace

RecoveryAnalyzer::RecoveryAnalyzer(sim::Simulator& simulator,
                                   const trace::CounterRegistry& counters,
                                   const FaultSchedule& schedule,
                                   SimTime horizon, double fanout)
    : simulator_{simulator},
      counters_{counters},
      schedule_{schedule},
      horizon_{horizon},
      fanout_{fanout} {
  MESH_REQUIRE(horizon_ > SimTime::zero());
  MESH_REQUIRE(fanout_ >= 0.0);
}

RecoveryAnalyzer::Snapshot RecoveryAnalyzer::take() const {
  return Snapshot{counters_.value(kOriginated), counters_.value(kDelivered),
                  counters_.value(kControlBytes)};
}

void RecoveryAnalyzer::arm() {
  MESH_REQUIRE(!armed_);
  armed_ = true;
  if (schedule_.empty()) return;

  windows_ = schedule_.mergedWindows(horizon_);
  windowStarts_.resize(windows_.size());
  windowEnds_.resize(windows_.size());
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    simulator_.scheduleAt(windows_[i].first,
                          [this, i] { windowStarts_[i] = take(); });
    simulator_.scheduleAt(windows_[i].second,
                          [this, i] { windowEnds_[i] = take(); });
  }

  for (const FaultEvent& event : schedule_.events()) {
    if (event.kind != trace::FaultKind::NodeCrash) continue;
    if (event.start >= horizon_) continue;
    const std::size_t index = probes_.size();
    probes_.push_back(RepairProbe{});
    simulator_.scheduleAt(event.start,
                          [this, index] { beginRepairProbe(index); });
  }
}

void RecoveryAnalyzer::beginRepairProbe(std::size_t index) {
  RepairProbe& probe = probes_[index];
  probe.crashAt = simulator_.now();
  probe.baseDelivered = counters_.value(kDelivered);
  simulator_.schedule(kRepairPollInterval, [this, index] { pollRepair(index); });
}

void RecoveryAnalyzer::pollRepair(std::size_t index) {
  RepairProbe& probe = probes_[index];
  if (probe.resolved) return;
  if (counters_.value(kDelivered) > probe.baseDelivered) {
    probe.resolved = true;
    probe.repairedAt = simulator_.now();
    return;
  }
  const SimTime now = simulator_.now();
  if (now - probe.crashAt >= kRepairCap || now >= horizon_) return;
  simulator_.schedule(kRepairPollInterval, [this, index] { pollRepair(index); });
}

RecoveryReport RecoveryAnalyzer::report() const {
  RecoveryReport report;
  for (const FaultEvent& event : schedule_.events()) {
    // Untraced copies are the extra domains of a multi-domain fault; the
    // traced copy alone stands for the configured event.
    if (!event.traced || event.start >= horizon_) continue;
    ++report.faultsApplied;
    if (!event.duration.isZero() &&
        event.start + event.duration <= horizon_) {
      ++report.faultsCleared;
    }
  }
  const SimTime window = schedule_.faultWindow(horizon_);
  report.faultWindowS = window.toSeconds();
  if (!armed_ || windows_.empty()) {
    // Fault-free run (or never armed): everything is "outside".
    const Snapshot total = take();
    const double expected = static_cast<double>(total.originated) * fanout_;
    report.outWindowPdr =
        expected > 0.0 ? static_cast<double>(total.delivered) / expected : 0.0;
    const double runS = horizon_.toSeconds();
    report.outWindowControlBps =
        runS > 0.0 ? static_cast<double>(total.controlBytes) / runS : 0.0;
    return report;
  }

  Snapshot in;  // deltas summed across all merged windows
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    in.originated += windowEnds_[i].originated - windowStarts_[i].originated;
    in.delivered += windowEnds_[i].delivered - windowStarts_[i].delivered;
    in.controlBytes +=
        windowEnds_[i].controlBytes - windowStarts_[i].controlBytes;
  }
  const Snapshot total = take();
  const Snapshot out{total.originated - in.originated,
                     total.delivered - in.delivered,
                     total.controlBytes - in.controlBytes};

  const double inExpected = static_cast<double>(in.originated) * fanout_;
  const double outExpected = static_cast<double>(out.originated) * fanout_;
  report.inWindowPdr =
      inExpected > 0.0 ? static_cast<double>(in.delivered) / inExpected : 0.0;
  report.outWindowPdr = outExpected > 0.0
                            ? static_cast<double>(out.delivered) / outExpected
                            : 0.0;

  const double inS = window.toSeconds();
  const double outS = (horizon_ - window).toSeconds();
  report.inWindowControlBps =
      inS > 0.0 ? static_cast<double>(in.controlBytes) / inS : 0.0;
  report.outWindowControlBps =
      outS > 0.0 ? static_cast<double>(out.controlBytes) / outS : 0.0;
  report.overheadInflation = report.outWindowControlBps > 0.0
                                 ? report.inWindowControlBps /
                                       report.outWindowControlBps
                                 : 0.0;

  double repairSum = 0.0;
  for (const RepairProbe& probe : probes_) {
    if (probe.resolved) {
      ++report.repairsObserved;
      repairSum += (probe.repairedAt - probe.crashAt).toSeconds();
    } else {
      ++report.repairsUnresolved;
    }
  }
  report.meanTimeToRepairS =
      report.repairsObserved > 0
          ? repairSum / static_cast<double>(report.repairsObserved)
          : 0.0;
  return report;
}

}  // namespace mesh::fault
