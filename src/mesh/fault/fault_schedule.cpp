#include "mesh/fault/fault_schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "mesh/common/assert.hpp"

namespace mesh::fault {
namespace {

// Strict weak order giving every schedule one canonical timeline; ties at
// the same instant resolve by kind, then victim, so generation order never
// leaks into the injector's arming order.
bool before(const FaultEvent& a, const FaultEvent& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.kind != b.kind) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  }
  if (a.node != b.node) return a.node < b.node;
  return a.peer < b.peer;
}

}  // namespace

FaultSchedule FaultSchedule::fromEvents(std::vector<FaultEvent> events) {
  FaultSchedule schedule;
  schedule.events_ = std::move(events);
  std::stable_sort(schedule.events_.begin(), schedule.events_.end(), before);
  return schedule;
}

void FaultSchedule::add(FaultEvent event) {
  MESH_REQUIRE(!event.start.isNegative());
  const auto at =
      std::upper_bound(events_.begin(), events_.end(), event, before);
  events_.insert(at, event);
}

FaultSchedule FaultSchedule::generate(const ChurnSpec& spec, SimTime horizon,
                                      const std::vector<net::NodeId>& nodes,
                                      Rng rng) {
  MESH_REQUIRE(horizon > SimTime::zero());
  FaultSchedule schedule;
  if (nodes.empty() || horizon <= spec.warmup) return schedule;
  const double endS =
      spec.warmup.toSeconds() + (horizon - spec.warmup).toSeconds();

  // One independent Poisson process per category, drawn in a fixed
  // category order from forked streams so changing one rate never shifts
  // another category's draws.
  struct Category {
    const char* stream;
    trace::FaultKind kind;
    double perMinute;
  };
  const Category categories[] = {
      {"crash", trace::FaultKind::NodeCrash, spec.crashesPerMinute},
      {"blackout", trace::FaultKind::LinkBlackout, spec.blackoutsPerMinute},
      {"burst", trace::FaultKind::InterferenceBurst, spec.burstsPerMinute},
  };
  for (const Category& cat : categories) {
    if (cat.perMinute <= 0.0) continue;
    Rng stream = rng.fork(cat.stream);
    const double meanGapS = 60.0 / cat.perMinute;
    if (!(endS + meanGapS > endS)) {
      // Gaps this short stop advancing the clock: the loop would never end.
      throw std::invalid_argument(std::string{cat.stream} + " rate of " +
                                  std::to_string(cat.perMinute) +
                                  "/min is too high to schedule");
    }
    double tS = spec.warmup.toSeconds() + stream.exponential(meanGapS);
    while (tS < endS) {
      FaultEvent event;
      event.kind = cat.kind;
      event.start = SimTime::seconds(tS);
      switch (cat.kind) {
        case trace::FaultKind::NodeCrash:
          event.node = nodes[stream.uniformInt(std::uint64_t{nodes.size()})];
          event.duration =
              SimTime::seconds(stream.exponential(spec.meanOutage.toSeconds()));
          break;
        case trace::FaultKind::LinkBlackout: {
          if (nodes.size() < 2) break;
          const auto a = stream.uniformInt(std::uint64_t{nodes.size()});
          auto b = stream.uniformInt(std::uint64_t{nodes.size() - 1});
          if (b >= a) ++b;  // distinct endpoints, uniform over pairs
          event.node = nodes[a];
          event.peer = nodes[b];
          event.duration =
              SimTime::seconds(stream.exponential(spec.meanOutage.toSeconds()));
          break;
        }
        case trace::FaultKind::InterferenceBurst:
          event.node = nodes[stream.uniformInt(std::uint64_t{nodes.size()})];
          event.duration =
              SimTime::seconds(stream.exponential(spec.meanBurst.toSeconds()));
          if (event.duration.isZero()) {
            event.duration = SimTime::milliseconds(1);
          }
          event.powerDbm = spec.burstPowerDbm;
          break;
        default:
          break;
      }
      if (event.node != net::kInvalidNode) schedule.add(event);
      tS += stream.exponential(meanGapS);
    }
  }
  return schedule;
}

std::vector<std::pair<SimTime, SimTime>> FaultSchedule::mergedWindows(
    SimTime horizon) const {
  std::vector<std::pair<SimTime, SimTime>> windows;
  for (const FaultEvent& event : events_) {
    if (event.start >= horizon) continue;
    SimTime end = event.duration.isZero() ? horizon
                                          : event.start + event.duration;
    if (end > horizon) end = horizon;
    if (end <= event.start) continue;
    windows.emplace_back(event.start, end);
  }
  std::sort(windows.begin(), windows.end());
  std::vector<std::pair<SimTime, SimTime>> merged;
  for (const auto& w : windows) {
    if (!merged.empty() && w.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, w.second);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

SimTime FaultSchedule::faultWindow(SimTime horizon) const {
  SimTime total = SimTime::zero();
  for (const auto& [start, end] : mergedWindows(horizon)) {
    total += end - start;
  }
  return total;
}

}  // namespace mesh::fault
