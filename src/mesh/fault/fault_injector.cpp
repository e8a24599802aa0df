#include "mesh/fault/fault_injector.hpp"

#include "mesh/common/assert.hpp"
#include "mesh/common/units.hpp"

namespace mesh::fault {
namespace {
// A loss ramp reaches its target rate in this many equal steps spread over
// the first half of its window, then holds until cleared — "the link is
// going bad" rather than a step function.
constexpr int kRampSteps = 4;
}  // namespace

FaultInjector::FaultInjector(sim::Simulator& simulator, phy::Channel& channel,
                             FaultSchedule schedule)
    : simulator_{simulator},
      channel_{channel},
      schedule_{std::move(schedule)} {}

void FaultInjector::arm() {
  MESH_REQUIRE(!armed_);
  armed_ = true;
  for (const FaultEvent& event : schedule_.events()) {
    MESH_REQUIRE(event.start >= simulator_.now());
    simulator_.scheduleAt(event.start, [this, event] { apply(event); });
    if (!event.duration.isZero()) {
      simulator_.scheduleAt(event.start + event.duration,
                            [this, event] { clear(event); });
    }
  }
}

void FaultInjector::traceFault(trace::EventType type,
                               const FaultEvent& event) {
  // Foreign-domain copies of a multi-radio fault apply silently — only the
  // victim's home-domain injector records the timeline (FaultEvent::traced).
  if (trace_ == nullptr || !event.traced) return;
  trace_->faultEvent(simulator_.now(), type, event.kind, event.node,
                     event.peer, event.lossRate, event.powerDbm);
}

void FaultInjector::apply(const FaultEvent& event) {
  ++stats_.applied;
  switch (event.kind) {
    case trace::FaultKind::NodeCrash: {
      ++stats_.crashes;
      phy::Radio* radio = channel_.findRadio(event.node);
      MESH_REQUIRE(radio != nullptr);
      // setFailed reports the flip to the channel itself, whose fan-out
      // then skips the radio; no reachability row changes.
      radio->setFailed(true);
      break;
    }
    case trace::FaultKind::LinkBlackout:
      ++stats_.blackouts;
      channel_.overrideLinkLoss(event.node, event.peer, 1.0);
      break;
    case trace::FaultKind::LossRamp:
      ++stats_.lossRamps;
      if (event.duration.isZero()) {
        // Permanent: no window to ramp across.
        channel_.overrideLinkLoss(event.node, event.peer, event.lossRate);
      } else {
        rampStep(event, 1);
      }
      break;
    case trace::FaultKind::InterferenceBurst: {
      ++stats_.bursts;
      MESH_REQUIRE(!event.duration.isZero());
      phy::Radio* radio = channel_.findRadio(event.node);
      MESH_REQUIRE(radio != nullptr);
      radio->injectNoise(dbmToWatts(event.powerDbm), event.duration);
      break;
    }
    case trace::FaultKind::ProbeBlackhole:
      ++stats_.blackholes;
      if (blackhole_) blackhole_(event.node, true);
      break;
    case trace::FaultKind::MacQueueDrop:
      ++stats_.queueDrops;
      if (queueDrop_) queueDrop_(event.node, true);
      break;
  }
  traceFault(trace::EventType::FaultInject, event);
}

void FaultInjector::rampStep(const FaultEvent& event, int step) {
  const double loss =
      event.lossRate * static_cast<double>(step) / kRampSteps;
  channel_.overrideLinkLoss(event.node, event.peer, loss);
  if (step < kRampSteps) {
    // Steps are spread over the first half of the window; the second half
    // holds at the target rate.
    simulator_.schedule(event.duration / (2 * kRampSteps),
                        [this, event, step] { rampStep(event, step + 1); });
  }
}

void FaultInjector::clear(const FaultEvent& event) {
  ++stats_.cleared;
  switch (event.kind) {
    case trace::FaultKind::NodeCrash: {
      phy::Radio* radio = channel_.findRadio(event.node);
      MESH_REQUIRE(radio != nullptr);
      radio->setFailed(false);
      break;
    }
    case trace::FaultKind::LinkBlackout:
    case trace::FaultKind::LossRamp:
      channel_.clearLinkLoss(event.node, event.peer);
      break;
    case trace::FaultKind::InterferenceBurst:
      // The injected noise drains itself at the end of the burst; the
      // clearance exists for the trace/window accounting only.
      break;
    case trace::FaultKind::ProbeBlackhole:
      if (blackhole_) blackhole_(event.node, false);
      break;
    case trace::FaultKind::MacQueueDrop:
      if (queueDrop_) queueDrop_(event.node, false);
      break;
  }
  traceFault(trace::EventType::FaultClear, event);
}

}  // namespace mesh::fault
