#include "mesh/phy/radio.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "mesh/common/log.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/trace/trace_collector.hpp"

namespace mesh::phy {
namespace {

// Powers at or above this are strong (see the file comment). 0.25 W is
// far above any carrier-sense threshold, and 2.5 W above the strongest
// frame a link model can draw: the Friis mean at the 0.1 m distance clamp
// (0.0192 W) times the largest Rayleigh gain Rng returns (-ln 2^-53 =
// 36.7) is 0.71 W.
constexpr double kStrongW = 0x1p-2;

// Rounds a power below kStrongW to 2^-64 W quanta (error <= 2.7e-20 W;
// the weakest arrival the channel hands over is csThresholdW × 1e-3).
std::int64_t quantaOf(double powerW) {
  return static_cast<std::int64_t>(powerW * 0x1p64 + 0.5);
}

// A NaN power reads strong rather than reaching the cast above.
bool isStrong(double powerW) { return !(powerW < kStrongW); }

}  // namespace

Radio::Radio(sim::Simulator& simulator, net::NodeId node, PhyParams params)
    : simulator_{simulator},
      node_{node},
      params_{params},
      csQuanta_{static_cast<std::int64_t>(
          std::ceil(params_.csThresholdW * 0x1p64))} {
  MESH_REQUIRE(params_.csThresholdW > 0.0 && params_.csThresholdW < kStrongW);
}

bool Radio::computeBusy() const {
  if (failed_) return false;  // powered off: senses nothing
  if (isTransmitting() || lockedActive_) return true;
  return strongCount_ > 0 || energy_ >= csQuanta_;
}

void Radio::setMediumListening(bool listening) {
  if (listening == listening_) return;
  sync();  // edges up to now happened unheard
  listening_ = listening;
  armCrossing();
}

void Radio::setFailed(bool failed) {
  sync();
  if (failed == failed_) return;
  if (failed && lockedActive_) {
    // The reception in progress dies with the radio.
    dropLock(stats_.framesLostFailed, trace::DropReason::FaultNodeDown);
  }
  failed_ = failed;
  // An in-flight own transmission is not truncated: its energy is already
  // scheduled at every receiver. Crash granularity is one frame.
  // The channel counts failed radios so that its fan-out tests receivers
  // for failure only while one is down. Self-reporting here (rather than
  // in the fault injector) keeps the count right for every caller.
  if (channel_ != nullptr) channel_->radioFailureChanged(failed);
  settle();
}

void Radio::injectNoise(double powerW, SimTime duration) {
  MESH_REQUIRE(powerW > 0.0 && duration > SimTime::zero());
  sync();
  addArrival(simulator_.reserveSeq(), simulator_.now() + duration, powerW,
             /*lazy=*/true);
  ++stats_.noiseBursts;
  if (lockedActive_) reevaluateLockedSinr();
  settle();
}

void Radio::addArrival(std::uint64_t seq, SimTime end, double powerW,
                       bool lazy) {
  const bool strong = isStrong(powerW);
  const std::int64_t quanta = strong ? 0 : quantaOf(powerW);
  auto at = arrivals_.end();
  while (at != arrivals_.begin() && std::prev(at)->end > end) --at;
  arrivals_.insert(at, Arrival{seq, end, quanta, strong, lazy});
  energy_ += quanta;
  if (strong) ++strongCount_;
  if (lazy && end < lazyEnd_) {  // an equal end keeps the older seq
    lazyEnd_ = end;
    lazySeq_ = seq;
  }
}

void Radio::retireLazyEnds() {
  // The due ends lead arrivals_ in key order. The only other entry they
  // can share that prefix with is a locked end whose event is executing
  // now; endArrival removes it. Each due end leaves as its end event
  // would have: its energy leaves the sum, and if the medium then reads
  // idle, the busy→idle edge is at its own instant. Removals only lower
  // the sum, so a batch holds at most one edge.
  bool busy = reportedBusy_;
  SimTime edgeAt = SimTime::zero();
  auto kept = arrivals_.begin();
  auto it = arrivals_.begin();
  for (; it != arrivals_.end() && simulator_.reached(it->end, it->seq); ++it) {
    if (!it->lazy) {
      *kept++ = *it;
      continue;
    }
    energy_ -= it->quanta;
    if (it->strong) --strongCount_;
    if (busy && idleAfter(it->end, energy_, strongCount_)) {
      busy = false;
      edgeAt = it->end;
    }
  }
  arrivals_.erase(kept, it);
  const auto next = std::find_if(arrivals_.begin(), arrivals_.end(),
                                 [](const Arrival& a) { return a.lazy; });
  lazyEnd_ = next != arrivals_.end() ? next->end : SimTime::max();
  lazySeq_ = next != arrivals_.end() ? next->seq : 0;
  if (busy != reportedBusy_) recordIdleEdge(edgeAt);
}

void Radio::recordIdleEdge(SimTime at) {
  busyAccum_ += at - busySince_;
  lastIdleEdge_ = at;
  reportedBusy_ = false;
  if (listening_ && mediumCallback_) {
    // A listener hears a lazy edge only through its crossing event.
    MESH_ASSERT(at == simulator_.now());
    mediumCallback_(false);
  }
}

void Radio::settle() {
  if (computeBusy() != reportedBusy_) {
    if (reportedBusy_) {
      recordIdleEdge(simulator_.now());
    } else {
      busySince_ = simulator_.now();
      reportedBusy_ = true;
      if (listening_ && mediumCallback_) mediumCallback_(true);
    }
  }
  if (listening_) armCrossing();
}

void Radio::armCrossing() {
  // While listening and busy on energy alone (a lock or an own
  // transmission ends at a real event, which re-arms), the next idle edge
  // is the first lazy end after which the medium reads idle.
  const Arrival* next = nullptr;
  if (listening_ && reportedBusy_ && !lockedActive_ && !failed_) {
    EnergySum energy = energy_;
    std::uint32_t strong = strongCount_;
    for (const Arrival& a : arrivals_) {
      if (!a.lazy) continue;
      energy -= a.quanta;
      if (a.strong) --strong;
      if (idleAfter(a.end, energy, strong)) {
        next = &a;
        break;
      }
    }
  }
  const std::uint64_t seq = next != nullptr ? next->seq : 0;
  if (seq == crossingSeq_) return;
  simulator_.cancel(crossingId_);
  crossingId_ = sim::EventId{};
  crossingSeq_ = seq;
  if (next != nullptr) {
    crossingId_ =
        simulator_.scheduleReservedAt(next->end, seq, [this] { onCrossing(); });
  }
}

void Radio::onCrossing() {
  crossingId_ = sim::EventId{};
  crossingSeq_ = 0;
  sync();  // retires the crossing end itself: it has this event's key
  settle();
}

void Radio::traceDrop(const PhyFramePtr& frame, trace::DropReason reason) {
  trace_->drop(simulator_.now(), node_, frame->payload.get(),
               frame->payload != nullptr ? frame->payload->kind()
                                         : net::PacketKind::MacControl,
               static_cast<std::uint32_t>(frame->sizeBytes()), reason);
}

void Radio::dropLock(std::uint64_t& lost, trace::DropReason reason) {
  lockedActive_ = false;
  lockedCorrupted_ = false;
  ++lost;
  if (trace_ != nullptr) traceDrop(lockedFrame_, reason);
  lockedFrame_ = nullptr;
}

void Radio::transmit(const PhyFramePtr& frame, SimTime airtime) {
  MESH_REQUIRE(channel_ != nullptr);
  MESH_REQUIRE(!isTransmitting());
  sync();
  if (failed_) {
    // Crashed node: the MAC's state machine keeps running, but nothing
    // reaches the air.
    ++stats_.framesLostFailed;
    if (trace_ != nullptr) traceDrop(frame, trace::DropReason::FaultNodeDown);
    return;
  }
  // Transmission preempts any in-progress reception: the locked frame is
  // lost (half-duplex). The MAC avoids this by deferring, but a JOIN REPLY
  // scheduled with zero jitter can race a reception; model the loss rather
  // than forbid it.
  if (lockedActive_) {
    dropLock(stats_.framesMissedBusy, trace::DropReason::PhyRadioBusy);
  }
  txUntil_ = simulator_.now() + airtime;
  txFrame_ = frame;
  ++stats_.framesSent;
  stats_.bytesSent += frame->sizeBytes();
  stats_.airtimeTx += airtime;
  if (trace_ != nullptr) {
    trace_->txStart(simulator_.now(), node_, frame->payload.get(),
                    static_cast<std::uint32_t>(frame->sizeBytes()),
                    frame->tx.code);
  }
  simulator_.schedule(airtime, [this] { endTransmit(); });
  channel_->transmit(*this, frame, airtime);
  settle();
}

void Radio::endTransmit() {
  sync();
  // txUntil_ reached; medium may have gone idle.
  if (trace_ != nullptr && txFrame_ != nullptr && !isTransmitting()) {
    trace_->txEnd(simulator_.now(), node_, txFrame_->payload.get(),
                  static_cast<std::uint32_t>(txFrame_->sizeBytes()));
  }
  if (!isTransmitting()) txFrame_ = nullptr;
  settle();
}

void Radio::beginArrival(const PhyFramePtr& frame, double rxPowerW,
                         SimTime airtime, bool perCorrupted) {
  sync();
  if (failed_) {
    // Powered off: the energy never enters the receive chain (and never
    // counts for carrier sense), so recovery starts from a clean radio.
    ++stats_.framesLostFailed;
    if (trace_ != nullptr) traceDrop(frame, trace::DropReason::FaultNodeDown);
    return;
  }
  // The end's seq is taken here, where an end event would be scheduled.
  const std::uint64_t seq = simulator_.reserveSeq();
  const SimTime end = simulator_.now() + airtime;
  const bool decodable = rxPowerW >= params_.rxThresholdW;
  const bool lock = decodable && !isTransmitting() && !lockedActive_;
  addArrival(seq, end, rxPowerW, /*lazy=*/!lock);

  if (lock) {
    // Lock onto this frame; only a locked frame's end is an event.
    lockedActive_ = true;
    lockedSeq_ = seq;
    lockedCorrupted_ = false;
    lockedFrame_ = frame;
    lockedPowerW_ = rxPowerW;
    lockedPerCorrupted_ = perCorrupted;
    simulator_.scheduleReservedAt(end, seq, [this, seq] { endArrival(seq); });
    reevaluateLockedSinr();
  } else {
    if (decodable) {
      // Strong enough to decode, but the radio is occupied.
      ++stats_.framesMissedBusy;
      if (trace_ != nullptr) traceDrop(frame, trace::DropReason::PhyRadioBusy);
    } else {
      ++stats_.framesBelowThreshold;
      if (trace_ != nullptr) {
        traceDrop(frame, trace::DropReason::PhyBelowSensitivity);
      }
    }
    if (lockedActive_) reevaluateLockedSinr();
  }
  settle();
}

// The end event of a locked arrival (it stays an event even when the lock
// is lost to a transmission or a failure). A lazy end needs none of this:
// it never owns the lock, and with corruption latched a shrinking
// interference sum cannot corrupt the locked frame.
void Radio::endArrival(std::uint64_t seq) {
  sync();
  const auto it = std::find_if(arrivals_.begin(), arrivals_.end(),
                               [seq](const Arrival& a) { return a.seq == seq; });
  MESH_ASSERT(it != arrivals_.end() && !it->lazy);
  energy_ -= it->quanta;
  if (it->strong) --strongCount_;
  arrivals_.erase(it);

  if (lockedActive_ && lockedSeq_ == seq) {
    lockedActive_ = false;
    const PhyFramePtr frame = std::move(lockedFrame_);  // empties the lock
    if (lockedCorrupted_) {
      ++stats_.framesCorrupted;
      if (trace_ != nullptr) {
        traceDrop(frame, trace::DropReason::PhyCollision);
      }
    } else if (lockedPerCorrupted_) {
      // The channel's SNR→PER model failed this frame at its chosen rate.
      ++stats_.framesRateCorrupted;
      if (trace_ != nullptr) {
        traceDrop(frame, trace::DropReason::PhyRateDecode);
      }
    } else {
      ++stats_.framesDelivered;
      stats_.bytesDelivered += frame->sizeBytes();
      if (rxCallback_) rxCallback_(frame);
    }
    lockedCorrupted_ = false;
  } else if (lockedActive_) {
    // Some other signal ended; the locked frame's SINR just improved, but
    // corruption is latched, so only re-evaluate for logging symmetry.
    reevaluateLockedSinr();
  }
  settle();
}

void Radio::reevaluateLockedSinr() {
  MESH_ASSERT(lockedActive_);
  if (lockedCorrupted_) return;
  // A strong interferer corrupts outright: no frame reaches 10 dB over it.
  const bool strong = isStrong(lockedPowerW_);
  const EnergySum others = energy_ - (strong ? 0 : quantaOf(lockedPowerW_));
  const double sinr =
      strongCount_ > (strong ? 1u : 0u)
          ? 0.0
          : lockedPowerW_ / (params_.noiseFloorW +
                             static_cast<double>(others) * 0x1p-64);
  if (sinr < params_.sinrCaptureThreshold) {
    lockedCorrupted_ = true;
    MESH_TRACE("phy", "node %u: locked frame corrupted (sinr=%.2f)", node_, sinr);
  }
}

}  // namespace mesh::phy
