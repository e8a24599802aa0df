#include "mesh/phy/radio.hpp"

#include <algorithm>

#include "mesh/common/log.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/trace/trace_collector.hpp"

namespace mesh::phy {

Radio::Radio(sim::Simulator& simulator, net::NodeId node, PhyParams params)
    : simulator_{simulator}, node_{node}, params_{params} {}

bool Radio::computeBusy() const {
  if (failed_) return false;  // powered off: senses nothing
  if (isTransmitting() || lockedActive_) return true;
  return inbandPowerW_ >= params_.csThresholdW;
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
  const std::uint64_t seq = simulator_.reserveSeq();
  const SimTime end = simulator_.now() + duration;
  arrivals_.push_back(Arrival{seq, powerW, end, /*lazy=*/true});
  inbandPowerW_ += powerW;
  if (end < lazyEnd_) {  // seqs only grow: an equal end keeps the older one
    lazyEnd_ = end;
    lazySeq_ = seq;
  }
  ++stats_.noiseBursts;
  if (lockedActive_) reevaluateLockedSinr();
  settle();
}

// Exact re-sum in vector order; called whenever arrivals are removed so
// the running total never accumulates cancellation error (subtracting the
// departed term would drift bitwise from the naive left fold).
void Radio::resumInbandPower() {
  double sum = 0.0;
  SimTime end = SimTime::max();
  std::uint64_t seq = 0;
  for (const auto& a : arrivals_) {
    sum += a.rxPowerW;
    if (a.lazy && (a.end < end || (a.end == end && a.seq < seq))) {
      end = a.end;
      seq = a.seq;
    }
  }
  inbandPowerW_ = sum;
  lazyEnd_ = end;
  lazySeq_ = seq;
}

double Radio::interferenceFor(std::uint64_t excludedSeq) const {
  double sum = 0.0;
  for (const auto& a : arrivals_) {
    if (a.seq != excludedSeq) sum += a.rxPowerW;
  }
  return sum;
}

bool Radio::busyAfter(const Arrival& last) const {
  if (failed_) return false;
  if (txUntil_ > last.end || lockedActive_) return true;
  // The same vector-order fold the end events' re-sums computed.
  double sum = 0.0;
  for (const auto& a : arrivals_) {
    const bool retired =
        a.lazy && (a.end < last.end || (a.end == last.end && a.seq <= last.seq));
    if (!retired) sum += a.rxPowerW;
  }
  return sum >= params_.csThresholdW;
}

const Radio::Arrival* Radio::firstIdleEnd(bool dueOnly) {
  lazyOrder_.clear();
  for (std::uint32_t i = 0; i < arrivals_.size(); ++i) {
    const Arrival& a = arrivals_[i];
    if (a.lazy && (!dueOnly || simulator_.reached(a.end, a.seq))) {
      lazyOrder_.push_back(i);
    }
  }
  if (lazyOrder_.empty()) return nullptr;
  std::sort(lazyOrder_.begin(), lazyOrder_.end(),
            [this](std::uint32_t x, std::uint32_t y) {
              const Arrival& a = arrivals_[x];
              const Arrival& b = arrivals_[y];
              return a.end < b.end || (a.end == b.end && a.seq < b.seq);
            });
  // Retiring only lowers the sum, and tx/lock state is fixed between entry
  // points, so "still busy" holds for a prefix of the key order: one check
  // of the last end, then a binary search for the first idle one.
  const auto busy = [this](std::uint32_t i) { return busyAfter(arrivals_[i]); };
  if (!dueOnly && busy(lazyOrder_.back())) return nullptr;  // (due: known)
  return &arrivals_[*std::partition_point(lazyOrder_.begin(),
                                          lazyOrder_.end() - 1, busy)];
}

void Radio::retireLazyEnds() {
  // As end events, the due ends would each have erased their arrival,
  // re-summed and reported a busy→idle edge if the medium went idle. The
  // survivors' vector-order fold is exactly the last of those re-sums.
  // Removals only lower the sum, so a batch holds at most one edge, and
  // only if the medium reads idle once the whole batch is gone: search for
  // it then.
  const Arrival* edge = nullptr;
  if (reportedBusy_) {
    double sum = 0.0;
    const Arrival* lastDue = nullptr;
    std::size_t due = 0;
    for (const Arrival& a : arrivals_) {
      if (!a.lazy || !simulator_.reached(a.end, a.seq)) {
        sum += a.rxPowerW;
      } else {
        ++due;
        if (lastDue == nullptr || a.end > lastDue->end) lastDue = &a;
      }
    }
    const bool idleAfter = !failed_ && txUntil_ <= lastDue->end &&
                           !lockedActive_ && sum < params_.csThresholdW;
    if (idleAfter) edge = due == 1 ? lastDue : firstIdleEnd(/*dueOnly=*/true);
  }
  const SimTime edgeAt = edge != nullptr ? edge->end : SimTime::zero();

  double sum = 0.0;
  std::size_t kept = 0;
  lazyEnd_ = SimTime::max();
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    Arrival& a = arrivals_[i];
    if (a.lazy) {
      if (simulator_.reached(a.end, a.seq)) continue;
      if (a.end < lazyEnd_ || (a.end == lazyEnd_ && a.seq < lazySeq_)) {
        lazyEnd_ = a.end;
        lazySeq_ = a.seq;
      }
    }
    sum += a.rxPowerW;
    if (kept != i) arrivals_[kept] = std::move(a);
    ++kept;
  }
  arrivals_.erase(arrivals_.begin() + static_cast<std::ptrdiff_t>(kept),
                  arrivals_.end());
  inbandPowerW_ = sum;
  if (edge != nullptr) recordIdleEdge(edgeAt);
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
    next = firstIdleEnd(/*dueOnly=*/false);
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

void Radio::beginArrival(const PhyFramePtr& frame, net::NodeId transmitter,
                         double rxPowerW, SimTime airtime,
                         bool perCorrupted) {
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
  arrivals_.push_back(Arrival{seq, rxPowerW, end, /*lazy=*/true});
  // Appending extends the left-fold sum by one term: still bit-exact.
  inbandPowerW_ += rxPowerW;

  const bool decodable = rxPowerW >= params_.rxThresholdW;
  if (decodable && !isTransmitting() && !lockedActive_) {
    // Lock onto this frame; only a locked frame's end is an event.
    lockedActive_ = true;
    lockedSeq_ = seq;
    lockedCorrupted_ = false;
    lockedFrame_ = frame;
    lockedTransmitter_ = transmitter;
    lockedPerCorrupted_ = perCorrupted;
    arrivals_.back().lazy = false;
    simulator_.scheduleReservedAt(end, seq, [this, seq] { endArrival(seq); });
    reevaluateLockedSinr();
  } else {
    if (end < lazyEnd_) {  // seqs only grow: an equal end keeps the older one
      lazyEnd_ = end;
      lazySeq_ = seq;
    }
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
  const double rxPowerW = it->rxPowerW;
  arrivals_.erase(it);
  resumInbandPower();

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
      if (rxCallback_) {
        RxInfo info;
        info.transmitter = lockedTransmitter_;
        info.rxPowerW = rxPowerW;
        const double denom = params_.noiseFloorW + interferenceFor(seq);
        info.sinr = rxPowerW / denom;
        rxCallback_(frame, info);
      }
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
  const auto it = std::find_if(arrivals_.begin(), arrivals_.end(),
                               [this](const Arrival& a) { return a.seq == lockedSeq_; });
  MESH_ASSERT(it != arrivals_.end());
  const double sinr =
      it->rxPowerW / (params_.noiseFloorW + interferenceFor(lockedSeq_));
  if (sinr < params_.sinrCaptureThreshold) {
    lockedCorrupted_ = true;
    MESH_TRACE("phy", "node %u: locked frame corrupted (sinr=%.2f)", node_, sinr);
  }
}

}  // namespace mesh::phy
