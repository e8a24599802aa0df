#include "mesh/mac/mac80211.hpp"

#include <algorithm>

#include "mesh/common/log.hpp"
#include "mesh/trace/trace_collector.hpp"

namespace mesh::mac {

Mac80211::Mac80211(sim::Simulator& simulator, phy::Radio& radio,
                   MacParams params, Rng rng)
    : simulator_{simulator},
      radio_{radio},
      params_{params},
      rng_{rng},
      cw_{params.cwMin},
      accessTimer_{simulator},
      navTimer_{simulator},
      responseTimer_{simulator},
      txDoneTimer_{simulator},
      sifsTimer_{simulator} {
  MESH_REQUIRE(params_.cwMin > 0 && params_.cwMax >= params_.cwMin);
  radio_.setReceiveCallback(
      [this](const phy::PhyFramePtr& frame) { onRadioReceive(frame); });
  radio_.setMediumCallback([this](bool busy) { onMediumEdge(busy); });
  dupCache_.assign(params_.dupCacheSize, {net::kInvalidNode, 0});
  queue_.init(params_.queueLimit);
}

// --------------------------------------------------------------- medium

bool Mac80211::effectiveBusy() {
  return radio_.mediumBusy() || simulator_.now() < navUntil_;
}

SimTime Mac80211::idleSince() {
  return std::max(radio_.lastIdleEdge(), navUntil_);
}

// Edges arrive only while contending. A busy edge freezes a running
// countdown; an idle edge resumes it unless the NAV still holds.
void Mac80211::onMediumEdge(bool busy) {
  if (busy) {
    pauseCountdown();
  } else if (contending_) {
    resumeCountdown();
  }
}

void Mac80211::setNav(SimTime until) {
  if (until <= navUntil_) return;
  navUntil_ = until;
  navTimer_.start(until - simulator_.now(), [this] {
    // A physical idle edge at this very instant already resumed (or found
    // the medium busy again): resuming twice would re-arm the countdown
    // with a later seq.
    if (contending_ && radio_.lastIdleEdge() < simulator_.now()) {
      resumeCountdown();
    }
  });
  pauseCountdown();
}

// ----------------------------------------------------------------- access

void Mac80211::send(net::PacketPtr payload, net::NodeId dst) {
  MESH_REQUIRE(payload != nullptr);
  if (queueDropFault_) {
    // Injected MAC-layer fault (FaultKind::MacQueueDrop): the queue
    // silently swallows every payload while active — the upper layers see
    // neither an error nor a tx-status report, exactly like a firmware
    // queue stall.
    ++stats_.faultQueueDrops;
    if (trace_ != nullptr) {
      trace_->drop(simulator_.now(), nodeId(), payload.get(), payload->kind(),
                   static_cast<std::uint32_t>(payload->sizeBytes()),
                   trace::DropReason::FaultMacQueueDrop);
    }
    return;
  }
  if (queue_.size() >= params_.queueLimit) {
    ++stats_.queueDrops;
    switch (payload->kind()) {
      case net::PacketKind::Data: ++stats_.queueDropsData; break;
      case net::PacketKind::Probe: ++stats_.queueDropsProbe; break;
      default: ++stats_.queueDropsControl; break;
    }
    if (trace_ != nullptr) {
      trace_->drop(simulator_.now(), nodeId(), payload.get(), payload->kind(),
                   static_cast<std::uint32_t>(payload->sizeBytes()),
                   trace::DropReason::MacQueueTail);
    }
    return;
  }
  TxJob job;
  job.payload = std::move(payload);
  job.dst = dst;
  job.seq = ++seqCounter_;
  job.usesRts = dst != net::kBroadcastNode &&
                job.payload->sizeBytes() > params_.rtsThresholdBytes;
  queue_.push(std::move(job));
  ++stats_.enqueued;
  if (trace_ != nullptr) {
    trace_->enqueue(simulator_.now(), nodeId(), *queue_.back().payload);
  }
  startJobIfIdle();
}

void Mac80211::startJobIfIdle() {
  if (current_ || queue_.empty()) return;
  if (waitState_ != WaitState::None) return;
  current_ = queue_.pop();
  const bool force = needBackoff_;
  needBackoff_ = false;
  beginContention(force);
}

void Mac80211::beginContention(bool forceBackoff) {
  contending_ = true;
  radio_.setMediumListening(true);
  if (backoffSlots_ < 0) {
    // Immediate access: medium idle for at least DIFS and no post-tx
    // backoff pending.
    if (!forceBackoff && !effectiveBusy() &&
        simulator_.now() - idleSince() >= params_.difs) {
      backoffSlots_ = 0;
      accessGranted();
      return;
    }
    backoffSlots_ = static_cast<int>(
        rng_.uniformInt(0, static_cast<std::int64_t>(cw_)));
  }
  resumeCountdown();
}

void Mac80211::resumeCountdown() {
  MESH_ASSERT(contending_);
  if (effectiveBusy()) return;  // the idle edge will resume us
  const SimTime idleFor = simulator_.now() - idleSince();
  const SimTime remainingDifs =
      idleFor >= params_.difs ? SimTime::zero() : params_.difs - idleFor;
  countdownStart_ = simulator_.now();
  countdownDifs_ = remainingDifs;
  accessTimer_.start(remainingDifs + params_.slotTime * backoffSlots_,
                     [this] { accessGranted(); });
}

void Mac80211::pauseCountdown() {
  if (!accessTimer_.isRunning()) return;
  accessTimer_.cancel();
  // Credit fully elapsed slots.
  const SimTime elapsed = simulator_.now() - countdownStart_;
  if (elapsed > countdownDifs_) {
    const std::int64_t consumed =
        (elapsed - countdownDifs_).ns() / params_.slotTime.ns();
    backoffSlots_ = std::max(0, backoffSlots_ - static_cast<int>(consumed));
  }
}

void Mac80211::accessGranted() {
  MESH_ASSERT(current_.has_value());
  backoffSlots_ = -1;
  contending_ = false;
  radio_.setMediumListening(false);
  if (current_->usesRts) {
    transmitRts();
  } else {
    transmitData();
  }
}

// ------------------------------------------------------------ transmission

SimTime Mac80211::airtime(std::size_t frameBytes) const {
  return radio_.params().frameAirtime(frameBytes);
}

SimTime Mac80211::airtime(std::size_t frameBytes, rate::TxVector v) const {
  if (v.rateAware() && rateTable_ != nullptr) {
    return rateTable_->frameAirtime(frameBytes, v.code);
  }
  return airtime(frameBytes);
}

rate::TxVector Mac80211::vectorFor(const TxJob& job) {
  if (rateController_ == nullptr) return {};
  // A rate hint pins the choice (probe stamping: the embedded code must
  // match the actual transmit rate).
  if (job.payload->rateHint() != 0) {
    return rate::TxVector{job.payload->rateHint()};
  }
  if (job.dst == net::kBroadcastNode) {
    // Broadcast DATA rides the controller's multicast rate; control floods
    // stay at the basic rate so route discovery is comparable across
    // policies (and reaches every neighbor the metrics can see).
    return job.payload->kind() == net::PacketKind::Data
               ? rateController_->dataVector()
               : rate::TxVector{};
  }
  return rateController_->unicastVector(job.dst, job.retries);
}

void Mac80211::transmitFrame(const Frame& frame, rate::TxVector v) {
  // Serialize the padded header into a stack buffer; the payload bytes stay
  // in the pooled packet the frame carries. Zero heap traffic per frame.
  std::uint8_t header[kDataHeaderBytes];
  const std::size_t headerLen = frame.serializeHeader(header);
  auto phyFrame =
      phy::makeFrame(std::span<const std::uint8_t>{header, headerLen},
                     frame.sizeBytes(), frame.payload, v);
  radio_.transmit(phyFrame, airtime(phyFrame->sizeBytes(), v));
}

namespace {
std::uint16_t saturateUs(SimTime t) {
  const auto us = t.ns() / 1000;
  return us > 0xFFFF ? 0xFFFF : static_cast<std::uint16_t>(us);
}
}  // namespace

void Mac80211::transmitRts() {
  MESH_ASSERT(current_.has_value());
  // The RTS itself goes at the basic rate, but its NAV reservation must
  // cover the DATA frame at the rate it will actually use.
  const rate::TxVector dataVec = vectorFor(*current_);
  const SimTime ctsAt = airtime(kCtsBytes);
  const SimTime dataAt =
      airtime(dataFrameBytes(current_->payload->sizeBytes()), dataVec);
  const SimTime ackAt = airtime(kAckBytes);
  const SimTime reservation =
      params_.sifs * 3 + ctsAt + dataAt + ackAt;

  Frame rts;
  rts.header.type = FrameType::Rts;
  rts.header.retry = current_->retries > 0;
  rts.header.durationUs = saturateUs(reservation);
  rts.header.dst = current_->dst;
  rts.header.src = nodeId();
  rts.header.seq = current_->seq;

  ++stats_.rtsSent;
  transmitFrame(rts);
  const SimTime rtsAt = airtime(kRtsBytes);
  txDoneTimer_.start(rtsAt, [this, ctsAt] {
    waitState_ = WaitState::Cts;
    responseTimer_.start(params_.sifs + ctsAt + params_.slotTime * 2,
                         [this] { onCtsTimeout(); });
  });
}

void Mac80211::transmitData() {
  MESH_ASSERT(current_.has_value());
  const bool broadcast = current_->dst == net::kBroadcastNode;
  const rate::TxVector dataVec = vectorFor(*current_);
  const SimTime dataAt =
      airtime(dataFrameBytes(current_->payload->sizeBytes()), dataVec);
  const SimTime ackAt = airtime(kAckBytes);

  Frame data;
  data.header.type = FrameType::Data;
  data.header.retry = current_->retries > 0;
  data.header.durationUs =
      broadcast ? 0 : saturateUs(params_.sifs + ackAt);
  data.header.dst = current_->dst;
  data.header.src = nodeId();
  data.header.seq = current_->seq;
  data.payload = current_->payload;

  if (broadcast) {
    ++stats_.broadcastSent;
  } else {
    ++stats_.unicastSent;
  }
  transmitFrame(data, dataVec);
  txDoneTimer_.start(dataAt, [this] { onDataTxComplete(); });
}

void Mac80211::onDataTxComplete() {
  MESH_ASSERT(current_.has_value());
  if (current_->dst == net::kBroadcastNode) {
    // Broadcast: fire and forget — this is the whole point of Section 2.1.
    finishJob(true);
    return;
  }
  const SimTime ackAt = airtime(kAckBytes);
  waitState_ = WaitState::Ack;
  responseTimer_.start(params_.sifs + ackAt + params_.slotTime * 2,
                       [this] { onAckTimeout(); });
}

void Mac80211::onCtsTimeout() {
  ++stats_.ctsTimeouts;
  waitState_ = WaitState::None;
  retryFailure(/*rtsStage=*/true);
}

void Mac80211::onAckTimeout() {
  ++stats_.ackTimeouts;
  waitState_ = WaitState::None;
  retryFailure(/*rtsStage=*/false);
}

void Mac80211::retryFailure(bool rtsStage) {
  MESH_ASSERT(current_.has_value());
  ++current_->retries;
  ++stats_.retries;
  const int limit = rtsStage ? params_.shortRetryLimit
                             : (current_->usesRts ? params_.longRetryLimit
                                                  : params_.shortRetryLimit);
  if (current_->retries > limit) {
    ++stats_.retryDrops;
    if (trace_ != nullptr) {
      trace_->drop(simulator_.now(), nodeId(), current_->payload.get(),
                   current_->payload->kind(),
                   static_cast<std::uint32_t>(current_->payload->sizeBytes()),
                   rtsStage ? trace::DropReason::MacCtsTimeout
                            : trace::DropReason::MacRetryExhausted);
    }
    if (txStatusCallback_) {
      txStatusCallback_(current_->payload, current_->dst, false);
    }
    cw_ = params_.cwMin;
    current_.reset();
    needBackoff_ = true;
    startJobIfIdle();
    return;
  }
  cw_ = std::min(cw_ * 2 + 1, params_.cwMax);
  beginContention(/*forceBackoff=*/true);
}

void Mac80211::finishJob(bool success) {
  MESH_ASSERT(current_.has_value());
  if (success && current_->dst != net::kBroadcastNode && txStatusCallback_) {
    txStatusCallback_(current_->payload, current_->dst, true);
  }
  cw_ = params_.cwMin;
  current_.reset();
  needBackoff_ = true;
  startJobIfIdle();
}

// --------------------------------------------------------------- reception

void Mac80211::onRadioReceive(const phy::PhyFramePtr& frame) {
  const auto header = Frame::parseHeader(frame->headerBytes());
  if (!header) return;
  const FrameHeader& h = *header;

  // Virtual carrier sense: any decodable frame not addressed to us
  // reserves the medium for its advertised duration.
  if (h.dst != nodeId() && h.durationUs > 0) {
    setNav(simulator_.now() +
           SimTime::microseconds(static_cast<std::int64_t>(h.durationUs)));
  }

  switch (h.type) {
    case FrameType::Rts:
      if (h.dst == nodeId()) handleRts(h);
      break;
    case FrameType::Cts:
      if (h.dst == nodeId()) handleCts(h);
      break;
    case FrameType::Data:
      handleData(h, frame->payload);
      break;
    case FrameType::Ack:
      if (h.dst == nodeId()) handleAck(h);
      break;
  }
}

void Mac80211::handleRts(const FrameHeader& h) {
  // Respond only if our own NAV allows it (802.11 rule: an RTS is ignored
  // when virtual carrier sense says the medium is reserved).
  if (simulator_.now() < navUntil_) {
    ++stats_.responsesSkipped;
    return;
  }
  const SimTime ctsAt = airtime(kCtsBytes);
  Frame cts;
  cts.header.type = FrameType::Cts;
  const SimTime rtsReservation =
      SimTime::microseconds(static_cast<std::int64_t>(h.durationUs));
  const SimTime remaining = rtsReservation - params_.sifs - ctsAt;
  cts.header.durationUs = saturateUs(remaining.isNegative() ? SimTime::zero() : remaining);
  cts.header.dst = h.src;
  cts.header.src = nodeId();
  cts.header.seq = h.seq;
  scheduleResponse(cts);
}

void Mac80211::handleCts(const FrameHeader& h) {
  (void)h;
  if (waitState_ != WaitState::Cts) return;
  responseTimer_.cancel();
  waitState_ = WaitState::None;
  // DATA follows SIFS after the CTS. responseTimer_ is free until the DATA
  // transmission completes, so it can carry the SIFS gap.
  responseTimer_.start(params_.sifs, [this] { transmitData(); });
}

void Mac80211::handleData(const FrameHeader& h, const net::PacketPtr& payload) {
  if (h.dst == nodeId()) {
    // Always ACK a correctly received unicast frame, even a duplicate —
    // the sender retransmitted because it missed our previous ACK.
    Frame ack;
    ack.header.type = FrameType::Ack;
    ack.header.durationUs = 0;
    ack.header.dst = h.src;
    ack.header.src = nodeId();
    ack.header.seq = h.seq;
    scheduleResponse(ack);
    if (isDuplicate(h.src, h.seq)) {
      ++stats_.dupSuppressed;
      return;
    }
    ++stats_.delivered;
    if (rxCallback_ && payload) rxCallback_(payload, h.src);
  } else if (h.dst == net::kBroadcastNode) {
    // Broadcast: no ACK, no MAC-level dedup (there are no retransmissions).
    ++stats_.delivered;
    if (rxCallback_ && payload) rxCallback_(payload, h.src);
  }
  // Unicast overheard for someone else: NAV already handled.
}

void Mac80211::handleAck(const FrameHeader& h) {
  (void)h;
  if (waitState_ != WaitState::Ack) return;
  responseTimer_.cancel();
  waitState_ = WaitState::None;
  finishJob(true);
}

void Mac80211::scheduleResponse(Frame response) {
  if (sifsTimer_.isRunning()) {
    // A response is already pending; real hardware would be in its SIFS
    // turnaround. Rare — count and drop the older one.
    ++stats_.responsesSkipped;
  }
  sifsTimer_.start(params_.sifs, [this, response = std::move(response)] {
    if (radio_.isTransmitting()) {
      ++stats_.responsesSkipped;
      return;
    }
    if (response.header.type == FrameType::Cts) ++stats_.ctsSent;
    if (response.header.type == FrameType::Ack) ++stats_.ackSent;
    transmitFrame(response);
  });
}

bool Mac80211::isDuplicate(net::NodeId src, std::uint16_t seq) {
  const std::pair<net::NodeId, std::uint16_t> key{src, seq};
  for (const auto& entry : dupCache_) {
    if (entry == key) return true;
  }
  if (!dupCache_.empty()) {
    dupCache_[dupCacheNext_] = key;
    dupCacheNext_ = (dupCacheNext_ + 1) % dupCache_.size();
  }
  return false;
}

}  // namespace mesh::mac
