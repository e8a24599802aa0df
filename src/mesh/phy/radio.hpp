#pragma once
// Radio: one node's half-duplex transceiver.
//
// The radio tracks every signal arriving at it (not only decodable ones):
// their summed power drives both carrier sense and the SINR of the frame
// the radio has locked onto. Reception rules follow Glomosim/ns-2:
//
//  * A frame "locks" the receiver if the radio is idle (not transmitting,
//    not already locked) and its power is >= rxThreshold.
//  * While a frame is locked, the SINR locked/(noise + Σ other signals) is
//    re-evaluated whenever any signal starts or ends; if it ever drops
//    below the capture threshold, the frame is marked corrupted (latched)
//    — this is how collisions and hidden terminals destroy broadcast
//    frames, which have no RTS/CTS protection or retransmission.
//  * A frame arriving while the radio is transmitting is never decoded
//    (half-duplex) but its energy still counts for carrier sense.
//
// The MAC observes the medium through mediumBusy() and lastIdleEdge()
// plus a busy/idle edge callback, and receives successfully decoded frames
// via the rx callback.
//
// Arrival ends are mostly not events. beginArrival reserves the end's seq
// (Simulator::reserveSeq), so the end keeps the (time, seq) key an end
// event scheduled there would have; only the locked frame's end is pushed
// with it. Every other end stays in arrivals_ and sync() retires it once
// the executing event is past that key, with the effects an end event
// would have had: the power sum is re-summed in vector order and a
// busy→idle edge is recorded at the end's own instant (busyTime(),
// lastIdleEdge()). Every entry point and query calls sync() first; it is
// O(1) while no lazy end is due.
//
// Busy/idle edge callback: delivered only while a listener subscribes
// (setMediumListening(true)), at the edge's exact (time, seq). Busy edges
// happen at entry points. For idle edges the radio keeps, while someone
// listens, one crossing event armed at the reserved key of the lazy end
// whose retirement first drops the medium below carrier sense, re-armed
// whenever that key changes. Edges while nobody listens are only recorded.

#include <cstdint>
#include <functional>
#include <vector>

#include "mesh/common/simtime.hpp"
#include "mesh/net/addr.hpp"
#include "mesh/net/packet.hpp"
#include "mesh/phy/frame.hpp"
#include "mesh/phy/phy_params.hpp"
#include "mesh/sim/simulator.hpp"
#include "mesh/trace/trace_event.hpp"

namespace mesh::trace {
class TraceCollector;
}

namespace mesh::phy {

class Channel;

// Delivered to the MAC together with a successfully received frame.
struct RxInfo {
  net::NodeId transmitter{net::kInvalidNode};
  double rxPowerW{0.0};
  double sinr{0.0};  // SINR at end of reception
};

struct RadioStats {
  std::uint64_t framesSent{0};
  std::uint64_t framesDelivered{0};      // decoded and handed to MAC
  std::uint64_t framesCorrupted{0};      // locked but SINR dipped (collision)
  std::uint64_t framesRateCorrupted{0};  // locked but lost to per-rate PER
  std::uint64_t framesBelowThreshold{0}; // energy sensed, never decodable
  std::uint64_t framesMissedBusy{0};     // arrived while radio Tx/Rx-locked
  std::uint64_t framesLostFailed{0};     // tx/rx swallowed while setFailed(true)
  std::uint64_t noiseBursts{0};          // injectNoise() calls (fault subsystem)
  std::uint64_t bytesSent{0};
  std::uint64_t bytesDelivered{0};
  SimTime airtimeTx{SimTime::zero()};
};

class Radio {
 public:
  using RxCallback = std::function<void(const PhyFramePtr&, const RxInfo&)>;
  using MediumCallback = std::function<void(bool busy)>;

  Radio(sim::Simulator& simulator, net::NodeId node, PhyParams params);

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  net::NodeId nodeId() const { return node_; }
  const PhyParams& params() const { return params_; }

  void setReceiveCallback(RxCallback cb) { rxCallback_ = std::move(cb); }
  // Busy/idle edge callback (see file comment): called only while
  // listening.
  void setMediumCallback(MediumCallback cb) { mediumCallback_ = std::move(cb); }
  void setMediumListening(bool listening);

  // --- MAC-facing ---------------------------------------------------------

  // Start transmitting; the caller (MAC) has already done carrier sensing
  // and computed the airtime. Transmitting while busy is a programming
  // error in the MAC, not a channel condition.
  void transmit(const PhyFramePtr& frame, SimTime airtime);

  bool isTransmitting() const { return txUntil_ > simulator_.now(); }
  bool isLocked() const { return lockedActive_; }

  // --- fault injection (mesh/fault) ---------------------------------------

  // Powers the radio off/on. While failed the radio neither radiates
  // (transmit() swallows the frame with a FaultNodeDown drop) nor hears
  // (beginArrival ignores incoming energy). A reception in progress at the
  // failure instant is lost. In-flight arrivals drain on their own
  // schedule, so recovery never observes stale state. Each flip is
  // reported to the attached channel, whose fan-out then skips this radio
  // as a receiver before drawing anything for it.
  void setFailed(bool failed);
  bool failed() const { return failed_; }

  // Adds `powerW` of undecodable in-band energy for `duration`: it raises
  // carrier sense and degrades the SINR of any locked frame, exactly like
  // a co-channel interferer, but can never lock the receiver. Models the
  // fault subsystem's interference bursts.
  void injectNoise(double powerW, SimTime duration);
  // Carrier sense: physically busy (tx/rx) or total in-band energy above
  // the CS threshold, as of the last reported edge — inside a callback the
  // radio is making, the edge it is about to report is not visible yet.
  // (NAV-based virtual carrier sense lives in the MAC.)
  bool mediumBusy() {
    sync();
    return reportedBusy_;
  }
  // When the medium last went from busy to idle (zero if never).
  SimTime lastIdleEdge() {
    sync();
    return lastIdleEdge_;
  }

  const RadioStats& stats() const { return stats_; }

  // Observability: TxStart/TxEnd plus Drop{collision, below-sensitivity,
  // radio-busy} records. Null (the default) disables the hooks; each hook
  // site is a single test of this cached pointer.
  void setTrace(trace::TraceCollector* collector) { trace_ = collector; }

  // Cumulative time the medium has read busy at this radio (tx, rx-locked,
  // or energy above carrier sense). Drives the adaptive probing controller.
  SimTime busyTime() {
    sync();
    SimTime total = busyAccum_;
    if (reportedBusy_) total += simulator_.now() - busySince_;
    return total;
  }

  // --- Channel-facing -----------------------------------------------------

  // `index` is this radio's position in the channel's attach order; the
  // channel passes it back so transmit() resolves the sender row of the
  // reachability cache in O(1) instead of a linear scan.
  void attachChannel(Channel* channel, std::size_t index) {
    channel_ = channel;
    channelIndex_ = index;
  }
  std::size_t channelIndex() const { return channelIndex_; }

  // Called by the channel at the instant the first energy of a frame
  // reaches this radio. The radio ends the arrival itself (file comment).
  // `perCorrupted` marks a frame the channel's per-rate error model already
  // killed: its energy behaves normally (carrier sense, interference, it
  // still locks the receiver) but the decode fails at the end.
  void beginArrival(const PhyFramePtr& frame, net::NodeId transmitter,
                    double rxPowerW, SimTime airtime,
                    bool perCorrupted = false);

 private:
  // Identified by its end's reserved seq. Only energy: the frame of the
  // one arrival that can still be decoded is held by the lock
  // (lockedFrame_).
  struct Arrival {
    std::uint64_t seq;
    double rxPowerW;
    SimTime end;
    bool lazy;  // no end event: retired by sync()
  };

  // Retires every lazy end the executing event has passed. Inline early
  // out: one compare against the earliest lazy end.
  void sync() {
    if (simulator_.reached(lazyEnd_, lazySeq_)) retireLazyEnds();
  }
  void retireLazyEnds();
  // After retiring the lazy ends with key <= `last` (in key order): would
  // the medium read busy at that end's instant?
  bool busyAfter(const Arrival& last) const;
  // Sorts the lazy ends (only the due ones if `dueOnly`, whose caller
  // knows they end idle) by key into lazyOrder_ and returns the first
  // whose retirement leaves the medium idle, or null when none does.
  const Arrival* firstIdleEnd(bool dueOnly);
  void recordIdleEdge(SimTime at);

  void endArrival(std::uint64_t seq);
  void endTransmit();
  void onCrossing();
  void traceDrop(const PhyFramePtr& frame, trace::DropReason reason);
  // Ends the lock early (transmit, failure): the frame is lost, counted in
  // `lost` and traced with `reason`.
  void dropLock(std::uint64_t& lost, trace::DropReason reason);

  double interferenceFor(std::uint64_t excludedSeq) const;
  // Exact re-sum of inbandPowerW_ in vector order; also refreshes the
  // earliest lazy end.
  void resumInbandPower();
  void reevaluateLockedSinr();
  bool computeBusy() const;
  // Ends every entry point: reports an edge at now, then re-arms the
  // crossing event while listening.
  void settle();
  void armCrossing();

  sim::Simulator& simulator_;
  net::NodeId node_;
  PhyParams params_;
  Channel* channel_{nullptr};
  std::size_t channelIndex_{0};  // row in the channel's reachability cache

  RxCallback rxCallback_;
  MediumCallback mediumCallback_;

  std::vector<Arrival> arrivals_;

  // Running total of arriving signal power, kept exactly equal (bitwise)
  // to a fresh left-to-right sum over arrivals_: appends accumulate
  // incrementally (which IS the left fold extended by one term) and every
  // removal triggers an exact re-sum in resumInbandPower(). Carrier-sense
  // queries become O(1) with no FP drift relative to the naive loop.
  double inbandPowerW_{0.0};

  bool lockedActive_{false};
  std::uint64_t lockedSeq_{0};
  bool lockedCorrupted_{false};
  bool failed_{false};  // fault injection: radio powered off
  // The locked arrival's frame, sender and per-rate verdict; the frame is
  // released when the lock ends.
  PhyFramePtr lockedFrame_;
  net::NodeId lockedTransmitter_{net::kInvalidNode};
  bool lockedPerCorrupted_{false};

  SimTime txUntil_{SimTime::zero()};
  PhyFramePtr txFrame_;  // in-flight own frame, for the TxEnd record

  trace::TraceCollector* trace_{nullptr};

  bool reportedBusy_{false};
  SimTime busySince_{SimTime::zero()};
  SimTime busyAccum_{SimTime::zero()};
  RadioStats stats_;

  // Lazy-end and listener state, placed last: building a 5000-node world
  // reads node_, params_ and failed_ of every candidate receiver, and
  // measured slower with these fields ahead of them.
  // Earliest lazy end key; SimTime::max() when there is none.
  SimTime lazyEnd_{SimTime::max()};
  std::uint64_t lazySeq_{0};
  std::vector<std::uint32_t> lazyOrder_;  // scratch for firstIdleEnd
  SimTime lastIdleEdge_{SimTime::zero()};
  bool listening_{false};
  sim::EventId crossingId_;
  std::uint64_t crossingSeq_{0};  // armed end's seq (unique); 0: disarmed
};

}  // namespace mesh::phy
