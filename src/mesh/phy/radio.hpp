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
// Energy is exact integer arithmetic (DESIGN §8.3). Each arrival's power
// is rounded once to a count of 2^-64 W quanta and summed in 128 bits, so
// adding and removing a term are exact and commute. An arrival of 0.25 W
// or more (only a fault burst gets there) is "strong": it is counted, not
// summed. While one is present the medium reads busy and any other
// locked frame is corrupted, which is exact because no frame a link model
// can draw would survive 10 dB capture against it.
//
// The MAC observes the medium through mediumBusy() and lastIdleEdge()
// plus a busy/idle edge callback, and receives successfully decoded frames
// via the rx callback.
//
// Arrival ends are mostly not events. beginArrival reserves the end's seq
// (Simulator::reserveSeq), so the end keeps the (time, seq) key an end
// event scheduled there would have; only the locked frame's end is pushed
// with it. arrivals_ is kept in that key order. Every other end stays in
// arrivals_ until sync() retires it, once the executing event is past its
// key, with the effects an end event would have had: its energy leaves
// the sum and a busy→idle edge is recorded at the end's own instant
// (busyTime(), lastIdleEdge()). Every entry point and query calls sync()
// first; it is O(1) while no lazy end is due.
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
  using RxCallback = std::function<void(const PhyFramePtr&)>;
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
  void beginArrival(const PhyFramePtr& frame, double rxPowerW,
                    SimTime airtime, bool perCorrupted = false);

 private:
  // 8-byte aligned: a 16-byte-aligned Radio grows every MeshNode, and
  // building a 5000-node world measured slower with it.
  __extension__ typedef __int128 EnergySum __attribute__((aligned(8)));

  // Identified by its end's reserved seq; arrivals_ is ordered by
  // (end, seq). Only energy: the frame of the one arrival that can still
  // be decoded is held by the lock (lockedFrame_).
  struct Arrival {
    std::uint64_t seq;
    SimTime end;
    std::int64_t quanta;  // power in 2^-64 W; 0 when strong
    bool strong;          // counted in strongCount_ instead
    bool lazy;            // no end event: retired by sync()
  };

  // Retires every lazy end the executing event has passed. Inline early
  // out: one compare against the earliest lazy end.
  void sync() {
    if (simulator_.reached(lazyEnd_, lazySeq_)) retireLazyEnds();
  }
  void retireLazyEnds();
  // Would the medium read idle once the lazy ends up to one ending at
  // `end` have retired, leaving `energy` and `strong`? Tx and lock state
  // only change at entry points, so they hold across a batch.
  bool idleAfter(SimTime end, EnergySum energy, std::uint32_t strong) const {
    return txUntil_ <= end && !lockedActive_ && strong == 0 &&
           energy < csQuanta_;
  }
  void recordIdleEdge(SimTime at);

  // Inserts at the arrival's key position. Its seq is the newest, so it
  // goes after every end at or before its own: usually an append.
  void addArrival(std::uint64_t seq, SimTime end, double powerW, bool lazy);
  void endArrival(std::uint64_t seq);
  void endTransmit();
  void onCrossing();
  void traceDrop(const PhyFramePtr& frame, trace::DropReason reason);
  // Ends the lock early (transmit, failure): the frame is lost, counted in
  // `lost` and traced with `reason`.
  void dropLock(std::uint64_t& lost, trace::DropReason reason);

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

  // The locked arrival's power as drawn: the capture numerator.
  double lockedPowerW_{0.0};
  bool lockedActive_{false};
  std::uint64_t lockedSeq_{0};
  bool lockedCorrupted_{false};
  bool failed_{false};  // fault injection: radio powered off
  // The locked arrival's frame and per-rate verdict; the frame is
  // released when the lock ends.
  PhyFramePtr lockedFrame_;
  bool lockedPerCorrupted_{false};

  SimTime txUntil_{SimTime::zero()};
  PhyFramePtr txFrame_;  // in-flight own frame, for the TxEnd record

  trace::TraceCollector* trace_{nullptr};

  bool reportedBusy_{false};
  SimTime busySince_{SimTime::zero()};
  SimTime busyAccum_{SimTime::zero()};
  RadioStats stats_;

  // Energy, lazy-end and listener state, placed last: building a 5000-node
  // world reads node_, params_ and failed_ of every candidate receiver,
  // and measured slower with these fields ahead of them.
  EnergySum energy_{0};    // Σ quanta of the non-strong arrivals
  std::int64_t csQuanta_;  // ceil(csThresholdW × 2^64)
  // Earliest lazy end key; SimTime::max() when there is none.
  SimTime lazyEnd_{SimTime::max()};
  std::uint64_t lazySeq_{0};
  SimTime lastIdleEdge_{SimTime::zero()};
  bool listening_{false};
  std::uint32_t strongCount_{0};  // arrivals of 0.25 W or more
  sim::EventId crossingId_;
  std::uint64_t crossingSeq_{0};  // armed end's seq (unique); 0: disarmed
};

}  // namespace mesh::phy
