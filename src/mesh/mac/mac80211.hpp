#pragma once
// Mac80211: IEEE 802.11 Distributed Coordination Function.
//
// The MAC implements the two transmission services whose asymmetry the
// paper's metric design rests on (Section 2.1):
//
//  * Unicast — physical + virtual carrier sense (NAV), DIFS + binary
//    exponential backoff, optional RTS/CTS reservation, receiver ACK and
//    retransmission up to the retry limits. A successful transfer needs
//    the *reverse* direction too (CTS, ACK), which is why unicast metrics
//    are bidirectional.
//  * Broadcast — carrier sense + DIFS + a single backoff draw from CWmin,
//    then one shot: no RTS/CTS, no ACK, no retransmission. The forward
//    link alone decides success, and a packet has exactly one chance per
//    hop — the two facts all five multicast metrics encode.
//
// Backoff follows the standard countdown semantics: the counter only
// decrements while the medium has been idle for DIFS, freezes on busy, and
// resumes without redrawing. Post-transmission backoff is always performed
// before the next frame; a frame arriving to an idle MAC with the medium
// idle ≥ DIFS is sent immediately.
//
// Carrier sense is pulled, not cached: the MAC reads radio.mediumBusy()
// and takes "idle since" as max(radio.lastIdleEdge(), NAV end). It
// subscribes to the radio's busy/idle edges (Radio::setMediumListening)
// only while contending — the only state in which an edge moves anything
// (a countdown to freeze or resume) — so an idle MAC costs the radio no
// edge events.

#include <functional>
#include <optional>
#include <vector>

#include "mesh/common/rng.hpp"
#include "mesh/common/simtime.hpp"
#include "mesh/mac/frames.hpp"
#include "mesh/mac/mac_params.hpp"
#include "mesh/net/packet.hpp"
#include "mesh/phy/radio.hpp"
#include "mesh/rate/rate_controller.hpp"
#include "mesh/rate/tx_vector.hpp"
#include "mesh/sim/simulator.hpp"
#include "mesh/sim/timer.hpp"

namespace mesh::trace {
class TraceCollector;
}

namespace mesh::mac {

struct MacStats {
  std::uint64_t enqueued{0};
  std::uint64_t queueDrops{0};        // transmit-queue tail drops, total
  // Tail drops broken out by what was lost (mac_params.hpp: a payload
  // arriving to a full queue "is dropped at the tail"). Data losses here
  // are invisible to the PHY loss counters, so they get their own reason.
  std::uint64_t queueDropsData{0};
  std::uint64_t queueDropsProbe{0};
  std::uint64_t queueDropsControl{0};
  std::uint64_t broadcastSent{0};
  std::uint64_t unicastSent{0};       // DATA transmissions incl. retries
  std::uint64_t rtsSent{0};
  std::uint64_t ctsSent{0};
  std::uint64_t ackSent{0};
  std::uint64_t retries{0};
  std::uint64_t retryDrops{0};        // gave up after retry limit
  std::uint64_t ctsTimeouts{0};
  std::uint64_t ackTimeouts{0};
  std::uint64_t delivered{0};         // payloads handed to the upper layer
  std::uint64_t dupSuppressed{0};
  std::uint64_t responsesSkipped{0};  // CTS/ACK suppressed (radio busy/NAV)
  std::uint64_t faultQueueDrops{0};   // swallowed by an injected queue fault
};

class Mac80211 {
 public:
  // `from` is the transmitting MAC (the immediate neighbor), which the
  // metric layer needs to attribute link measurements.
  using RxCallback =
      std::function<void(const net::PacketPtr& payload, net::NodeId from)>;
  // Reports the fate of locally originated unicast payloads (true once the
  // ACK arrives, false after the retry limit). Broadcasts never report.
  using TxStatusCallback =
      std::function<void(const net::PacketPtr& payload, net::NodeId dst, bool ok)>;

  Mac80211(sim::Simulator& simulator, phy::Radio& radio, MacParams params, Rng rng);

  Mac80211(const Mac80211&) = delete;
  Mac80211& operator=(const Mac80211&) = delete;

  net::NodeId nodeId() const { return radio_.nodeId(); }
  const MacParams& params() const { return params_; }
  const MacStats& stats() const { return stats_; }

  void setReceiveCallback(RxCallback cb) { rxCallback_ = std::move(cb); }
  void setTxStatusCallback(TxStatusCallback cb) { txStatusCallback_ = std::move(cb); }

  // Observability: Enqueue plus Drop{queue-tail, retry-exhausted,
  // CTS-timeout} records. Null (the default) disables the hooks.
  void setTrace(trace::TraceCollector* collector) { trace_ = collector; }

  // Attach a rate controller (both null by default = the legacy fixed-rate
  // path). DATA frames then carry the controller's TxVector — per-rate
  // airtime, NAV reservations computed from it — while RTS/CTS/ACK and
  // broadcast control floods stay at the basic rate, the 802.11 rule.
  void setRateControl(rate::RateController* controller,
                      const rate::RateTable* table) {
    rateController_ = controller;
    rateTable_ = table;
  }

  // Queue a payload for transmission. dst == net::kBroadcastNode selects
  // the broadcast service.
  void send(net::PacketPtr payload, net::NodeId dst);

  // Fault injection (FaultKind::MacQueueDrop): while active, send()
  // silently drops every payload at the queue entry with a
  // FaultMacQueueDrop trace record. Frames already queued still transmit.
  void setQueueDropFault(bool active) { queueDropFault_ = active; }

  std::size_t queueDepth() const { return queue_.size() + (current_ ? 1u : 0u); }
  SimTime navUntil() const { return navUntil_; }

 private:
  struct TxJob {
    net::PacketPtr payload;
    net::NodeId dst;
    std::uint16_t seq{0};
    int retries{0};
    bool usesRts{false};
  };

  // Fixed-capacity FIFO of pending payloads: a ring over a flat vector
  // sized once to queueLimit. std::deque would allocate/free its block
  // pages in steady flow; this never touches the heap after init.
  class TxQueue {
   public:
    void init(std::size_t capacity) { slots_.resize(capacity); }
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    const TxJob& back() const {
      return slots_[(head_ + count_ - 1) % slots_.size()];
    }
    void push(TxJob&& job) {
      MESH_ASSERT(count_ < slots_.size());
      slots_[(head_ + count_) % slots_.size()] = std::move(job);
      ++count_;
    }
    TxJob pop() {
      MESH_ASSERT(count_ > 0);
      TxJob job = std::move(slots_[head_]);
      head_ = (head_ + 1) % slots_.size();
      --count_;
      return job;
    }

   private:
    std::vector<TxJob> slots_;
    std::size_t head_{0};
    std::size_t count_{0};
  };

  enum class WaitState { None, Cts, Ack };

  // --- medium state -------------------------------------------------------
  bool effectiveBusy();  // physical or virtual (NAV) carrier sense
  SimTime idleSince();   // start of the current effective idle period
  void onMediumEdge(bool busy);
  void setNav(SimTime until);

  // --- channel access -----------------------------------------------------
  void startJobIfIdle();
  void beginContention(bool forceBackoff);
  void resumeCountdown();
  void pauseCountdown();
  void accessGranted();

  // --- transmission -------------------------------------------------------
  SimTime airtime(std::size_t frameBytes) const;
  SimTime airtime(std::size_t frameBytes, rate::TxVector v) const;
  // Rate decision for the current job's DATA frame (legacy when no
  // controller is attached).
  rate::TxVector vectorFor(const TxJob& job);
  void transmitFrame(const Frame& frame, rate::TxVector v = {});
  void transmitRts();
  void transmitData();
  void onDataTxComplete();
  void onCtsTimeout();
  void onAckTimeout();
  void retryFailure(bool rtsStage);
  void finishJob(bool success);

  // --- reception ----------------------------------------------------------
  void onRadioReceive(const phy::PhyFramePtr& frame);
  void handleRts(const FrameHeader& h);
  void handleCts(const FrameHeader& h);
  void handleData(const FrameHeader& h, const net::PacketPtr& payload);
  void handleAck(const FrameHeader& h);
  void scheduleResponse(Frame response);
  bool isDuplicate(net::NodeId src, std::uint16_t seq);

  sim::Simulator& simulator_;
  phy::Radio& radio_;
  MacParams params_;
  Rng rng_;

  RxCallback rxCallback_;
  TxStatusCallback txStatusCallback_;
  trace::TraceCollector* trace_{nullptr};
  rate::RateController* rateController_{nullptr};
  const rate::RateTable* rateTable_{nullptr};

  TxQueue queue_;
  std::optional<TxJob> current_;
  std::uint16_t seqCounter_{0};
  bool queueDropFault_{false};  // injected MacQueueDrop fault is active

  // Contention state.
  int cw_;
  int backoffSlots_{-1};        // -1: no draw pending
  bool needBackoff_{false};     // post-tx backoff required
  bool contending_{false};      // countdown armed or waiting for idle;
                                // the radio's edge listener while set
  sim::Timer accessTimer_;
  SimTime countdownStart_{SimTime::zero()};  // when the DIFS+slots timer armed
  SimTime countdownDifs_{SimTime::zero()};   // DIFS portion of that timer

  // Virtual carrier sense.
  SimTime navUntil_{SimTime::zero()};
  sim::Timer navTimer_;

  // Response / wait state.
  WaitState waitState_{WaitState::None};
  sim::Timer responseTimer_;   // CTS/ACK timeout
  sim::Timer txDoneTimer_;     // end of own frame airtime
  sim::Timer sifsTimer_;       // pending SIFS-spaced response

  // Duplicate cache (unicast retransmissions), small ring buffer.
  std::vector<std::pair<net::NodeId, std::uint16_t>> dupCache_;
  std::size_t dupCacheNext_{0};

  MacStats stats_;
};

}  // namespace mesh::mac
