#pragma once
// MulticastSink: per-member delivery accounting.
//
// Records every packet ODMRP delivers to this member: count, bytes, and
// end-to-end delay (delivery time minus the packet's creation time at the
// source). These feed the paper's three measures: throughput (Figure 2
// columns 1, 2, 4), delay (column 3), and — via the per-kind byte counts
// kept by the node — probing overhead (Table 1).

#include <cstdint>
#include <unordered_map>

#include "mesh/common/simtime.hpp"
#include "mesh/common/stats.hpp"
#include "mesh/net/addr.hpp"
#include "mesh/net/packet.hpp"
#include "mesh/sim/simulator.hpp"
#include "mesh/trace/trace_collector.hpp"

namespace mesh::app {

class MulticastSink {
 public:
  explicit MulticastSink(sim::Simulator& simulator) : simulator_{simulator} {}

  // Observability: a Deliver record per packet handed to this member. The
  // sink does not otherwise know which node owns it, so the id rides along.
  void setTrace(trace::TraceCollector* collector, net::NodeId self) {
    trace_ = collector;
    self_ = self;
  }

  // Wire as the Odmrp deliver callback.
  void onDeliver(net::GroupId group, net::NodeId source, std::uint32_t seq,
                 const net::PacketPtr& packet,
                 std::span<const std::uint8_t> payload) {
    (void)seq;
    ++packetsReceived_;
    payloadBytesReceived_ += payload.size();
    delayS_.add((simulator_.now() - packet->createdAt()).toSeconds());
    if (trace_ != nullptr) {
      trace_->deliver(simulator_.now(), self_, *packet,
                      static_cast<std::uint32_t>(payload.size()), source,
                      group);
    }
  }

  std::uint64_t packetsReceived() const { return packetsReceived_; }
  std::uint64_t payloadBytesReceived() const { return payloadBytesReceived_; }

  const OnlineStats& delayStats() const { return delayS_; }

 private:
  sim::Simulator& simulator_;
  trace::TraceCollector* trace_{nullptr};
  net::NodeId self_{net::kInvalidNode};
  std::uint64_t packetsReceived_{0};
  std::uint64_t payloadBytesReceived_{0};
  OnlineStats delayS_;
};

}  // namespace mesh::app
