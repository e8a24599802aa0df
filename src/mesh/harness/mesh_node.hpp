#pragma once
// MeshNode: one complete mesh router.
//
// Composition (bottom-up): Radio -> Mac80211 -> packet dispatch by kind ->
// { ProbeService + NeighborTable, Odmrp } -> { CbrSource, MulticastSink }.
// This is the node a scenario instantiates 50 of; tests use it directly
// for small rigs.
//
// The node also keeps per-kind received-byte counters (probe / control /
// data) measured at MAC delivery — the raw numbers behind Table 1's
// "percentage of bytes from probe packets out of the total number of data
// bytes received".

#include <memory>
#include <optional>

#include "mesh/app/cbr_source.hpp"
#include "mesh/app/multicast_sink.hpp"
#include "mesh/common/rng.hpp"
#include "mesh/harness/counters.hpp"
#include "mesh/mac/mac80211.hpp"
#include "mesh/metrics/metric.hpp"
#include "mesh/metrics/neighbor_table.hpp"
#include "mesh/metrics/probe_service.hpp"
#include "mesh/maodv/tree_multicast.hpp"
#include "mesh/net/multicast_protocol.hpp"
#include "mesh/odmrp/odmrp.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/phy/radio.hpp"
#include "mesh/rate/rate_controller.hpp"
#include "mesh/sim/simulator.hpp"
#include "mesh/trace/trace_collector.hpp"

namespace mesh::harness {

struct MeshNodeConfig {
  phy::PhyParams phy{};
  mac::MacParams mac{};
  odmrp::OdmrpParams odmrp{};
  maodv::TreeParams tree{};
  // Mesh-based ODMRP (default) or the tree-based protocol of Section 4.3.
  bool treeRouting{false};
  // Probing: rateScale divides the metric's probe interval (Section 4.2.2
  // sweeps). Ignored for the original protocol (metric == nullptr).
  double probeRateScale{1.0};
  // Optional load-aware probe throttling (Section 6 future work).
  metrics::AdaptiveProbing adaptiveProbing{};
  // Rate adaptation. `rateTable` null (the default) keeps the node on the
  // legacy single-rate path with zero rate-control code in the loop; the
  // table must outlive the node (the scenario owns one per run). With a
  // table and ControlKind::Fixed the full plumbing is installed but every
  // frame still carries code 0 — the determinism anchor.
  rate::ControlKind rateControl{rate::ControlKind::Fixed};
  const rate::RateTable* rateTable{nullptr};
};

class MeshNode {
 public:
  // `metric` is shared by all nodes of a scenario (or nullptr for the
  // original ODMRP). The channel must outlive the node. `trace` (optional)
  // receives packet-lifecycle records from every layer of this node; it is
  // cached as a raw pointer in each layer, so it must outlive the node too.
  MeshNode(sim::Simulator& simulator, phy::Channel& channel, net::NodeId id,
           const MeshNodeConfig& config, const metrics::Metric* metric,
           Rng rng, trace::TraceCollector* trace = nullptr);

  MeshNode(const MeshNode&) = delete;
  MeshNode& operator=(const MeshNode&) = delete;

  net::NodeId id() const { return radio_.nodeId(); }

  // Start periodic activities (probing). Call once before the run.
  void start();

  // --- roles --------------------------------------------------------------
  void joinGroup(net::GroupId group);
  void addCbrSource(const app::CbrConfig& config);

  // Fault injection (ProbeBlackhole): while active, incoming probes are
  // silently eaten before the neighbor table sees them — the node still
  // *sends* probes, so neighbors believe the link is fine while this
  // node's metric state quietly rots. Cleared by the injector.
  void setProbeBlackhole(bool active) { probeBlackhole_ = active; }
  bool probeBlackhole() const { return probeBlackhole_; }

  // Fault injection (MacQueueDrop): the MAC silently swallows every
  // outgoing payload at the queue entry while active.
  void setQueueDropFault(bool active) { mac_.setQueueDropFault(active); }

  // --- gateway support ------------------------------------------------
  // Observes every outbound broadcast (probes, control floods, data
  // forwards) before the MAC sees it. The gateway relay stages the packet
  // for re-emission on the node's foreign-domain ports. Null by default —
  // non-gateway nodes pay one branch per send.
  using GatewayTap = std::function<void(const net::PacketPtr&)>;
  void setGatewayTap(GatewayTap tap) { gatewayTap_ = std::move(tap); }

  // Entry point for frames the relay carried in from a foreign domain:
  // exactly the MAC-delivery dispatch, so probes feed the neighbor table
  // and control/data feed the protocol as if received locally. `from` is
  // the foreign-domain transmitter.
  void injectFromGateway(const net::PacketPtr& packet, net::NodeId from) {
    dispatch(packet, from);
  }

  // --- access ---------------------------------------------------------
  phy::Radio& radio() { return radio_; }
  mac::Mac80211& mac() { return mac_; }
  metrics::NeighborTable& neighborTable() { return table_; }
  metrics::ProbeService& probes() { return *probes_; }
  net::MulticastProtocol& protocol() { return *protocol_; }
  // Legacy accessor name (most call sites predate TreeMulticast).
  net::MulticastProtocol& odmrp() { return *protocol_; }
  app::MulticastSink& sink() { return sink_; }
  const app::CbrSource* cbr() const { return cbr_ ? cbr_.get() : nullptr; }
  const NodeByteCounters& byteCounters() const { return bytes_; }
  const metrics::Metric* metric() const { return metric_; }
  // Null when the node runs the legacy single-rate path.
  rate::RateController* rateController() { return rateController_.get(); }

  // Every layer's stats, for the per-run counter taxonomy (Counters).
  CounterSource counterSource() const {
    return {&radio_.stats(), &mac_.stats(), &protocol_->stats(),
            &probes_->stats(), &bytes_, &sink_};
  }

 private:
  void dispatch(const net::PacketPtr& packet, net::NodeId from);

  sim::Simulator& simulator_;
  const metrics::Metric* metric_;
  trace::TraceCollector* trace_;
  phy::Radio radio_;
  mac::Mac80211 mac_;
  metrics::NeighborTable table_;
  std::unique_ptr<rate::RateController> rateController_;
  bool rateAware_{false};  // controller present and not Fixed
  std::unique_ptr<metrics::ProbeService> probes_;
  std::unique_ptr<net::MulticastProtocol> protocol_;
  app::MulticastSink sink_;
  std::unique_ptr<app::CbrSource> cbr_;
  NodeByteCounters bytes_;
  bool probeBlackhole_{false};
  GatewayTap gatewayTap_;
};

}  // namespace mesh::harness
