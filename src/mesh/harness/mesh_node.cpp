#include "mesh/harness/mesh_node.hpp"

#include <cmath>

namespace mesh::harness {
namespace {

metrics::ProbeConfig probeConfigFor(const metrics::Metric* metric) {
  return metric != nullptr ? metric->probeConfig() : metrics::ProbeConfig{};
}

SimTime effectiveProbeInterval(const metrics::Metric* metric, double rateScale) {
  const metrics::ProbeConfig config = probeConfigFor(metric);
  if (config.mode == metrics::ProbeMode::None) {
    return SimTime::seconds(std::int64_t{5});  // placeholder; table unused
  }
  return config.interval.scaled(1.0 / rateScale);
}

}  // namespace

MeshNode::MeshNode(sim::Simulator& simulator, phy::Channel& channel,
                   net::NodeId id, const MeshNodeConfig& config,
                   const metrics::Metric* metric, Rng rng,
                   trace::TraceCollector* trace)
    : simulator_{simulator},
      metric_{metric},
      trace_{trace},
      radio_{simulator, id, config.phy},
      mac_{simulator, radio_, config.mac, rng.fork("mac")},
      table_{effectiveProbeInterval(metric, config.probeRateScale),
             probeConfigFor(metric).lossWindow == 0
                 ? 10
                 : probeConfigFor(metric).lossWindow},
      sink_{simulator} {
  const auto send = [this](net::PacketPtr packet) {
    if (gatewayTap_) gatewayTap_(packet);
    mac_.send(std::move(packet), net::kBroadcastNode);
  };
  const metrics::NeighborTable* neighbors = metric != nullptr ? &table_ : nullptr;
  if (config.treeRouting) {
    protocol_ = std::make_unique<maodv::TreeMulticast>(
        simulator, id, config.tree, metric, neighbors, send, rng.fork("tree"));
  } else {
    protocol_ = std::make_unique<odmrp::Odmrp>(
        simulator, id, config.odmrp, metric, neighbors, send, rng.fork("odmrp"));
  }
  channel.attach(radio_);
  if (config.rateTable != nullptr) {
    switch (config.rateControl) {
      case rate::ControlKind::Fixed:
        rateController_ =
            std::make_unique<rate::FixedRateController>(*config.rateTable);
        break;
      case rate::ControlKind::Minstrel:
        rateController_ =
            std::make_unique<rate::MinstrelController>(*config.rateTable);
        break;
      case rate::ControlKind::Genie: {
        // The oracle reads mean SNR straight from the channel's propagation
        // model. Lazy (called at first rate decision, after every radio has
        // attached), and never on the per-frame path.
        phy::Channel* ch = &channel;
        const net::NodeId self = id;
        const auto snrDbTo = [ch, self](net::NodeId to) {
          const phy::Radio* rx = ch->findRadio(to);
          if (rx == nullptr) return -300.0;
          const double meanW = ch->linkModel().meanRxPowerW(self, to);
          if (meanW <= 0.0) return -300.0;
          return 10.0 * std::log10(meanW / rx->params().noiseFloorW);
        };
        const auto neighborSnrs = [ch, self, snrDbTo] {
          std::vector<std::pair<net::NodeId, double>> out;
          for (const phy::Radio* rx : ch->radios()) {
            if (rx->nodeId() == self) continue;
            const double meanW =
                ch->linkModel().meanRxPowerW(self, rx->nodeId());
            if (meanW < rx->params().rxThresholdW) continue;
            out.emplace_back(rx->nodeId(), snrDbTo(rx->nodeId()));
          }
          return out;
        };
        rateController_ = std::make_unique<rate::GenieController>(
            *config.rateTable, neighborSnrs, snrDbTo);
        break;
      }
    }
    rateAware_ = config.rateControl != rate::ControlKind::Fixed;
    mac_.setRateControl(rateController_.get(), config.rateTable);
  }
  probes_ = std::make_unique<metrics::ProbeService>(
      simulator, id, probeConfigFor(metric), config.probeRateScale, table_,
      [this](net::PacketPtr packet) {
        if (gatewayTap_) gatewayTap_(packet);
        mac_.send(std::move(packet), net::kBroadcastNode);
      },
      rng.fork("probes"), config.adaptiveProbing,
      [this] { return radio_.busyTime(); });
  // Only adaptive controllers ride the probe stream; Fixed stamps nothing,
  // which keeps fixed-mode probe bytes identical to the legacy format.
  if (rateController_ != nullptr && rateAware_) {
    probes_->setRateController(rateController_.get());
  }
  mac_.setReceiveCallback(
      [this](const net::PacketPtr& packet, net::NodeId from) {
        dispatch(packet, from);
      });
  protocol_->setDeliverCallback(
      [this](net::GroupId group, net::NodeId source, std::uint32_t seq,
             const net::PacketPtr& packet, std::span<const std::uint8_t> payload) {
        sink_.onDeliver(group, source, seq, packet, payload);
      });
  if (trace_ != nullptr) {
    radio_.setTrace(trace_);
    mac_.setTrace(trace_);
    protocol_->setTrace(trace_);
    probes_->setTrace(trace_);
    sink_.setTrace(trace_, id);
  }
}

void MeshNode::start() { probes_->start(); }

void MeshNode::joinGroup(net::GroupId group) { protocol_->joinGroup(group); }

void MeshNode::addCbrSource(const app::CbrConfig& config) {
  MESH_REQUIRE(cbr_ == nullptr);  // one CBR flow per node, like the paper
  cbr_ = std::make_unique<app::CbrSource>(simulator_, *protocol_, config,
                                          Rng{radio_.nodeId()}.fork("cbr"));
  cbr_->start();
}

void MeshNode::dispatch(const net::PacketPtr& packet, net::NodeId from) {
  switch (packet->kind()) {
    case net::PacketKind::Probe:
      if (probeBlackhole_) {
        ++bytes_.probesBlackholed;
        if (trace_ != nullptr) {
          trace_->drop(simulator_.now(), id(), packet.get(), packet->kind(),
                       static_cast<std::uint32_t>(packet->sizeBytes()),
                       trace::DropReason::FaultProbeBlackhole);
        }
        break;
      }
      bytes_.probeBytesReceived += packet->sizeBytes();
      if (trace_ != nullptr) {
        trace_->probeRx(simulator_.now(), id(), *packet);
      }
      probes_->onPacket(packet, simulator_.now());
      break;
    case net::PacketKind::Control:
      bytes_.controlBytesReceived += packet->sizeBytes();
      if (trace_ != nullptr) trace_->rxOk(simulator_.now(), id(), *packet);
      protocol_->onPacket(packet, from);
      break;
    case net::PacketKind::Data:
      bytes_.dataBytesReceived += packet->sizeBytes();
      if (trace_ != nullptr) trace_->rxOk(simulator_.now(), id(), *packet);
      protocol_->onPacket(packet, from);
      break;
    case net::PacketKind::MacControl:
      break;  // never reaches the dispatch layer
  }
}

}  // namespace mesh::harness
