#include "mesh/gateway/gateway_relay.hpp"

#include <algorithm>
#include <utility>

#include "mesh/common/assert.hpp"

namespace mesh::gateway {

GatewayRelay::GatewayRelay(std::vector<DomainContext> domains)
    : domains_{std::move(domains)},
      staged_(domains_.size()),
      seq_(domains_.size(), 0) {
  MESH_REQUIRE(domains_.size() >= 2);
  for (const DomainContext& ctx : domains_) {
    MESH_REQUIRE(ctx.sim != nullptr && ctx.channel != nullptr);
  }
}

std::size_t GatewayRelay::addGateway(net::NodeId node, std::size_t home,
                                     const phy::PhyParams& phyParams,
                                     const mac::MacParams& macParams, Rng rng,
                                     InjectFn inject) {
  MESH_REQUIRE(home < domains_.size());
  const std::size_t index = gateways_.size();
  gateways_.emplace_back();
  Gateway& gw = gateways_.back();
  gw.node = node;
  gw.home = home;
  gw.inject = std::move(inject);
  gw.counters.node = node;
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    if (d == home) continue;
    Port port;
    port.domain = d;
    port.radio =
        std::make_unique<phy::Radio>(*domains_[d].sim, node, phyParams);
    port.radio->setTrace(domains_[d].trace);
    domains_[d].channel->attach(*port.radio);
    port.mac = std::make_unique<mac::Mac80211>(*domains_[d].sim, *port.radio,
                                               macParams, rng.fork("port", d));
    port.mac->setTrace(domains_[d].trace);
    port.mac->setReceiveCallback(
        [this, index, d](const net::PacketPtr& payload, net::NodeId from) {
          captureInbound(index, d, payload, from);
        });
    gw.ports.push_back(std::move(port));
  }
  return index;
}

void GatewayRelay::captureOutbound(std::size_t gatewayIndex,
                                   const net::PacketPtr& packet) {
  Gateway& gw = gateways_[gatewayIndex];
  if (gw.ports.empty() || packet == nullptr) return;
  const std::size_t src = gw.home;
  Staged staged;
  staged.at = domains_[src].sim->now();
  staged.seq = seq_[src]++;
  staged.gateway = static_cast<std::uint32_t>(gatewayIndex);
  staged.srcDomain = static_cast<std::uint32_t>(src);
  staged.inbound = false;
  staged.packet = packet;
  staged_[src].push_back(std::move(staged));
}

void GatewayRelay::captureInbound(std::size_t gatewayIndex, std::size_t domain,
                                  const net::PacketPtr& packet,
                                  net::NodeId from) {
  if (packet == nullptr) return;
  Staged staged;
  staged.at = domains_[domain].sim->now();
  staged.seq = seq_[domain]++;
  staged.gateway = static_cast<std::uint32_t>(gatewayIndex);
  staged.srcDomain = static_cast<std::uint32_t>(domain);
  staged.inbound = true;
  staged.from = from;
  staged.packet = packet;
  staged_[domain].push_back(std::move(staged));
}

void GatewayRelay::drainAtBarrier() {
  drain_.clear();
  for (std::vector<Staged>& lane : staged_) {
    for (Staged& staged : lane) drain_.push_back(std::move(staged));
    lane.clear();
  }
  if (drain_.empty()) return;
  // Per-gateway capture counts are tallied here rather than in the capture
  // callbacks: a gateway's home tap and its foreign-domain ports run on
  // different domain worker threads, so incrementing the shared counter at
  // capture time would race. The barrier thread sees every staged frame
  // exactly once (frames never drained show up as residual in counters()),
  // so the totals are identical.
  for (const Staged& staged : drain_) {
    ++gateways_[staged.gateway].counters.captured;
  }
  // Each lane is already (at, seq)-sorted (domain clocks are monotone);
  // the global order is the documented (time, domain, seq) merge.
  std::sort(drain_.begin(), drain_.end(),
            [](const Staged& a, const Staged& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.srcDomain != b.srcDomain) return a.srcDomain < b.srcDomain;
              return a.seq < b.seq;
            });
  for (const Staged& staged : drain_) injectStaged(staged);
  // Injections may have re-staged frames (a relayed packet the home stack
  // forwards on); those stay queued for the next barrier. Release the
  // drained packets back to their source pools now, on the barrier thread
  // (workers joined, so the non-atomic refcounts are safe).
  drain_.clear();
}

void GatewayRelay::injectStaged(const Staged& staged) {
  Gateway& gw = gateways_[staged.gateway];
  const DomainContext& src = domains_[staged.srcDomain];
  const std::uint32_t srcPid =
      src.trace != nullptr ? src.trace->pidFor(*staged.packet) : 0;
  if (staged.inbound) {
    injectInto(gw, gw.home, staged, srcPid, nullptr);
  } else {
    for (Port& port : gw.ports) {
      injectInto(gw, port.domain, staged, srcPid, &port);
    }
  }
}

void GatewayRelay::injectInto(Gateway& gateway, std::size_t dst,
                              const Staged& staged, std::uint32_t srcPid,
                              Port* port) {
  const DomainContext& ctx = domains_[dst];
  // Barrier callbacks run outside any Simulator run scope, so install the
  // destination pool explicitly: the rebuild below and anything the
  // injection triggers synchronously (a MAC with immediate channel access
  // serializes a PHY frame; the home stack may forward) must allocate from
  // the destination domain's slabs.
  net::PacketPool* prev = nullptr;
  if (ctx.pool != nullptr) prev = net::PacketPool::setCurrent(ctx.pool);
  {
    const net::Packet& pkt = *staged.packet;
    net::PacketPtr rebuilt = net::Packet::make(
        pkt.kind(), pkt.origin(), pkt.bytes(), pkt.createdAt(), pkt.rateHint());
    if (ctx.trace != nullptr) {
      ctx.trace->gatewayHandoff(ctx.sim->now(), gateway.node, *rebuilt,
                                static_cast<std::uint8_t>(staged.srcDomain),
                                srcPid);
    }
    if (port != nullptr) {
      port->mac->send(std::move(rebuilt), net::kBroadcastNode);
    } else {
      gateway.inject(rebuilt, staged.from);
    }
    ++gateway.counters.injected;
  }
  if (ctx.pool != nullptr) net::PacketPool::setCurrent(prev);
}

std::uint64_t GatewayRelay::totalInjected() const {
  std::uint64_t total = 0;
  for (const Gateway& gw : gateways_) total += gw.counters.injected;
  return total;
}

std::vector<GatewayCounters> GatewayRelay::counters() const {
  std::vector<GatewayCounters> out;
  out.reserve(gateways_.size());
  for (const Gateway& gw : gateways_) out.push_back(gw.counters);
  for (const std::vector<Staged>& lane : staged_) {
    for (const Staged& staged : lane) {
      // Still-staged frames were captured but never drained, so they are
      // counted into both totals here (drained frames were counted at the
      // barrier).
      ++out[staged.gateway].captured;
      ++out[staged.gateway].residual;
    }
  }
  return out;
}

}  // namespace mesh::gateway
