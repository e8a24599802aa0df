#pragma once
// GatewayRelay: barrier-synced frame handoff between collision domains.
//
// A gateway node's full protocol stack (routing, metrics, app) lives in its
// home domain; for every foreign domain it owns a *port* — an extra
// Radio+Mac80211 pair constructed against that domain's simulator and
// attached to its channel. Ports make the node audible on every channel;
// the relay carries frames between the node's home stack and its ports.
//
// Determinism contract. Domains run in lock-step epochs under the
// DomainScheduler; a frame emitted in epoch e on domain A may only affect
// domain B from the next epoch on. Both directions therefore *stage*:
//
//  * outbound — the home MeshNode's send tap fires on the home domain's
//    worker thread and appends to a per-source-domain staging lane;
//  * inbound  — a port MAC's rx callback fires on the port domain's worker
//    thread and appends to that domain's lane.
//
// Lanes are strictly thread-confined between barriers (one writer each).
// At each scheduler barrier — all workers joined, every domain clock at
// the barrier time — drainAtBarrier() merges the lanes in (capture time,
// source domain, sequence) order and injects each frame into its
// destination domain(s). That total order is a pure function of the
// simulation, never of the worker count, so gateway runs are byte-identical
// across `domain_workers` — the same argument as the scheduler itself.
//
// Pool discipline. Packets are slab-allocated from per-domain pools with
// non-atomic refcounts (safe only because a packet never leaves its
// domain). A frame crossing domains is therefore REBUILT — byte-copied via
// Packet::make into the destination domain's pool (preserving kind,
// origin, creation time and rate hint; fresh uid) — never shared. The
// barrier thread briefly installs the destination pool around each
// injection because barrier callbacks run outside any Simulator run scope.
//
// Tracing. Each injection emits a GatewayHandoff record into the
// destination collector carrying the source domain and source-local pid,
// emitted before the rebuilt copy's first other record; the merged export
// uses it to alias the rebuilt pid back to the original packet, so a
// delivery two channels away still pairs with its birth record.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mesh/common/rng.hpp"
#include "mesh/common/simtime.hpp"
#include "mesh/mac/mac80211.hpp"
#include "mesh/net/addr.hpp"
#include "mesh/net/packet.hpp"
#include "mesh/net/pool.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/phy/radio.hpp"
#include "mesh/sim/simulator.hpp"
#include "mesh/trace/trace_collector.hpp"

namespace mesh::gateway {

// Per-gateway lifetime counters, surfaced through RunResults and the
// runner JSONL (`gw<id>_handoff`, `gw<id>_residual`).
struct GatewayCounters {
  net::NodeId node{0};
  std::uint64_t captured{0};  // frames staged at the relay, either direction
  std::uint64_t injected{0};  // copies rebuilt+injected across a boundary
  std::uint64_t residual{0};  // staged but still undrained at run end
};

class GatewayRelay {
 public:
  struct DomainContext {
    sim::Simulator* sim{nullptr};
    phy::Channel* channel{nullptr};
    net::PacketPool* pool{nullptr};        // null when pooling is disabled
    trace::TraceCollector* trace{nullptr}; // null when tracing is off
  };
  // Hands an inbound (port -> home stack) frame to the gateway's dispatch
  // layer; `from` is the foreign-domain transmitter.
  using InjectFn =
      std::function<void(const net::PacketPtr& packet, net::NodeId from)>;

  explicit GatewayRelay(std::vector<DomainContext> domains);

  // Registers `node` (home domain `home`) as a gateway: one port per
  // foreign domain, in ascending domain order (part of the deterministic
  // channel attach order). Must run before any domain transmits — channel
  // attach closes at the first reachability build. Returns the gateway's
  // index for captureOutbound.
  std::size_t addGateway(net::NodeId node, std::size_t home,
                         const phy::PhyParams& phyParams,
                         const mac::MacParams& macParams, Rng rng,
                         InjectFn inject);

  // Stages one outbound broadcast from the gateway's home stack. Runs on
  // the home domain's worker thread.
  void captureOutbound(std::size_t gatewayIndex, const net::PacketPtr& packet);

  // Drains every staging lane in (capture time, source domain, seq) order
  // and injects the frames. Must run on a DomainScheduler barrier (workers
  // joined, all domain clocks at the barrier time).
  void drainAtBarrier();

  // Calls fn(domain, radio stats, MAC stats) for every port. Per-channel
  // frame accounting must include port traffic or the counters disagree
  // with the channel-tagged trace records.
  template <class Fn>
  void forEachPort(Fn&& fn) const {
    for (const Gateway& gw : gateways_) {
      for (const Port& port : gw.ports) {
        fn(port.domain, port.radio->stats(), port.mac->stats());
      }
    }
  }

  std::size_t gatewayCount() const { return gateways_.size(); }
  std::uint64_t totalInjected() const;
  // Snapshot with `residual` filled from the still-staged lanes.
  std::vector<GatewayCounters> counters() const;

 private:
  struct Port {
    std::size_t domain{0};
    std::unique_ptr<phy::Radio> radio;
    std::unique_ptr<mac::Mac80211> mac;
  };
  struct Gateway {
    net::NodeId node{0};
    std::size_t home{0};
    InjectFn inject;
    std::vector<Port> ports;  // ascending foreign-domain order
    GatewayCounters counters;
  };
  struct Staged {
    SimTime at{SimTime::zero()};  // capture time, source domain's clock
    std::uint64_t seq{0};         // per-source-domain arrival counter
    std::uint32_t gateway{0};
    std::uint32_t srcDomain{0};
    bool inbound{false};  // true: port -> home stack; false: home -> ports
    net::NodeId from{net::kInvalidNode};  // transmitter (inbound only)
    net::PacketPtr packet;
  };

  void captureInbound(std::size_t gatewayIndex, std::size_t domain,
                      const net::PacketPtr& packet, net::NodeId from);
  void injectStaged(const Staged& staged);
  void injectInto(Gateway& gateway, std::size_t dst, const Staged& staged,
                  std::uint32_t srcPid, Port* port);

  std::vector<DomainContext> domains_;
  std::vector<Gateway> gateways_;
  // One staging lane + sequence counter per source domain; single writer
  // (that domain's worker) between barriers, drained on the barrier thread.
  std::vector<std::vector<Staged>> staged_;
  std::vector<std::uint64_t> seq_;
  std::vector<Staged> drain_;  // barrier-merge scratch
};

}  // namespace mesh::gateway
