#pragma once
// TopologySnapshot: the immutable, protocol-independent world of one
// topology seed, built once and shared across sweep runs (DESIGN §14).
//
// Every (seed, protocol) cell of a comparison sweep rebuilds the same
// world before diverging on protocol state: node placement, the frozen
// per-pair link rows (16-byte Channel::CachedLink {meanPowerW,
// propagationNs, rxIndex}, found through the spatial grid), the
// channel-plan domain assignment and the gateway roster are all pure
// functions of the topology-relevant config subset. This struct freezes
// exactly that subset's outputs behind shared_ptr-to-const so concurrent
// runs adopt it without copying:
//
//   Simulation a{config};                    // builds the world
//   auto snap = a.captureSnapshot();         // freezes it (zero-copy)
//   Simulation b{config2, snap};             // adopts it (same topology
//                                            // keys, any protocol)
//
// Sharing is safe because nothing writes a row once it is built: a fault
// run skips its failed radios at transmit time and layers loss overrides
// over the rows, so sibling runs can never observe each other.
// Eligibility (harness::snapshotEligible) is the
// static-geometry subset: no mobility, no custom link-model factory.

#include <memory>
#include <vector>

#include "mesh/channelplan/channel_plan.hpp"
#include "mesh/common/vec2.hpp"
#include "mesh/gateway/gateway_set.hpp"
#include "mesh/phy/channel.hpp"

namespace mesh::harness {

struct TopologySnapshot {
  std::vector<Vec2> positions;     // node id -> placement
  channelplan::ChannelPlan plan;   // node id -> collision domain
  gateway::GatewaySet gatewaySet;  // empty unless gateways configured
  // One frozen row table per collision domain, in channel order
  // (size 1 on a single-channel run). Rows include gateway port radios,
  // which attach after the domain's own nodes.
  std::vector<std::shared_ptr<const phy::Channel::ReachSnapshot>> reach;
};

using TopologySnapshotPtr = std::shared_ptr<const TopologySnapshot>;

}  // namespace mesh::harness
