#pragma once
// Addressing primitives.
//
// Nodes are identified by a dense 16-bit id (the testbed's IP addresses and
// Glomosim's node numbers both map onto this). Multicast groups get their
// own id space, mirroring the class-D addresses the odmrpd daemon keys on.

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mesh::net {

using NodeId = std::uint16_t;
using GroupId = std::uint16_t;

inline constexpr NodeId kBroadcastNode = 0xFFFF;
inline constexpr NodeId kInvalidNode = 0xFFFE;
// Ids 0..kMaxNodes-1 are usable; the two above them are reserved.
inline constexpr std::size_t kMaxNodes = kInvalidNode;

// A directed link (transmitter -> receiver); hashable for neighbor tables.
struct LinkKey {
  NodeId from{kInvalidNode};
  NodeId to{kInvalidNode};
  friend constexpr bool operator==(LinkKey, LinkKey) = default;
};

struct LinkKeyHash {
  std::size_t operator()(LinkKey k) const {
    return std::hash<std::uint32_t>{}(
        (static_cast<std::uint32_t>(k.from) << 16) | k.to);
  }
};

}  // namespace mesh::net
