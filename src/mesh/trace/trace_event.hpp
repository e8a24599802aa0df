#pragma once
// Packet-lifecycle trace records.
//
// Every paper claim (Fig. 2 throughput/delay, Table 1 overhead) reduces to
// per-packet lifecycle facts: where a CBR packet was born, which hops
// forwarded it, and why each copy died. A TraceRecord is one such fact —
// typed, timestamped, and small enough (32 bytes, fixed layout) that a
// full 400 s paper run can be buffered or spilled to disk and replayed by
// `meshtrace` to recompute the headline metrics independently of the
// harness counters.
//
// Drop records always carry an explicit DropReason: an audited simulation
// must never lose a packet copy for an "unknown" reason.

#include <array>
#include <cstdint>
#include <string_view>

#include "mesh/common/simtime.hpp"
#include "mesh/net/addr.hpp"
#include "mesh/net/packet.hpp"

namespace mesh::trace {

enum class EventType : std::uint8_t {
  PktBirth = 0,    // CBR payload created at the source (protocol sendData)
  Enqueue = 1,     // accepted into the MAC transmit queue
  TxStart = 2,     // first energy on the air (radio)
  TxEnd = 3,       // last energy on the air (radio)
  RxOk = 4,        // control/data packet handed to the node's dispatch layer
  Drop = 5,        // a copy died; reason says where and why
  Forward = 6,     // forwarding-group / tree node rebroadcast a data packet
  Deliver = 7,     // payload handed to a member's application sink
  ProbeTx = 8,     // metric probe sent (single or packet-pair half)
  ProbeRx = 9,     // metric probe received at the dispatch layer
  MemberJoin = 10, // node joined a multicast group (build time)
  FaultInject = 11, // fault subsystem applied a fault (node/link/noise)
  FaultClear = 12,  // fault subsystem cleared a fault (recover/restore)
  GatewayHandoff = 13, // frame rebuilt across a domain boundary at a gateway
};

enum class DropReason : std::uint8_t {
  Unknown = 0,
  // MAC layer.
  MacQueueTail = 1,        // transmit-queue overflow, dropped at the tail
  MacRetryExhausted = 2,   // unicast gave up after the retry limit (ACK stage)
  MacCtsTimeout = 3,       // unicast gave up after the retry limit (RTS stage)
  // PHY layer.
  PhyCollision = 4,        // locked frame's SINR dipped below capture
  PhyBelowSensitivity = 5, // energy sensed but never decodable
  PhyRadioBusy = 6,        // decodable but radio was transmitting/locked
  // Routing layer.
  RouteDupSuppress = 7,    // duplicate-cache hit (data or original-ODMRP query)
  RouteTtlExpired = 8,     // JOIN QUERY exceeded the hop limit
  RouteStaleRound = 9,     // query from a superseded flood round
  RouteAlphaExpired = 10,  // improving duplicate query outside the α window
  RouteWorseCost = 11,     // duplicate query that did not improve the path
  RouteNoRoute = 12,       // member had no upstream to answer a query round
  // Fault-injection subsystem (src/mesh/fault).
  FaultNodeDown = 13,      // frame hit a crashed node's radio (tx or rx)
  FaultLinkDown = 14,      // delivery suppressed by a link blackout/loss ramp
  FaultProbeBlackhole = 15,// probe swallowed by an injected probe blackhole
  // Rate subsystem (src/mesh/rate).
  PhyRateDecode = 16,      // frame failed the per-rate SNR→PER draw
  // MAC-layer fault injection.
  FaultMacQueueDrop = 17,  // injected queue-drop fault swallowed the frame
};

// What a FaultInject/FaultClear record describes. Lives here (not in
// mesh/fault) because the trace layer owns every record vocabulary, the
// same way DropReason does.
enum class FaultKind : std::uint8_t {
  NodeCrash = 0,         // radio powered off (recover = powered back on)
  LinkBlackout = 1,      // directed pair loss forced to 1.0
  LossRamp = 2,          // pair loss ramped 0 -> target over the window
  InterferenceBurst = 3, // extra in-band power injected at a radio
  ProbeBlackhole = 4,    // node silently swallows received probes
  MacQueueDrop = 5,      // node's MAC silently drops frames at enqueue
};

// Counters whose exported value a trace's own records fix exactly: the
// value equals the number of `type` records (with `reason`, for drops).
// summarizeTrace checks every such counter line a trace carries. The
// counter table (harness/counters.cpp) names these rows through
// countedBy(), so each counter name is spelled once.
struct RecordCount {
  std::string_view counter;
  EventType type;
  DropReason reason{DropReason::Unknown};
};
inline constexpr std::array kRecordCounts{
    RecordCount{"app.packets_delivered", EventType::Deliver},
    RecordCount{"mac.enqueued", EventType::Enqueue},
    RecordCount{"phy.frames_below_threshold", EventType::Drop,
                DropReason::PhyBelowSensitivity},
    RecordCount{"phy.frames_corrupted", EventType::Drop,
                DropReason::PhyCollision},
    RecordCount{"phy.frames_missed_busy", EventType::Drop,
                DropReason::PhyRadioBusy},
    RecordCount{"phy.frames_rate_corrupted", EventType::Drop,
                DropReason::PhyRateDecode},
    RecordCount{"phy.frames_sent", EventType::TxStart},
    RecordCount{"route.data_originated", EventType::PktBirth},
};

// The counter that counts `type` records (of `reason`); empty when none.
constexpr std::string_view countedBy(EventType type,
                                     DropReason reason = DropReason::Unknown) {
  for (const RecordCount& count : kRecordCounts) {
    if (count.type == type && count.reason == reason) return count.counter;
  }
  return {};
}

const char* toString(EventType type);
const char* toString(DropReason reason);
const char* toString(FaultKind kind);
// Returns false when `text` names no known value.
bool eventTypeFromString(const char* text, EventType& out);
bool dropReasonFromString(const char* text, DropReason& out);
bool faultKindFromString(const char* text, FaultKind& out);

// Fixed-layout binary record. `pid` is a per-trace dense packet id assigned
// in first-appearance order (not the process-global Packet uid, which is
// not deterministic under parallel sweeps); 0 means "no packet" (e.g. a
// MAC control frame or a routing decision with nothing on the wire).
struct TraceRecord {
  std::int64_t timeNs{0};
  std::uint32_t pid{0};
  std::uint32_t sizeBytes{0};
  net::NodeId node{0};
  net::NodeId origin{net::kInvalidNode};
  net::GroupId group{0};
  std::uint8_t type{0};    // EventType
  std::uint8_t kind{0};    // net::PacketKind
  std::uint8_t reason{0};  // DropReason (Drop), FaultKind (FaultInject/Clear),
                           // or source-domain index (GatewayHandoff)
  std::uint8_t rate{0};    // TxVector code on TxStart (0 = legacy/basic path)
  std::uint8_t channel{0}; // 1 + collision-domain index (0 = single-channel)
  std::uint8_t pad[5]{};   // explicit zero padding: spill files are memcpy'd
};
static_assert(sizeof(TraceRecord) == 32, "compact fixed-layout trace record");

}  // namespace mesh::trace
