#pragma once
// Probe packet wire format.
//
// All metrics measure links with periodic *broadcast* probes (Section 2.2:
// "All metrics involve sending periodic probes from a node to each of its
// neighbors" — adapted to broadcast so the measurement exercises exactly
// the transmission mode the data will use).
//
//  * Single probes (ETX, METX, SPP): one small packet per interval.
//  * Packet pairs (PP, ETT): a small probe immediately followed by a large
//    one; the receiver's small→large inter-arrival gives a delay sample
//    (PP) and a bandwidth estimate (ETT), and the small probes double as
//    the loss-rate stream for ETT's ETX factor.
//
// Sizes follow the packet-pair literature (137 B small, 1137 B large);
// they are what produce the Table 1 overhead ratios.

#include <cstdint>
#include <optional>
#include <vector>

#include "mesh/common/simtime.hpp"
#include "mesh/net/addr.hpp"
#include "mesh/net/buffer.hpp"
#include "mesh/net/packet.hpp"
#include "mesh/rate/rate_controller.hpp"

namespace mesh::metrics {

enum class ProbeType : std::uint8_t { Single = 0, PairSmall = 1, PairLarge = 2 };

inline constexpr std::size_t kSmallProbeBytes = 137;
inline constexpr std::size_t kLargeProbeBytes = 1137;

// One entry of a probe's neighbor report: "I heard `neighbor` with forward
// delivery ratio df". This is the De Couto mechanism that tells a neighbor
// its *reverse* link quality — required by unicast-style bidirectional
// metrics (BiETX), deliberately unused by the paper's multicast metrics
// (Section 2.1: broadcast success depends on the forward direction only).
struct ReportEntry {
  net::NodeId neighbor{net::kInvalidNode};
  std::uint8_t dfQuantized{0};  // df × 255, rounded

  static std::uint8_t quantize(double df);
  double df() const { return dfQuantized / 255.0; }
};

struct ProbeMessage {
  ProbeMessage() = default;
  // A bare probe: no neighbor report, no rate-adaptation extension.
  ProbeMessage(ProbeType probeType, net::NodeId from, std::uint32_t sequence)
      : type{probeType}, sender{from}, seq{sequence} {}

  ProbeType type{ProbeType::Single};
  net::NodeId sender{net::kInvalidNode};
  std::uint32_t seq{0};
  std::vector<ReportEntry> report;  // empty unless neighbor reports are on

  // Rate-adaptation extension (Minstrel), absent on the wire when txCode
  // is 0 — legacy probes serialize byte-identically. `txCode` is the
  // RateTable code this probe is transmitted at, `perRateSeq` the sender's
  // per-rate sequence number (receivers infer per-rate losses from gaps),
  // and `rateReport` echoes measured per-(neighbor, rate) delivery
  // fractions back to the senders that probed us.
  std::uint8_t txCode{0};
  std::uint32_t perRateSeq{0};
  std::vector<rate::RateFeedbackEntry> rateReport;

  // Serialized size: fields (+ report) padded up to the nominal probe
  // size; a large report can grow the probe beyond it, costing airtime —
  // the realistic price of bidirectional measurement.
  std::size_t wireBytes() const {
    std::size_t n = 8 + report.size() * 3;
    if (txCode != 0) n += 7 + rateReport.size() * 4;
    const std::size_t target =
        type == ProbeType::PairLarge ? kLargeProbeBytes : kSmallProbeBytes;
    return n > target ? n : target;
  }
  // Emits exactly wireBytes() into a fresh writer (growable or fixed).
  void writeTo(net::ByteWriter& w) const;
  std::vector<std::uint8_t> serialize() const;
  static std::optional<ProbeMessage> parse(std::span<const std::uint8_t> bytes);
  // Decode-once: all receivers of one probe broadcast share a single parse
  // through the packet's view cache.
  static const ProbeMessage* decode(const net::Packet& p) {
    return p.view<ProbeMessage>(
        [](std::span<const std::uint8_t> b) { return parse(b); });
  }

  net::PacketPtr toPacket(SimTime now) const {
    // txCode doubles as the MAC rate hint: the embedded code must match
    // the rate the frame actually flies at.
    return net::Packet::build(net::PacketKind::Probe, sender, wireBytes(), now,
                              txCode,
                              [this](net::ByteWriter& w) { writeTo(w); });
  }
};

}  // namespace mesh::metrics
