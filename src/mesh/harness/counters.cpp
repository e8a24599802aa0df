#include "mesh/harness/counters.hpp"

#include <algorithm>
#include <array>

#include "mesh/trace/trace_event.hpp"

namespace mesh::harness {
namespace {

using trace::countedBy;
using trace::DropReason;
using trace::EventType;

template <auto Field>
std::uint64_t sumOf(const Counters& counters, std::size_t domain) {
  return counters.sum(Field, domain);
}

struct Row {
  std::string_view name;
  std::uint64_t (*sum)(const Counters&, std::size_t domain);
  bool rateAwareOnly{false};
};

// The taxonomy, strictly sorted by name: snapshot() walks it in order and
// value() binary-searches it. Rows that a trace's own records pin take
// their name from trace::kRecordCounts, which `meshtrace verify` checks.
constexpr std::array kTable{
    Row{countedBy(EventType::Deliver), sumOf<&app::MulticastSink::packetsReceived>},
    Row{"app.payload_bytes_delivered",
        sumOf<&app::MulticastSink::payloadBytesReceived>},
    Row{"app.probes_blackholed", sumOf<&NodeByteCounters::probesBlackholed>},
    Row{"app.rx_bytes.control", sumOf<&NodeByteCounters::controlBytesReceived>},
    Row{"app.rx_bytes.data", sumOf<&NodeByteCounters::dataBytesReceived>},
    Row{"app.rx_bytes.probe", sumOf<&NodeByteCounters::probeBytesReceived>},
    Row{"mac.ack_timeouts", sumOf<&mac::MacStats::ackTimeouts>},
    Row{"mac.broadcast_sent", sumOf<&mac::MacStats::broadcastSent>},
    Row{"mac.cts_timeouts", sumOf<&mac::MacStats::ctsTimeouts>},
    Row{"mac.delivered", sumOf<&mac::MacStats::delivered>},
    Row{"mac.dup_suppressed", sumOf<&mac::MacStats::dupSuppressed>},
    Row{countedBy(EventType::Enqueue), sumOf<&mac::MacStats::enqueued>},
    Row{"mac.queue_tail_drops", sumOf<&mac::MacStats::queueDrops>},
    Row{"mac.queue_tail_drops.control", sumOf<&mac::MacStats::queueDropsControl>},
    Row{"mac.queue_tail_drops.data", sumOf<&mac::MacStats::queueDropsData>},
    Row{"mac.queue_tail_drops.probe", sumOf<&mac::MacStats::queueDropsProbe>},
    Row{"mac.retries", sumOf<&mac::MacStats::retries>},
    Row{"mac.retry_drops", sumOf<&mac::MacStats::retryDrops>},
    Row{"mac.unicast_sent", sumOf<&mac::MacStats::unicastSent>},
    Row{"phy.bytes_delivered", sumOf<&phy::RadioStats::bytesDelivered>},
    Row{"phy.bytes_sent", sumOf<&phy::RadioStats::bytesSent>},
    Row{countedBy(EventType::Drop, DropReason::PhyBelowSensitivity),
        sumOf<&phy::RadioStats::framesBelowThreshold>},
    Row{countedBy(EventType::Drop, DropReason::PhyCollision),
        sumOf<&phy::RadioStats::framesCorrupted>},
    Row{"phy.frames_delivered", sumOf<&phy::RadioStats::framesDelivered>},
    Row{countedBy(EventType::Drop, DropReason::PhyRadioBusy),
        sumOf<&phy::RadioStats::framesMissedBusy>},
    Row{countedBy(EventType::Drop, DropReason::PhyRateDecode),
        sumOf<&phy::RadioStats::framesRateCorrupted>, /*rateAwareOnly=*/true},
    Row{countedBy(EventType::TxStart), sumOf<&phy::RadioStats::framesSent>},
    Row{"probe.bytes_received",
        sumOf<&metrics::ProbeServiceStats::probeBytesReceived>},
    Row{"probe.bytes_sent", sumOf<&metrics::ProbeServiceStats::probeBytesSent>},
    Row{"probe.received", sumOf<&metrics::ProbeServiceStats::probesReceived>},
    Row{"probe.sent", sumOf<&metrics::ProbeServiceStats::probesSent>},
    Row{"route.control_bytes_sent", sumOf<&net::ProtocolStats::controlBytesSent>},
    Row{"route.data_bytes_sent", sumOf<&net::ProtocolStats::dataBytesSent>},
    Row{"route.data_delivered", sumOf<&net::ProtocolStats::dataDelivered>},
    Row{"route.data_duplicates", sumOf<&net::ProtocolStats::dataDuplicates>},
    Row{"route.data_forwarded", sumOf<&net::ProtocolStats::dataForwarded>},
    Row{countedBy(EventType::PktBirth), sumOf<&net::ProtocolStats::dataOriginated>},
    Row{"route.duplicate_queries_forwarded",
        sumOf<&net::ProtocolStats::duplicateQueriesForwarded>},
    Row{"route.queries_dropped", sumOf<&net::ProtocolStats::queriesDropped>},
    Row{"route.queries_forwarded", sumOf<&net::ProtocolStats::queriesForwarded>},
    Row{"route.queries_originated", sumOf<&net::ProtocolStats::queriesOriginated>},
    Row{"route.replies_forwarded", sumOf<&net::ProtocolStats::repliesForwarded>},
    Row{"route.replies_originated", sumOf<&net::ProtocolStats::repliesOriginated>},
    Row{"route.route_established", sumOf<&net::ProtocolStats::routeEstablished>},
};

// An empty name (a countedBy() miss) sorts first, so it breaks the order.
static_assert(std::adjacent_find(kTable.begin(), kTable.end(),
                                 [](const Row& a, const Row& b) {
                                   return a.name >= b.name;
                                 }) == kTable.end() &&
                  !kTable.front().name.empty(),
              "counter table must be strictly sorted by name");

}  // namespace

std::uint64_t Counters::value(std::string_view name, std::size_t domain) const {
  const auto it = std::lower_bound(
      kTable.begin(), kTable.end(), name,
      [](const Row& row, std::string_view key) { return row.name < key; });
  if (it == kTable.end() || it->name != name) return 0;
  if (it->rateAwareOnly && !rateAware_) return 0;
  return it->sum(*this, domain);
}

std::vector<std::pair<std::string, std::uint64_t>> Counters::snapshot() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const Row& row : kTable) {
    if (row.rateAwareOnly && !rateAware_) continue;
    out.emplace_back(row.name, row.sum(*this, kAllDomains));
  }
  return out;
}

}  // namespace mesh::harness
