#pragma once
// TraceCollector: the per-run sink for packet-lifecycle records.
//
// One collector serves one collision domain (one Simulation owns one
// collector per channel; each domain's event loop is single-threaded, so no
// locking). Components hold a cached `trace::TraceCollector*` that is null
// when tracing is off — every hook site compiles down to one pointer test,
// which the trace-overhead bench guards at <2% of the event loop.
// `exportMergedJsonl()` writes a run's per-domain collectors into one file,
// ordered by (time, channel index).
//
// Records buffer in memory as 32-byte PODs; past a threshold they spill to
// `<path>.spill` so paper-scale runs stay bounded. The export streams meta
// line + records + counter totals to a JSONL file and removes the spill. Packet uids (per-pool counters, so two domains can emit the same
// uid) are normalized to dense per-trace pids at record time, so the export
// bytes depend only on the run's seed.

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mesh/common/simtime.hpp"
#include "mesh/net/addr.hpp"
#include "mesh/net/packet.hpp"
#include "mesh/trace/trace_event.hpp"

namespace mesh::trace {

class TraceCollector {
 public:
  // ~32 MiB of buffered records before spilling to disk.
  static constexpr std::size_t kDefaultSpillThreshold = std::size_t{1} << 20;

  // `spillPath` empty disables spilling (everything stays in memory —
  // fine for tests; paper runs pass the export path so spill lands
  // alongside it).
  explicit TraceCollector(std::string spillPath = {},
                          std::size_t spillThreshold = kDefaultSpillThreshold);
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  // --- hot-path emitters (call sites guard on a cached non-null pointer) --
  void packetBirth(SimTime t, net::NodeId node, const net::Packet& pkt,
                   net::GroupId group);
  void memberJoin(SimTime t, net::NodeId node, net::GroupId group);
  void enqueue(SimTime t, net::NodeId node, const net::Packet& pkt);
  // `pkt` may be null for MAC control frames (RTS/CTS/ACK). `rate` is the
  // frame's TxVector code (0 = legacy/basic path, omitted from the JSONL).
  void txStart(SimTime t, net::NodeId node, const net::Packet* pkt,
               std::uint32_t frameBytes, std::uint8_t rate = 0);
  void txEnd(SimTime t, net::NodeId node, const net::Packet* pkt,
             std::uint32_t frameBytes);
  void rxOk(SimTime t, net::NodeId node, const net::Packet& pkt);
  void probeTx(SimTime t, net::NodeId node, const net::Packet& pkt);
  void probeRx(SimTime t, net::NodeId node, const net::Packet& pkt);
  void forward(SimTime t, net::NodeId node, const net::Packet& pkt);
  void deliver(SimTime t, net::NodeId node, const net::Packet& pkt,
               std::uint32_t payloadBytes, net::NodeId source,
               net::GroupId group);
  void drop(SimTime t, net::NodeId node, const net::Packet* pkt,
            net::PacketKind kind, std::uint32_t sizeBytes, DropReason reason);
  // Fault subsystem: `type` is FaultInject or FaultClear; `peer` is the
  // second link endpoint for link faults (kInvalidNode otherwise).
  // `lossRate` (LossRamp) and `powerDbm` (InterferenceBurst) are recorded
  // on inject events only — they make the trace a complete fault timeline
  // that `meshtrace faults` can turn back into a [faults] config section.
  void faultEvent(SimTime t, EventType type, FaultKind kind, net::NodeId node,
                  net::NodeId peer, double lossRate = 0.0,
                  double powerDbm = 0.0);
  // Gateway handoff: `rebuilt` is the copy just built into THIS collector's
  // domain; `srcDomain`/`srcPid` identify the original packet in the source
  // domain's collector. Emitted before the rebuilt copy's first other
  // record, so `exportMergedJsonl` can alias the rebuilt pid to the
  // original's merged pid — cross-domain deliveries keep the birth pid.
  void gatewayHandoff(SimTime t, net::NodeId gateway, const net::Packet& rebuilt,
                      std::uint8_t srcDomain, std::uint32_t srcPid);

  // Public pid lookup (assigning on first sight, like every emitter): the
  // gateway relay uses it to capture a packet's source-domain pid before
  // rebuilding it into the destination domain.
  std::uint32_t pidFor(const net::Packet& pkt) { return pidOf(pkt); }

  std::uint64_t recordCount() const { return total_; }

  // Collision-domain tag stamped on txStart/drop/deliver records: 1 +
  // channel index. 0 (the default) means single-channel — record bytes are
  // unchanged from legacy traces, which byte-identity tests rely on.
  void setChannelTag(std::uint8_t tag) { channelTag_ = tag; }
  std::uint8_t channelTag() const { return channelTag_; }

  // Writes one JSONL trace: `metaJson` (a complete one-line JSON object),
  // then the records of `parts` (one collector per collision domain, each
  // internally time-sorted) k-way merged in global (timeNs, part index)
  // order, then one `{"counter":...,"value":...}` line per entry of
  // `counters`. Packet pids are renumbered densely in merged
  // first-appearance order so the output is a function of the run alone,
  // not of per-domain pid allocation; with one part (pids are already
  // dense in first-appearance order) that renumbering is the identity.
  // Creates parent directories. On success every part's records are
  // drained and its spill file removed; on failure returns false and keeps
  // the buffered records.
  static bool exportMergedJsonl(
      const std::string& path, const std::string& metaJson,
      const std::vector<std::pair<std::string, std::uint64_t>>& counters,
      const std::vector<TraceCollector*>& parts);

 private:
  std::uint32_t pidOf(const net::Packet& pkt);
  void append(const TraceRecord& record);
  void emitPacketEvent(EventType type, SimTime t, net::NodeId node,
                       const net::Packet& pkt);
  bool spillBuffered();

  std::string spillPath_;
  std::size_t spillThreshold_;
  std::FILE* spill_{nullptr};
  std::uint64_t spilled_{0};
  std::uint64_t total_{0};
  std::vector<TraceRecord> buffer_;
  std::unordered_map<std::uint64_t, std::uint32_t> pids_;
  std::uint32_t nextPid_{1};  // 0 means "no packet"
  std::uint8_t channelTag_{0};
};

// Formats one record as a single JSON line (no trailing newline).
// Shared with nothing hot — used by export and by tests.
std::string toJsonLine(const TraceRecord& record);

}  // namespace mesh::trace
