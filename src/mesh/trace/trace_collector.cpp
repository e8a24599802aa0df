#include "mesh/trace/trace_collector.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace mesh::trace {
namespace {

// Creates the parent directory of `path` if it has one. Returns false on
// filesystem errors (never throws — callers print and carry on).
bool ensureParentDir(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path{path}.parent_path();
  if (parent.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  return !ec;
}

}  // namespace

TraceCollector::TraceCollector(std::string spillPath,
                               std::size_t spillThreshold)
    : spillPath_{std::move(spillPath)},
      spillThreshold_{spillThreshold == 0 ? 1 : spillThreshold} {}

TraceCollector::~TraceCollector() {
  if (spill_ != nullptr) std::fclose(spill_);
  if (!spillPath_.empty() && spilled_ > 0) std::remove(spillPath_.c_str());
}

std::uint32_t TraceCollector::pidOf(const net::Packet& pkt) {
  const auto [it, inserted] = pids_.try_emplace(pkt.uid(), nextPid_);
  if (inserted) ++nextPid_;
  return it->second;
}

void TraceCollector::append(const TraceRecord& record) {
  buffer_.push_back(record);
  ++total_;
  if (!spillPath_.empty() && buffer_.size() >= spillThreshold_) spillBuffered();
}

bool TraceCollector::spillBuffered() {
  if (spill_ == nullptr) {
    if (!ensureParentDir(spillPath_)) return false;
    spill_ = std::fopen(spillPath_.c_str(), "w+b");
    if (spill_ == nullptr) return false;
  }
  const std::size_t wrote = std::fwrite(buffer_.data(), sizeof(TraceRecord),
                                        buffer_.size(), spill_);
  if (wrote != buffer_.size()) return false;
  spilled_ += wrote;
  buffer_.clear();
  return true;
}

void TraceCollector::emitPacketEvent(EventType type, SimTime t,
                                     net::NodeId node,
                                     const net::Packet& pkt) {
  TraceRecord record;
  record.timeNs = t.ns();
  record.pid = pidOf(pkt);
  record.sizeBytes = static_cast<std::uint32_t>(pkt.sizeBytes());
  record.node = node;
  record.type = static_cast<std::uint8_t>(type);
  record.kind = static_cast<std::uint8_t>(pkt.kind());
  append(record);
}

void TraceCollector::packetBirth(SimTime t, net::NodeId node,
                                 const net::Packet& pkt, net::GroupId group) {
  TraceRecord record;
  record.timeNs = t.ns();
  record.pid = pidOf(pkt);
  record.sizeBytes = static_cast<std::uint32_t>(pkt.sizeBytes());
  record.node = node;
  record.origin = pkt.origin();
  record.group = group;
  record.type = static_cast<std::uint8_t>(EventType::PktBirth);
  record.kind = static_cast<std::uint8_t>(pkt.kind());
  append(record);
}

void TraceCollector::memberJoin(SimTime t, net::NodeId node,
                                net::GroupId group) {
  TraceRecord record;
  record.timeNs = t.ns();
  record.node = node;
  record.group = group;
  record.type = static_cast<std::uint8_t>(EventType::MemberJoin);
  append(record);
}

void TraceCollector::enqueue(SimTime t, net::NodeId node,
                             const net::Packet& pkt) {
  emitPacketEvent(EventType::Enqueue, t, node, pkt);
}

void TraceCollector::txStart(SimTime t, net::NodeId node,
                             const net::Packet* pkt, std::uint32_t frameBytes,
                             std::uint8_t rate) {
  TraceRecord record;
  record.timeNs = t.ns();
  record.pid = pkt != nullptr ? pidOf(*pkt) : 0;
  record.sizeBytes = frameBytes;
  record.node = node;
  record.type = static_cast<std::uint8_t>(EventType::TxStart);
  record.kind = static_cast<std::uint8_t>(
      pkt != nullptr ? pkt->kind() : net::PacketKind::MacControl);
  record.rate = rate;
  record.channel = channelTag_;
  append(record);
}

void TraceCollector::txEnd(SimTime t, net::NodeId node, const net::Packet* pkt,
                           std::uint32_t frameBytes) {
  TraceRecord record;
  record.timeNs = t.ns();
  record.pid = pkt != nullptr ? pidOf(*pkt) : 0;
  record.sizeBytes = frameBytes;
  record.node = node;
  record.type = static_cast<std::uint8_t>(EventType::TxEnd);
  record.kind = static_cast<std::uint8_t>(
      pkt != nullptr ? pkt->kind() : net::PacketKind::MacControl);
  append(record);
}

void TraceCollector::rxOk(SimTime t, net::NodeId node, const net::Packet& pkt) {
  emitPacketEvent(EventType::RxOk, t, node, pkt);
}

void TraceCollector::probeTx(SimTime t, net::NodeId node,
                             const net::Packet& pkt) {
  emitPacketEvent(EventType::ProbeTx, t, node, pkt);
}

void TraceCollector::probeRx(SimTime t, net::NodeId node,
                             const net::Packet& pkt) {
  emitPacketEvent(EventType::ProbeRx, t, node, pkt);
}

void TraceCollector::forward(SimTime t, net::NodeId node,
                             const net::Packet& pkt) {
  emitPacketEvent(EventType::Forward, t, node, pkt);
}

void TraceCollector::deliver(SimTime t, net::NodeId node,
                             const net::Packet& pkt,
                             std::uint32_t payloadBytes, net::NodeId source,
                             net::GroupId group) {
  TraceRecord record;
  record.timeNs = t.ns();
  record.pid = pidOf(pkt);
  record.sizeBytes = payloadBytes;
  record.node = node;
  record.origin = source;
  record.group = group;
  record.type = static_cast<std::uint8_t>(EventType::Deliver);
  record.kind = static_cast<std::uint8_t>(pkt.kind());
  record.channel = channelTag_;
  append(record);
}

void TraceCollector::drop(SimTime t, net::NodeId node, const net::Packet* pkt,
                          net::PacketKind kind, std::uint32_t sizeBytes,
                          DropReason reason) {
  TraceRecord record;
  record.timeNs = t.ns();
  record.pid = pkt != nullptr ? pidOf(*pkt) : 0;
  record.sizeBytes = sizeBytes;
  record.node = node;
  record.type = static_cast<std::uint8_t>(EventType::Drop);
  record.kind = static_cast<std::uint8_t>(kind);
  record.reason = static_cast<std::uint8_t>(reason);
  record.channel = channelTag_;
  append(record);
}

void TraceCollector::faultEvent(SimTime t, EventType type, FaultKind kind,
                                net::NodeId node, net::NodeId peer,
                                double lossRate, double powerDbm) {
  TraceRecord record;
  record.timeNs = t.ns();
  record.node = node;
  record.origin = peer;
  record.type = static_cast<std::uint8_t>(type);
  record.reason = static_cast<std::uint8_t>(kind);
  // Fault records carry no packet, so sizeBytes is free to hold the one
  // numeric fault parameter, fixed-point encoded: LossRamp target loss in
  // millionths, InterferenceBurst power in milli-dBm offset by +300 dBm to
  // stay unsigned. Inject only — clears have no parameters.
  if (type == EventType::FaultInject) {
    if (kind == FaultKind::LossRamp) {
      record.sizeBytes =
          static_cast<std::uint32_t>(std::lround(lossRate * 1e6));
    } else if (kind == FaultKind::InterferenceBurst) {
      record.sizeBytes =
          static_cast<std::uint32_t>(std::lround((powerDbm + 300.0) * 1e3));
    }
  }
  append(record);
}

void TraceCollector::gatewayHandoff(SimTime t, net::NodeId gateway,
                                    const net::Packet& rebuilt,
                                    std::uint8_t srcDomain,
                                    std::uint32_t srcPid) {
  TraceRecord record;
  record.timeNs = t.ns();
  record.pid = pidOf(rebuilt);
  // No packet bytes to report — the field carries the source domain's
  // local pid so exportMergedJsonl can alias this record's pid chain back
  // to the original packet (reason holds the source domain index).
  record.sizeBytes = srcPid;
  record.node = gateway;
  record.origin = rebuilt.origin();
  record.type = static_cast<std::uint8_t>(EventType::GatewayHandoff);
  record.kind = static_cast<std::uint8_t>(rebuilt.kind());
  record.reason = srcDomain;
  record.channel = channelTag_;
  append(record);
}

std::string toJsonLine(const TraceRecord& record) {
  const auto type = static_cast<EventType>(record.type);
  const auto kind = static_cast<net::PacketKind>(record.kind);
  char buf[256];
  int n = 0;
  // Collision-domain tag; only stamped (txStart/drop/deliver) on
  // multi-channel runs, so single-channel trace bytes are unchanged.
  char chan[20];
  chan[0] = '\0';
  if (record.channel != 0) {
    std::snprintf(chan, sizeof(chan), R"(,"channel":%u)", record.channel - 1);
  }
  if (type == EventType::FaultInject || type == EventType::FaultClear) {
    const auto fault = static_cast<FaultKind>(record.reason);
    // Inject records of parameterized kinds decode their fixed-point
    // payload (see faultEvent) back into the natural unit.
    char extra[48];
    extra[0] = '\0';
    if (type == EventType::FaultInject) {
      if (fault == FaultKind::LossRamp) {
        std::snprintf(extra, sizeof(extra), R"(,"loss":%.6g)",
                      record.sizeBytes / 1e6);
      } else if (fault == FaultKind::InterferenceBurst) {
        std::snprintf(extra, sizeof(extra), R"(,"dbm":%.3f)",
                      record.sizeBytes / 1e3 - 300.0);
      }
    }
    if (record.origin != net::kInvalidNode) {
      n = std::snprintf(
          buf, sizeof(buf),
          R"({"t":%)" PRId64 R"(,"ev":"%s","node":%u,"fault":"%s","peer":%u%s})",
          record.timeNs, toString(type), record.node, toString(fault),
          record.origin, extra);
    } else {
      n = std::snprintf(
          buf, sizeof(buf),
          R"({"t":%)" PRId64 R"(,"ev":"%s","node":%u,"fault":"%s"%s})",
          record.timeNs, toString(type), record.node, toString(fault), extra);
    }
  } else if (type == EventType::MemberJoin) {
    n = std::snprintf(buf, sizeof(buf),
                      R"({"t":%)" PRId64 R"(,"ev":"%s","node":%u,"group":%u})",
                      record.timeNs, toString(type), record.node, record.group);
  } else if (type == EventType::PktBirth || type == EventType::Deliver) {
    n = std::snprintf(
        buf, sizeof(buf),
        R"({"t":%)" PRId64
        R"(,"ev":"%s","node":%u,"pid":%u,"kind":"%s","bytes":%u,"origin":%u,"group":%u%s})",
        record.timeNs, toString(type), record.node, record.pid,
        net::toString(kind), record.sizeBytes, record.origin, record.group,
        chan);
  } else if (type == EventType::GatewayHandoff) {
    // sizeBytes holds the source-domain pid (merge bookkeeping, see
    // gatewayHandoff) — not packet bytes, so it is not emitted. `src_ch`
    // is the source collision domain; `channel` the destination.
    n = std::snprintf(
        buf, sizeof(buf),
        R"({"t":%)" PRId64
        R"(,"ev":"%s","node":%u,"pid":%u,"kind":"%s","src_ch":%u%s})",
        record.timeNs, toString(type), record.node, record.pid,
        net::toString(kind), record.reason, chan);
  } else if (type == EventType::Drop) {
    n = std::snprintf(
        buf, sizeof(buf),
        R"({"t":%)" PRId64
        R"(,"ev":"%s","node":%u,"pid":%u,"kind":"%s","bytes":%u,"reason":"%s"%s})",
        record.timeNs, toString(type), record.node, record.pid,
        net::toString(kind), record.sizeBytes,
        toString(static_cast<DropReason>(record.reason)), chan);
  } else if (record.rate != 0) {
    // Only TxStart records of rate-aware frames set `rate`; fixed-rate
    // traces never reach this branch, keeping their bytes unchanged.
    n = std::snprintf(
        buf, sizeof(buf),
        R"({"t":%)" PRId64
        R"(,"ev":"%s","node":%u,"pid":%u,"kind":"%s","bytes":%u,"rate":%u%s})",
        record.timeNs, toString(type), record.node, record.pid,
        net::toString(kind), record.sizeBytes, record.rate, chan);
  } else {
    n = std::snprintf(
        buf, sizeof(buf),
        R"({"t":%)" PRId64 R"(,"ev":"%s","node":%u,"pid":%u,"kind":"%s","bytes":%u%s})",
        record.timeNs, toString(type), record.node, record.pid,
        net::toString(kind), record.sizeBytes, chan);
  }
  return std::string(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
}

bool TraceCollector::exportMergedJsonl(
    const std::string& path, const std::string& metaJson,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const std::vector<TraceCollector*>& parts) {
  if (parts.empty()) return false;

  // Streaming cursor over one part: spilled records first (they precede
  // the buffer in emission order), then the in-memory buffer, re-read in
  // 1024-record chunks so merging k paper-scale parts stays bounded.
  struct Cursor {
    TraceCollector* part{nullptr};
    std::uint64_t spillRemaining{0};
    std::size_t bufferIndex{0};
    std::vector<TraceRecord> chunk;
    std::size_t chunkIndex{0};
    bool failed{false};

    bool refill() {
      chunk.clear();
      chunkIndex = 0;
      if (spillRemaining > 0) {
        const std::size_t want =
            spillRemaining < 1024 ? static_cast<std::size_t>(spillRemaining)
                                  : 1024;
        chunk.resize(want);
        const std::size_t got =
            std::fread(chunk.data(), sizeof(TraceRecord), want, part->spill_);
        if (got != want) {
          failed = true;
          return false;
        }
        spillRemaining -= got;
        return true;
      }
      const std::size_t left = part->buffer_.size() - bufferIndex;
      if (left == 0) return false;
      const std::size_t want = left < 1024 ? left : 1024;
      chunk.assign(part->buffer_.begin() + static_cast<std::ptrdiff_t>(bufferIndex),
                   part->buffer_.begin() + static_cast<std::ptrdiff_t>(bufferIndex + want));
      bufferIndex += want;
      return true;
    }

    // Returns the head record, or nullptr when the part is exhausted (or
    // a spill read failed, flagged in `failed`).
    const TraceRecord* peek() {
      if (chunkIndex >= chunk.size() && !refill()) return nullptr;
      return &chunk[chunkIndex];
    }
    void pop() { ++chunkIndex; }
  };

  std::vector<Cursor> cursors(parts.size());
  bool ok = true;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    cursors[i].part = parts[i];
    if (parts[i]->spill_ != nullptr && parts[i]->spilled_ > 0) {
      std::fflush(parts[i]->spill_);
      if (std::fseek(parts[i]->spill_, 0, SEEK_SET) != 0) ok = false;
      cursors[i].spillRemaining = parts[i]->spilled_;
    }
  }

  if (!ensureParentDir(path)) return false;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  ok = ok && std::fputs(metaJson.c_str(), out) >= 0 &&
       std::fputc('\n', out) != EOF;

  // Per-part records are time-sorted (each domain's sim clock is
  // monotone), so a k-way head merge yields the global (timeNs, part)
  // order. Pids are renumbered in merged first-appearance order: local
  // (part, pid) pairs map to one dense global sequence, making the merged
  // bytes independent of how packets were numbered inside each domain.
  std::unordered_map<std::uint64_t, std::uint32_t> pidMap;
  std::uint32_t nextPid = 1;
  while (ok) {
    std::size_t best = parts.size();
    const TraceRecord* bestRecord = nullptr;
    for (std::size_t i = 0; i < cursors.size(); ++i) {
      const TraceRecord* head = cursors[i].peek();
      if (cursors[i].failed) {
        ok = false;
        break;
      }
      if (head == nullptr) continue;
      // Strict less-than on time keeps equal-time ties on the lowest part
      // index — the documented merge order.
      if (bestRecord == nullptr || head->timeNs < bestRecord->timeNs) {
        best = i;
        bestRecord = head;
      }
    }
    if (!ok || bestRecord == nullptr) break;
    TraceRecord record = *bestRecord;
    cursors[best].pop();
    if (record.pid != 0) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(best) << 32) | record.pid;
      if (record.type == static_cast<std::uint8_t>(EventType::GatewayHandoff) &&
          record.sizeBytes != 0 && record.reason < parts.size()) {
        // A handoff record is the rebuilt copy's first appearance in its
        // destination part; (reason, sizeBytes) name the original packet
        // in the source part. Alias the rebuilt (part, pid) to the
        // original's global pid so one packet keeps one pid across
        // domains — chained handoffs resolve because the source pid is
        // itself already aliased. Assigning the source eagerly (it may
        // not have surfaced yet at equal merge time) keeps numbering in
        // merged first-appearance order.
        const std::uint64_t srcKey =
            (static_cast<std::uint64_t>(record.reason) << 32) |
            record.sizeBytes;
        const auto [sit, srcInserted] = pidMap.try_emplace(srcKey, nextPid);
        if (srcInserted) ++nextPid;
        pidMap.insert_or_assign(key, sit->second);
        record.pid = sit->second;
      } else {
        const auto [it, inserted] = pidMap.try_emplace(key, nextPid);
        if (inserted) ++nextPid;
        record.pid = it->second;
      }
    }
    const std::string line = toJsonLine(record);
    ok = std::fputs(line.c_str(), out) >= 0 && std::fputc('\n', out) != EOF;
  }
  for (const auto& [name, value] : counters) {
    if (!ok) break;
    ok = std::fprintf(out, R"({"counter":"%s","value":%)" PRIu64 "}\n",
                      name.c_str(), value) > 0;
  }
  ok = std::fclose(out) == 0 && ok;
  if (ok) {
    for (TraceCollector* part : parts) {
      if (part->spill_ != nullptr) {
        std::fclose(part->spill_);
        part->spill_ = nullptr;
        std::remove(part->spillPath_.c_str());
      }
      part->spilled_ = 0;
      part->buffer_.clear();
    }
  }
  return ok;
}

}  // namespace mesh::trace
