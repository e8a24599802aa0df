#include "mesh/trace/replay.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <unordered_map>

#include "mesh/common/stats.hpp"

namespace mesh::trace {
namespace {

std::uint32_t packKey(net::GroupId group, net::NodeId origin) {
  return (static_cast<std::uint32_t>(group) << 16) | origin;
}

}  // namespace

TraceSummary summarizeTrace(const ParsedTrace& trace) {
  TraceSummary summary;

  std::map<net::GroupId, std::set<net::NodeId>> members;
  std::unordered_map<std::uint32_t, std::uint64_t> birthsPerFlow;
  std::unordered_map<std::uint32_t, std::int64_t> birthTimeNs;  // by pid
  // Per-node delay accumulators, merged in ascending node order below —
  // the exact shape of Simulation::run()'s per-sink merge.
  std::map<net::NodeId, OnlineStats> delayPerNode;
  std::uint64_t payloadBytesDelivered = 0;
  // Records by type, for the counter-line audit (drops by reason below).
  std::array<std::uint64_t, 256> recordsByType{};

  for (const ParsedRecord& record : trace.records) {
    ++recordsByType[static_cast<std::uint8_t>(record.type)];
    switch (record.type) {
      case EventType::MemberJoin:
        members[record.group].insert(record.node);
        break;
      case EventType::PktBirth:
        ++summary.packetsSent;
        ++birthsPerFlow[packKey(record.group, record.origin)];
        birthTimeNs.emplace(record.pid, record.timeNs);
        break;
      case EventType::Deliver: {
        ++summary.packetsDelivered;
        payloadBytesDelivered += record.bytes;
        if (record.channel >= 0) {
          ++summary.perChannel[record.channel].delivered;
        }
        const auto born = birthTimeNs.find(record.pid);
        if (born == birthTimeNs.end()) {
          ++summary.deliversWithoutBirth;
        } else {
          delayPerNode[record.node].add(
              static_cast<double>(record.timeNs - born->second) * 1e-9);
        }
        break;
      }
      case EventType::RxOk:
        if (record.kind == net::PacketKind::Data) {
          summary.dataBytesReceived += record.bytes;
        } else if (record.kind == net::PacketKind::Control) {
          summary.controlBytesReceived += record.bytes;
        }
        break;
      case EventType::ProbeRx:
        summary.probeBytesReceived += record.bytes;
        break;
      case EventType::Drop:
        ++summary.dropCount;
        ++summary.dropsByReason[toString(record.reason)];
        if (record.reason == DropReason::Unknown) ++summary.unknownReasonDrops;
        if (record.channel >= 0) ++summary.perChannel[record.channel].drops;
        break;
      case EventType::TxStart:
        if (record.channel >= 0) {
          auto& ch = summary.perChannel[record.channel];
          ++ch.frames;
          // DSSS PLCP preamble+header (192 us) plus payload bits at the
          // 2 Mb/s base rate: 4000 ns per byte. A share estimate — the
          // multi-rate PHY sends some frames faster, but the cross-channel
          // ratio is what the breakdown is for.
          ch.busyTimeNs +=
              192'000 + static_cast<std::int64_t>(record.bytes) * 4'000;
        }
        break;
      case EventType::FaultInject:
        ++summary.faultsInjected;
        break;
      case EventType::FaultClear:
        ++summary.faultsCleared;
        break;
      case EventType::GatewayHandoff:
        ++summary.handoffFrames;
        ++summary.handoffPerGateway[record.node];
        break;
      default:
        break;
    }
  }

  for (const auto& [flow, births] : birthsPerFlow) {
    const auto group = static_cast<net::GroupId>(flow >> 16);
    const auto origin = static_cast<net::NodeId>(flow & 0xFFFF);
    std::uint64_t fanout = 0;
    const auto it = members.find(group);
    if (it != members.end()) {
      fanout = it->second.size();
      if (it->second.contains(origin)) --fanout;
    }
    summary.expectedDeliveries += births * fanout;
  }

  for (const auto& [name, value] : trace.counters) {
    for (const RecordCount& rule : kRecordCounts) {
      if (rule.counter != name) continue;
      std::uint64_t records =
          recordsByType[static_cast<std::uint8_t>(rule.type)];
      if (rule.type == EventType::Drop) {
        const auto it = summary.dropsByReason.find(toString(rule.reason));
        records = it != summary.dropsByReason.end() ? it->second : 0;
      }
      if (records != value) {
        summary.counterMismatches.push_back({name, value, records});
      }
    }
  }

  OnlineStats delay;
  for (const auto& [node, stats] : delayPerNode) delay.merge(stats);

  summary.pdr = summary.expectedDeliveries > 0
                    ? static_cast<double>(summary.packetsDelivered) /
                          static_cast<double>(summary.expectedDeliveries)
                    : 0.0;
  summary.meanDelayS = delay.mean();
  summary.throughputBps =
      trace.activeS > 0.0
          ? static_cast<double>(payloadBytesDelivered * 8) / trace.activeS
          : 0.0;
  summary.probeOverheadPct =
      summary.dataBytesReceived > 0
          ? 100.0 * static_cast<double>(summary.probeBytesReceived) /
                static_cast<double>(summary.dataBytesReceived)
          : 0.0;
  return summary;
}

namespace {

bool closeEnough(double a, double b, double relTolerance) {
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= relTolerance * scale;
}

void diffField(VerifyRunResult& run, const char* field, double traceValue,
               double harnessValue, double relTolerance) {
  if (!closeEnough(traceValue, harnessValue, relTolerance)) {
    run.mismatches.push_back(FieldDiff{field, traceValue, harnessValue});
  }
}

}  // namespace

VerifyReport verifyAgainstResults(const std::string& resultsJsonlPath,
                                  const std::string& traceDirOverride,
                                  double relTolerance) {
  VerifyReport report;
  std::FILE* in = std::fopen(resultsJsonlPath.c_str(), "r");
  if (in == nullptr) {
    report.error = "cannot open results file: " + resultsJsonlPath;
    return report;
  }

  std::string line;
  char buf[4096];
  while (true) {
    line.clear();
    bool eof = true;
    while (std::fgets(buf, sizeof(buf), in) != nullptr) {
      eof = false;
      line.append(buf);
      if (!line.empty() && line.back() == '\n') {
        line.pop_back();
        break;
      }
    }
    if (eof && line.empty()) break;
    if (line.empty()) continue;

    std::string tracePath;
    if (!jsonFindString(line, "trace", tracePath) || tracePath.empty()) {
      ++report.skipped;  // run recorded without tracing
      continue;
    }
    VerifyRunResult run;
    run.tracePath = tracePath;
    jsonFindString(line, "protocol", run.protocol);
    jsonFindUint(line, "seed", run.seed);

    bool rowOk = false;
    if (!jsonFindBool(line, "ok", rowOk) || !rowOk) {
      run.error = "harness run failed; nothing to verify";
      report.runs.push_back(std::move(run));
      continue;
    }

    if (!traceDirOverride.empty()) {
      run.tracePath =
          (std::filesystem::path{traceDirOverride} /
           std::filesystem::path{tracePath}.filename()).string();
    }
    TraceReadResult read = readTraceFile(run.tracePath);
    if (!read.trace) {
      run.error = read.error;
      report.runs.push_back(std::move(run));
      continue;
    }
    const ParsedTrace& trace = *read.trace;
    if (trace.seed != run.seed ||
        (!run.protocol.empty() && trace.protocol != run.protocol)) {
      run.error = "trace meta (seed/protocol) does not match the result row";
      report.runs.push_back(std::move(run));
      continue;
    }

    const TraceSummary summary = summarizeTrace(trace);
    run.records = trace.records.size();
    run.unknownReasonDrops = summary.unknownReasonDrops;

    double pdr = 0.0, delayS = 0.0, overheadPct = 0.0, throughputBps = 0.0;
    std::uint64_t sent = 0, delivered = 0, controlBytes = 0;
    jsonFindDouble(line, "pdr", pdr);
    jsonFindDouble(line, "delay_s", delayS);
    jsonFindDouble(line, "overhead_pct", overheadPct);
    jsonFindDouble(line, "throughput_bps", throughputBps);
    jsonFindUint(line, "packets_sent", sent);
    jsonFindUint(line, "packets_delivered", delivered);
    jsonFindUint(line, "control_bytes", controlBytes);

    diffField(run, "pdr", summary.pdr, pdr, relTolerance);
    diffField(run, "delay_s", summary.meanDelayS, delayS, relTolerance);
    diffField(run, "overhead_pct", summary.probeOverheadPct, overheadPct,
              relTolerance);
    diffField(run, "throughput_bps", summary.throughputBps, throughputBps,
              relTolerance);
    diffField(run, "packets_sent", static_cast<double>(summary.packetsSent),
              static_cast<double>(sent), 0.0);
    diffField(run, "packets_delivered",
              static_cast<double>(summary.packetsDelivered),
              static_cast<double>(delivered), 0.0);
    diffField(run, "control_bytes",
              static_cast<double>(summary.controlBytesReceived),
              static_cast<double>(controlBytes), 0.0);
    // Multi-channel rows record per-domain counters (ch<k>_frames /
    // ch<k>_delivered, from that domain's counter registry); cross-check
    // them exactly against the channel-tagged trace records.
    std::uint64_t channels = 0;
    if (jsonFindUint(line, "channels", channels) && channels > 1) {
      for (std::uint64_t k = 0; k < channels; ++k) {
        const auto it = summary.perChannel.find(static_cast<int>(k));
        const std::uint64_t traceFrames =
            it != summary.perChannel.end() ? it->second.frames : 0;
        const std::uint64_t traceDelivered =
            it != summary.perChannel.end() ? it->second.delivered : 0;
        char key[48];
        std::uint64_t v = 0;
        std::snprintf(key, sizeof(key), "ch%llu_frames",
                      static_cast<unsigned long long>(k));
        if (jsonFindUint(line, key, v)) {
          diffField(run, key, static_cast<double>(traceFrames),
                    static_cast<double>(v), 0.0);
        }
        std::snprintf(key, sizeof(key), "ch%llu_delivered",
                      static_cast<unsigned long long>(k));
        if (jsonFindUint(line, key, v)) {
          diffField(run, key, static_cast<double>(traceDelivered),
                    static_cast<double>(v), 0.0);
        }
      }
    }
    // Gateway rows record relay totals; cross-check them exactly against
    // the trace's gateway_handoff records, total and per gateway.
    std::uint64_t handoffFrames = 0;
    if (jsonFindUint(line, "handoff_frames", handoffFrames)) {
      diffField(run, "handoff_frames",
                static_cast<double>(summary.handoffFrames),
                static_cast<double>(handoffFrames), 0.0);
      for (std::uint64_t id = 0; id < trace.nodes; ++id) {
        char key[48];
        std::snprintf(key, sizeof(key), "gw%llu_handoff",
                      static_cast<unsigned long long>(id));
        std::uint64_t v = 0;
        if (!jsonFindUint(line, key, v)) continue;
        const auto it =
            summary.handoffPerGateway.find(static_cast<net::NodeId>(id));
        const std::uint64_t traceCount =
            it != summary.handoffPerGateway.end() ? it->second : 0;
        diffField(run, key, static_cast<double>(traceCount),
                  static_cast<double>(v), 0.0);
      }
    }
    if (summary.unknownReasonDrops > 0) {
      run.error = "trace contains drops with reason=unknown";
    }
    if (summary.deliversWithoutBirth > 0) {
      run.error = "trace contains deliveries with no matching birth";
    }
    // A counter line must agree with the trace's own records.
    for (const TraceSummary::CounterMismatch& m : summary.counterMismatches) {
      run.mismatches.push_back(FieldDiff{m.counter,
                                         static_cast<double>(m.records),
                                         static_cast<double>(m.value)});
    }
    run.ok = run.error.empty() && run.mismatches.empty();
    report.runs.push_back(std::move(run));
  }
  std::fclose(in);
  return report;
}

}  // namespace mesh::trace
