#pragma once
// Trace replay: recompute the paper's headline metrics from a trace alone.
//
// `summarizeTrace` walks the packet-lifecycle records and rebuilds PDR,
// mean end-to-end delay, throughput, and probe overhead using *only* the
// trace — none of the harness counters — replicating the harness
// arithmetic operation-for-operation (per-node Welford accumulators merged
// in node order, the same double expressions) so the two paths agree
// bit-for-bit on a correct simulator. `verifyAgainstResults` then joins
// each summary against the runner's results JSONL: any divergence is a bug
// in one of the two accounting paths.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mesh/trace/trace_reader.hpp"

namespace mesh::trace {

struct TraceSummary {
  std::uint64_t packetsSent{0};         // PktBirth records
  std::uint64_t expectedDeliveries{0};  // births × member fan-out
  std::uint64_t packetsDelivered{0};    // Deliver records
  double pdr{0.0};
  double meanDelayS{0.0};
  double throughputBps{0.0};
  std::uint64_t probeBytesReceived{0};
  std::uint64_t dataBytesReceived{0};
  std::uint64_t controlBytesReceived{0};
  double probeOverheadPct{0.0};

  std::uint64_t dropCount{0};
  std::uint64_t unknownReasonDrops{0};
  std::map<std::string, std::uint64_t> dropsByReason;

  // Fault-injection records (src/mesh/fault): applied/cleared faults seen
  // in the trace. Zero on fault-free runs.
  std::uint64_t faultsInjected{0};
  std::uint64_t faultsCleared{0};

  // Audit: Deliver records whose pid never appeared in a PktBirth — always
  // zero on a well-formed trace.
  std::uint64_t deliversWithoutBirth{0};

  // Audit: counter lines that disagree with the count of the records they
  // count (kRecordCounts). Empty on a well-formed trace.
  struct CounterMismatch {
    std::string counter;
    std::uint64_t value{0};    // the counter line
    std::uint64_t records{0};  // the records it counts
  };
  std::vector<CounterMismatch> counterMismatches;

  // Per-collision-domain breakdown, keyed by channel index. Populated only
  // from records carrying a "channel" field (multi-channel runs); empty on
  // single-channel traces. busyTimeNs is the summed frame airtime estimate
  // (DSSS PLCP preamble + payload bits at the 2 Mb/s base rate) — meant
  // for cross-channel share comparison, not absolute medium occupancy.
  struct ChannelStats {
    std::uint64_t frames{0};     // TxStart records
    std::uint64_t drops{0};      // Drop records
    std::uint64_t delivered{0};  // Deliver records
    std::int64_t busyTimeNs{0};
  };
  std::map<int, ChannelStats> perChannel;

  // Cross-domain gateway relay (GatewayHandoff records): total handoffs
  // plus a per-gateway breakdown. Empty on gateway-less runs.
  std::uint64_t handoffFrames{0};
  std::map<net::NodeId, std::uint64_t> handoffPerGateway;
};

TraceSummary summarizeTrace(const ParsedTrace& trace);

// One metric that disagreed between the replayed trace and the harness row.
struct FieldDiff {
  std::string field;
  double traceValue{0.0};
  double harnessValue{0.0};
};

struct VerifyRunResult {
  std::string tracePath;
  std::string protocol;
  std::uint64_t seed{0};
  bool ok{false};
  std::string error;  // trace unreadable / meta mismatch
  std::vector<FieldDiff> mismatches;
  std::uint64_t unknownReasonDrops{0};
  std::uint64_t records{0};
};

struct VerifyReport {
  std::vector<VerifyRunResult> runs;
  std::size_t skipped{0};  // result rows without a trace field
  std::string error;       // results file unreadable
  bool ok() const {
    if (!error.empty()) return false;
    for (const auto& run : runs) {
      if (!run.ok) return false;
    }
    return !runs.empty();
  }
};

// Replays every trace referenced by `resultsJsonlPath` and diffs the
// recomputed metrics against the recorded ones. `traceDirOverride`
// non-empty re-roots trace paths (results moved between machines).
// Doubles compare within `relTolerance` (0 = bit-exact, the default
// expectation); integers always compare exactly.
VerifyReport verifyAgainstResults(const std::string& resultsJsonlPath,
                                  const std::string& traceDirOverride = {},
                                  double relTolerance = 0.0);

}  // namespace mesh::trace
