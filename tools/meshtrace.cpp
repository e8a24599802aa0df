// meshtrace: replay packet-lifecycle traces and cross-check the harness.
//
//   $ meshtrace summary <trace.jsonl>...
//   $ meshtrace verify <results.jsonl> [--trace-dir DIR] [--tol X]
//   $ meshtrace faults <trace.jsonl>
//
// `summary` recomputes PDR, mean end-to-end delay, throughput, and probe
// overhead from a trace alone — an accounting path fully independent of
// the harness counters — and prints them with the drop-reason breakdown.
//
// `faults` extracts the fault timeline (fault_inject / fault_clear
// records) from one trace and re-emits it as a ready-to-paste `[faults]`
// config section, so any faulty run can be replayed from its trace alone.
//
// `verify` joins every trace referenced by a runner results file (the
// "trace" field written when a sweep runs with --trace DIR) against the
// recorded metrics. The two paths replicate the same arithmetic, so the
// expected tolerance is zero: any diff means one of the accounting paths
// is wrong. --trace-dir re-roots trace paths when the results file moved;
// --tol X accepts a relative tolerance for double-valued fields.
//
// Exit status: 0 when everything checked out, 1 on any mismatch or
// unreadable input, 2 on usage errors.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mesh/trace/replay.hpp"
#include "mesh/trace/trace_reader.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s summary <trace.jsonl>...\n"
               "       %s verify <results.jsonl> [--trace-dir DIR] [--tol X]\n"
               "       %s faults <trace.jsonl>\n"
               "  summary      recompute PDR/delay/throughput/overhead from "
               "traces\n"
               "  verify       diff trace-derived metrics against the runner's "
               "results\n"
               "  faults       re-emit the trace's fault timeline as a "
               "[faults] config section\n"
               "  --trace-dir  re-root the \"trace\" paths found in the "
               "results file\n"
               "  --tol X      relative tolerance for double fields "
               "(default 0 = bit-exact)\n",
               argv0, argv0, argv0);
}

int runSummary(int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr, "summary needs at least one trace file\n");
    return 2;
  }
  bool failed = false;
  for (int i = 0; i < argc; ++i) {
    const std::string path = argv[i];
    const mesh::trace::TraceReadResult read = mesh::trace::readTraceFile(path);
    if (!read.trace) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), read.error.c_str());
      failed = true;
      continue;
    }
    const mesh::trace::TraceSummary s = mesh::trace::summarizeTrace(*read.trace);
    std::printf("%s\n", path.c_str());
    std::printf("  protocol %s  seed %" PRIu64 "  nodes %" PRIu64
                "  records %zu\n",
                read.trace->protocol.c_str(), read.trace->seed,
                read.trace->nodes, read.trace->records.size());
    std::printf("  pdr          %.6f  (%" PRIu64 " delivered / %" PRIu64
                " expected, %" PRIu64 " sent)\n",
                s.pdr, s.packetsDelivered, s.expectedDeliveries, s.packetsSent);
    std::printf("  mean delay   %.3f ms\n", s.meanDelayS * 1e3);
    std::printf("  throughput   %.1f kbps\n", s.throughputBps / 1e3);
    std::printf("  probe cost   %.3f%% of data bytes (%" PRIu64 " / %" PRIu64
                ")\n",
                s.probeOverheadPct, s.probeBytesReceived, s.dataBytesReceived);
    std::printf("  drops        %" PRIu64 "\n", s.dropCount);
    for (const auto& [reason, count] : s.dropsByReason) {
      std::printf("    %-22s %" PRIu64 "\n", reason.c_str(), count);
    }
    if (!s.perChannel.empty()) {
      // Multi-channel trace: per-collision-domain breakdown. Busy share is
      // each channel's share of the summed airtime estimate.
      std::int64_t totalBusyNs = 0;
      for (const auto& [ch, stats] : s.perChannel) totalBusyNs += stats.busyTimeNs;
      std::printf("  channels     %zu\n", s.perChannel.size());
      for (const auto& [ch, stats] : s.perChannel) {
        const double share =
            totalBusyNs > 0 ? 100.0 * static_cast<double>(stats.busyTimeNs) /
                                  static_cast<double>(totalBusyNs)
                            : 0.0;
        std::printf("    ch%-2d frames %-8" PRIu64 " drops %-8" PRIu64
                    " delivered %-8" PRIu64 " busy %5.1f%%\n",
                    ch, stats.frames, stats.drops, stats.delivered, share);
      }
    }
    if (s.handoffFrames > 0) {
      // Gateway trace: per-gateway handoff breakdown (frames the relay
      // rebuilt and injected across a domain boundary at this gateway).
      std::printf("  handoffs     %" PRIu64 " across %zu gateway%s\n",
                  s.handoffFrames, s.handoffPerGateway.size(),
                  s.handoffPerGateway.size() == 1 ? "" : "s");
      for (const auto& [gateway, count] : s.handoffPerGateway) {
        std::printf("    gw%-4u handoffs %" PRIu64 "\n", gateway, count);
      }
    }
    if (s.unknownReasonDrops > 0) {
      std::printf("  WARNING: %" PRIu64 " drops carry reason \"unknown\"\n",
                  s.unknownReasonDrops);
      failed = true;
    }
    if (s.deliversWithoutBirth > 0) {
      std::printf("  WARNING: %" PRIu64 " delivers without a pkt_birth\n",
                  s.deliversWithoutBirth);
      failed = true;
    }
    for (const auto& m : s.counterMismatches) {
      std::printf("  WARNING: counter %s = %" PRIu64 " but the trace has %"
                  PRIu64 " matching records\n",
                  m.counter.c_str(), m.value, m.records);
      failed = true;
    }
  }
  return failed ? 1 : 0;
}

int runFaults(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "faults needs exactly one trace file\n");
    return 2;
  }
  const std::string path = argv[0];
  const mesh::trace::TraceReadResult read = mesh::trace::readTraceFile(path);
  if (!read.trace) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), read.error.c_str());
    return 1;
  }
  std::fputs(mesh::trace::faultSectionFromTrace(*read.trace).c_str(), stdout);
  return 0;
}

int runVerify(int argc, char** argv) {
  const char* resultsPath = nullptr;
  std::string traceDir;
  double tolerance = 0.0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc) {
      traceDir = argv[++i];
    } else if (std::strcmp(argv[i], "--tol") == 0 && i + 1 < argc) {
      char* end = nullptr;
      tolerance = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || tolerance < 0.0) {
        std::fprintf(stderr, "--tol needs a non-negative number\n");
        return 2;
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return 2;
    } else if (resultsPath == nullptr) {
      resultsPath = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (resultsPath == nullptr) {
    std::fprintf(stderr, "verify needs a results JSONL path\n");
    return 2;
  }

  const mesh::trace::VerifyReport report =
      mesh::trace::verifyAgainstResults(resultsPath, traceDir, tolerance);
  if (!report.error.empty()) {
    std::fprintf(stderr, "%s: %s\n", resultsPath, report.error.c_str());
    return 1;
  }
  for (const mesh::trace::VerifyRunResult& run : report.runs) {
    if (run.ok) {
      std::printf("OK    %-10s seed %" PRIu64 "  %" PRIu64
                  " records  (%s)\n",
                  run.protocol.c_str(), run.seed, run.records,
                  run.tracePath.c_str());
      continue;
    }
    std::printf("FAIL  %-10s seed %" PRIu64 "  (%s)\n", run.protocol.c_str(),
                run.seed, run.tracePath.c_str());
    if (!run.error.empty()) std::printf("      %s\n", run.error.c_str());
    for (const mesh::trace::FieldDiff& diff : run.mismatches) {
      std::printf("      %-18s trace=%.17g harness=%.17g\n",
                  diff.field.c_str(), diff.traceValue, diff.harnessValue);
    }
    if (run.unknownReasonDrops > 0) {
      std::printf("      %" PRIu64 " drops carry reason \"unknown\"\n",
                  run.unknownReasonDrops);
    }
  }
  if (report.skipped > 0) {
    std::printf("(%zu result rows had no trace field)\n", report.skipped);
  }
  if (report.runs.empty()) {
    std::fprintf(stderr, "no result rows referenced a trace — run the sweep "
                         "with --trace DIR\n");
    return 1;
  }
  std::printf("%zu run%s verified: %s\n", report.runs.size(),
              report.runs.size() == 1 ? "" : "s",
              report.ok() ? "all match" : "MISMATCH");
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }
  if (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    usage(argv[0]);
    return 0;
  }
  if (std::strcmp(argv[1], "summary") == 0) {
    return runSummary(argc - 2, argv + 2);
  }
  if (std::strcmp(argv[1], "verify") == 0) {
    return runVerify(argc - 2, argv + 2);
  }
  if (std::strcmp(argv[1], "faults") == 0) {
    return runFaults(argc - 2, argv + 2);
  }
  std::fprintf(stderr, "unknown subcommand: %s\n", argv[1]);
  usage(argv[0]);
  return 2;
}
