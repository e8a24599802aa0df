// Observability subsystem: trace records, the counter table, collector
// export/read round trips, and — the load-bearing checks — trace exports
// that are byte-identical across sweep job counts, and a replay that
// recomputes the paper's headline metrics bit-for-bit equal to the
// harness aggregates.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mesh/app/multicast_sink.hpp"
#include "mesh/harness/counters.hpp"
#include "mesh/harness/experiment.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/net/packet.hpp"
#include "mesh/runner/result_sink.hpp"
#include "mesh/runner/sweep.hpp"
#include "mesh/trace/replay.hpp"
#include "mesh/trace/trace_collector.hpp"
#include "mesh/trace/trace_event.hpp"
#include "mesh/trace/trace_reader.hpp"

namespace mesh {
namespace {

using namespace mesh::time_literals;
using harness::BenchOptions;
using harness::ProtocolSpec;
using harness::ScenarioConfig;

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ------------------------------------------------------------ counters

TEST(Counters, SumsEachTableFieldOverNodesAndPorts) {
  sim::Simulator simulator;
  app::MulticastSink sink{simulator};
  phy::RadioStats radioA, radioB, portRadio;
  mac::MacStats macA, macB, portMac;
  net::ProtocolStats route;
  metrics::ProbeServiceStats probe;
  harness::NodeByteCounters bytes;
  radioA.framesCorrupted = 3;
  radioB.framesCorrupted = 39;
  portRadio.framesCorrupted = 100;
  radioA.framesRateCorrupted = 5;
  portRadio.framesRateCorrupted = 2;
  macA.enqueued = 7;
  portMac.enqueued = 1;
  route.dataOriginated = 11;
  bytes.probeBytesReceived = 13;

  const auto fill = [&](harness::Counters& counters) {
    counters.add({&radioA, &macA, &route, &probe, &bytes, &sink}, 0);
    counters.add({&radioB, &macB, &route, &probe, &bytes, &sink}, 1);
    // A gateway port: phy and mac only.
    counters.add({&portRadio, &portMac, nullptr, nullptr, nullptr, nullptr}, 1);
  };
  harness::Counters fixed{2, /*rateAware=*/false};
  fill(fixed);

  EXPECT_EQ(fixed.value("phy.frames_corrupted"), 142u);
  EXPECT_EQ(fixed.value("phy.frames_corrupted", 0), 3u);
  EXPECT_EQ(fixed.value("phy.frames_corrupted", 1), 139u);
  EXPECT_EQ(fixed.value("mac.enqueued"), 8u);
  EXPECT_EQ(fixed.value("mac.enqueued", 1), 1u);
  // Ports carry no routing layer: only the two nodes count.
  EXPECT_EQ(fixed.value("route.data_originated"), 22u);
  EXPECT_EQ(fixed.value("route.data_originated", 1), 11u);
  EXPECT_EQ(fixed.value("app.rx_bytes.probe"), 26u);
  EXPECT_EQ(fixed.value("app.packets_delivered"), 0u);
  EXPECT_EQ(fixed.value("no.such.counter"), 0u);
  EXPECT_EQ(fixed.sum(&net::ProtocolStats::dataOriginated, 0), 11u);

  radioA.framesCorrupted = 100;  // live fields: value() reads current state
  EXPECT_EQ(fixed.value("phy.frames_corrupted"), 239u);

  // The rate-aware row is listed only on rate-aware runs.
  EXPECT_EQ(fixed.value("phy.frames_rate_corrupted"), 0u);
  harness::Counters rateAware{2, /*rateAware=*/true};
  fill(rateAware);
  EXPECT_EQ(rateAware.value("phy.frames_rate_corrupted"), 7u);
  EXPECT_EQ(rateAware.value("phy.frames_rate_corrupted", 1), 2u);

  // A rate-aware snapshot walks the whole table: strictly name-sorted.
  const auto rateSnapshot = rateAware.snapshot();
  const auto fixedSnapshot = fixed.snapshot();
  ASSERT_EQ(rateSnapshot.size(), 44u);
  ASSERT_EQ(fixedSnapshot.size(), 43u);
  for (std::size_t i = 0; i < rateSnapshot.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(rateSnapshot[i - 1].first, rateSnapshot[i].first) << i;
    }
    EXPECT_EQ(rateSnapshot[i].second, rateAware.value(rateSnapshot[i].first));
  }
  for (const auto& [name, value] : fixedSnapshot) {
    EXPECT_NE(name, "phy.frames_rate_corrupted");
    EXPECT_EQ(value, fixed.value(name));
  }
}

// ------------------------------------------------------------ event strings

TEST(TraceEvent, EventTypeStringsRoundTrip) {
  for (std::uint8_t i = 0; i <= 10; ++i) {
    const auto type = static_cast<trace::EventType>(i);
    trace::EventType back{};
    ASSERT_TRUE(trace::eventTypeFromString(trace::toString(type), back))
        << trace::toString(type);
    EXPECT_EQ(back, type);
  }
  trace::EventType out{};
  EXPECT_FALSE(trace::eventTypeFromString("not_an_event", out));
}

TEST(TraceEvent, DropReasonStringsRoundTripAndNoneIsUnknown) {
  for (std::uint8_t i = 0; i <= 12; ++i) {
    const auto reason = static_cast<trace::DropReason>(i);
    trace::DropReason back{};
    ASSERT_TRUE(trace::dropReasonFromString(trace::toString(reason), back))
        << trace::toString(reason);
    EXPECT_EQ(back, reason);
    if (reason != trace::DropReason::Unknown) {
      EXPECT_STRNE(trace::toString(reason), "unknown");
    }
  }
  trace::DropReason out{};
  EXPECT_FALSE(trace::dropReasonFromString("cosmic_rays", out));
}

// ------------------------------------------------------------ collector

TEST(TraceCollector, ExportRoundTripsThroughTheReader) {
  const std::string path = testing::TempDir() + "trace_roundtrip.jsonl";
  trace::TraceCollector collector;

  const auto pkt = net::Packet::make(net::PacketKind::Data, net::NodeId{3},
                                     std::vector<std::uint8_t>(64, 0xAB),
                                     SimTime::milliseconds(std::int64_t{5}));
  collector.memberJoin(SimTime::zero(), net::NodeId{7}, net::GroupId{1});
  collector.packetBirth(SimTime::milliseconds(std::int64_t{5}), net::NodeId{3}, *pkt,
                        net::GroupId{1});
  collector.rxOk(SimTime::milliseconds(std::int64_t{9}), net::NodeId{7}, *pkt);
  collector.deliver(SimTime::milliseconds(std::int64_t{9}), net::NodeId{7}, *pkt, 64,
                    net::NodeId{3}, net::GroupId{1});
  collector.drop(SimTime::milliseconds(std::int64_t{11}), net::NodeId{4}, pkt.get(),
                 pkt->kind(), static_cast<std::uint32_t>(pkt->sizeBytes()),
                 trace::DropReason::PhyCollision);
  EXPECT_EQ(collector.recordCount(), 5u);

  ASSERT_TRUE(trace::TraceCollector::exportMergedJsonl(
      path, R"({"seed":42,"protocol":"ODMRP","nodes":10,"active_s":5})",
      {{"mac.enqueued", 17u}}, {&collector}));

  const trace::TraceReadResult read = trace::readTraceFile(path);
  ASSERT_TRUE(read.trace.has_value()) << read.error;
  EXPECT_EQ(read.trace->seed, 42u);
  EXPECT_EQ(read.trace->protocol, "ODMRP");
  EXPECT_EQ(read.trace->nodes, 10u);
  EXPECT_EQ(read.trace->activeS, 5.0);
  ASSERT_EQ(read.trace->counters.size(), 1u);
  EXPECT_EQ(read.trace->counters[0].first, "mac.enqueued");
  EXPECT_EQ(read.trace->counters[0].second, 17u);

  ASSERT_EQ(read.trace->records.size(), 5u);
  const auto& records = read.trace->records;
  EXPECT_EQ(records[0].type, trace::EventType::MemberJoin);
  EXPECT_EQ(records[0].group, net::GroupId{1});
  EXPECT_EQ(records[1].type, trace::EventType::PktBirth);
  EXPECT_EQ(records[1].pid, 1u);  // dense per-trace pid, not the global uid
  EXPECT_EQ(records[1].origin, net::NodeId{3});
  EXPECT_EQ(records[2].type, trace::EventType::RxOk);
  EXPECT_EQ(records[2].pid, 1u);
  EXPECT_EQ(records[3].type, trace::EventType::Deliver);
  EXPECT_EQ(records[3].timeNs, SimTime::milliseconds(std::int64_t{9}).ns());
  EXPECT_EQ(records[4].type, trace::EventType::Drop);
  EXPECT_EQ(records[4].reason, trace::DropReason::PhyCollision);
  std::remove(path.c_str());
}

TEST(TraceCollector, SpillPreservesRecordOrderAndCleansUp) {
  const std::string path = testing::TempDir() + "trace_spill.jsonl";
  const std::string spill = path + ".spill";
  // Threshold of 4 forces several spill flushes across 25 records.
  trace::TraceCollector collector{spill, 4};
  for (int i = 0; i < 25; ++i) {
    collector.memberJoin(SimTime::microseconds(std::int64_t{i}),
                         static_cast<net::NodeId>(i), net::GroupId{2});
  }
  EXPECT_EQ(collector.recordCount(), 25u);
  ASSERT_TRUE(trace::TraceCollector::exportMergedJsonl(
      path, R"({"seed":1,"protocol":"ODMRP","nodes":25,"active_s":1})", {},
      {&collector}));

  const trace::TraceReadResult read = trace::readTraceFile(path);
  ASSERT_TRUE(read.trace.has_value()) << read.error;
  ASSERT_EQ(read.trace->records.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(read.trace->records[static_cast<std::size_t>(i)].timeNs,
              SimTime::microseconds(std::int64_t{i}).ns());
    EXPECT_EQ(read.trace->records[static_cast<std::size_t>(i)].node,
              static_cast<net::NodeId>(i));
  }
  // The spill file is consumed by the export.
  std::ifstream leftover{spill};
  EXPECT_FALSE(leftover.good());
  std::remove(path.c_str());
}

TEST(TraceCollector, ExportCreatesMissingParentDirectories) {
  const std::string dir = testing::TempDir() + "trace_mkdir/nested";
  const std::string path = dir + "/out.jsonl";
  trace::TraceCollector collector;
  collector.memberJoin(SimTime::zero(), net::NodeId{0}, net::GroupId{1});
  ASSERT_TRUE(trace::TraceCollector::exportMergedJsonl(
      path, R"({"seed":1,"protocol":"ODMRP","nodes":1,"active_s":1})", {},
      {&collector}));
  EXPECT_TRUE(trace::readTraceFile(path).trace.has_value());
  std::remove(path.c_str());
}

// ------------------------------------------------------------ replay

// Small but real: 10 nodes, Rayleigh fading (so PHY drops occur), one
// group, a few seconds — the runner_test sweep scenario.
ScenarioConfig smallScenario(std::uint64_t topologySeed) {
  ScenarioConfig config;
  config.nodeCount = 10;
  config.areaWidthM = 300.0;
  config.areaHeightM = 300.0;
  config.rayleighFading = true;
  config.duration = 6_s;
  config.traffic.payloadBytes = 128;
  config.traffic.packetsPerSecond = 10.0;
  config.traffic.start = 1_s;
  config.traffic.stop = 6_s;
  Rng groupRng = Rng{topologySeed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 1, 3, 1, groupRng);
  return config;
}

TEST(TraceReplay, RecomputesHarnessMetricsBitForBit) {
  for (const ProtocolSpec& protocol :
       {ProtocolSpec::original(), ProtocolSpec::with(metrics::MetricKind::Etx)}) {
    const std::string path = testing::TempDir() + "trace_replay_" +
                             protocol.name() + ".jsonl";
    ScenarioConfig config = smallScenario(7);
    config.protocol = protocol;
    config.seed = 7;
    config.tracePath = path;

    harness::Simulation sim{config};
    const harness::RunResults results = sim.run();

    const trace::TraceReadResult read = trace::readTraceFile(path);
    ASSERT_TRUE(read.trace.has_value()) << read.error;
    const trace::TraceSummary summary = trace::summarizeTrace(*read.trace);

    // Bit-exact, not approximate: the replay replicates the harness
    // arithmetic expression-for-expression.
    EXPECT_EQ(summary.packetsSent, results.packetsSent);
    EXPECT_EQ(summary.expectedDeliveries, results.expectedDeliveries);
    EXPECT_EQ(summary.packetsDelivered, results.packetsDelivered);
    EXPECT_EQ(summary.pdr, results.pdr);
    EXPECT_EQ(summary.meanDelayS, results.meanDelayS);
    EXPECT_EQ(summary.throughputBps, results.throughputBps);
    EXPECT_EQ(summary.probeBytesReceived, results.probeBytesReceived);
    EXPECT_EQ(summary.dataBytesReceived, results.dataBytesReceived);
    EXPECT_EQ(summary.controlBytesReceived, results.controlBytesReceived);
    EXPECT_EQ(summary.probeOverheadPct, results.probeOverheadPct);

    // A lossy channel produced drops, and every one carries a real reason.
    EXPECT_GT(summary.dropCount, 0u);
    EXPECT_EQ(summary.unknownReasonDrops, 0u);
    EXPECT_EQ(summary.deliversWithoutBirth, 0u);
    std::remove(path.c_str());
  }
}

TEST(TraceReplay, TamperedCounterLineFailsTheRecordAudit) {
  const std::string path = testing::TempDir() + "trace_counters.jsonl";
  ScenarioConfig config = smallScenario(9);
  config.protocol = ProtocolSpec::with(metrics::MetricKind::Etx);
  config.seed = 9;
  config.tracePath = path;
  harness::Simulation sim{config};
  sim.run();

  const trace::TraceReadResult read = trace::readTraceFile(path);
  ASSERT_TRUE(read.trace.has_value()) << read.error;
  const trace::TraceSummary clean = trace::summarizeTrace(*read.trace);
  EXPECT_TRUE(clean.counterMismatches.empty())
      << clean.counterMismatches.front().counter;

  // Bump one counter line by one; nothing else changes.
  std::string bytes = slurp(path);
  const std::string key = R"({"counter":"mac.enqueued","value":)";
  const std::size_t at = bytes.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t digits = at + key.size();
  const std::size_t end = bytes.find('}', digits);
  const std::uint64_t enqueued = std::stoull(bytes.substr(digits, end - digits));
  ASSERT_GT(enqueued, 0u);
  bytes.replace(digits, end - digits, std::to_string(enqueued + 1));
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << bytes;
  }

  const trace::TraceReadResult tampered = trace::readTraceFile(path);
  ASSERT_TRUE(tampered.trace.has_value()) << tampered.error;
  const trace::TraceSummary summary = trace::summarizeTrace(*tampered.trace);
  ASSERT_EQ(summary.counterMismatches.size(), 1u);
  EXPECT_EQ(summary.counterMismatches[0].counter, "mac.enqueued");
  EXPECT_EQ(summary.counterMismatches[0].value, enqueued + 1);
  EXPECT_EQ(summary.counterMismatches[0].records, enqueued);
  std::remove(path.c_str());
}

TEST(TraceReader, NarrowedFieldsOutOfRangeAreLineNumberedErrors) {
  // Each field is narrowed into a smaller record field; a value outside
  // [0, max] must be refused with the line, never wrapped or dropped
  // (65547 used to read as node 11, -1 as an absent field). The maximum
  // itself still reads.
  struct Row {
    const char* record;
    const char* error;  // empty: reads
  };
  const std::vector<Row> rows = {
      {R"({"t":1,"ev":"deliver","node":65547,"pid":1,"kind":"data","bytes":512,"origin":0,"group":1})",
       R"("node" must be an integer in 0..65535, got 65547)"},
      {R"({"t":1,"ev":"deliver","node":65535,"pid":4294967295,"kind":"data","bytes":4294967295,"origin":65535,"group":65535})",
       ""},
      {R"({"t":1,"ev":"deliver","node":1,"pid":4294967296,"kind":"data","bytes":1})",
       R"("pid" must be an integer in 0..4294967295, got 4294967296)"},
      {R"({"t":1,"ev":"deliver","node":1,"pid":-1,"kind":"data","bytes":1})",
       R"("pid" must be an integer in 0..4294967295, got -1)"},
      {R"({"t":1,"ev":"deliver","node":1,"pid":99999999999999999999,"kind":"data","bytes":1})",
       R"("pid" must be an integer in 0..4294967295, got 99999999999999999999)"},
      {R"({"t":1,"ev":"deliver","node":-1,"pid":1,"kind":"data","bytes":1})",
       R"("node" must be an integer in 0..65535, got -1)"},
      {R"({"t":1,"ev":"deliver","node":1,"pid":1,"kind":"data","bytes":4294967296})",
       R"("bytes" must be an integer in 0..4294967295, got 4294967296)"},
      {R"({"t":1,"ev":"forward","node":1,"pid":1,"kind":"data","bytes":1,"origin":65536,"group":1})",
       R"("origin" must be an integer in 0..65535, got 65536)"},
      {R"({"t":1,"ev":"member_join","node":1,"group":65536})",
       R"("group" must be an integer in 0..65535, got 65536)"},
      {R"({"t":1,"ev":"fault_inject","node":1,"fault":"blackout","peer":65536})",
       R"("peer" must be an integer in 0..65535, got 65536)"},
      {R"({"t":1,"ev":"tx_start","node":1,"pid":1,"kind":"data","bytes":1,"rate":255,"channel":254})",
       ""},
      {R"({"t":1,"ev":"tx_start","node":1,"pid":1,"kind":"data","bytes":1,"rate":256})",
       R"("rate" must be an integer in 0..255, got 256)"},
      {R"({"t":1,"ev":"tx_start","node":1,"pid":1,"kind":"data","bytes":1,"channel":255})",
       R"("channel" must be an integer in 0..254, got 255)"},
      {R"({"t":1,"ev":"gateway_handoff","node":1,"pid":1,"kind":"data","bytes":1,"src_ch":255,"channel":0})",
       R"("src_ch" must be an integer in 0..254, got 255)"},
      {R"({"t":1,"ev":"gateway_handoff","node":1,"pid":1,"kind":"data","bytes":1,"channel":0})",
       "gateway_handoff record without src_ch"},
  };
  const std::string path = testing::TempDir() + "trace_hostile.jsonl";
  for (const Row& row : rows) {
    {
      std::ofstream out{path, std::ios::binary | std::ios::trunc};
      out << R"({"seed":3,"protocol":"ODMRP","nodes":20,"active_s":100})"
          << "\n" << row.record << "\n";
    }
    const trace::TraceReadResult read = trace::readTraceFile(path);
    if (std::string{row.error}.empty()) {
      EXPECT_TRUE(read.trace.has_value()) << row.record << ": " << read.error;
    } else {
      EXPECT_FALSE(read.trace.has_value()) << row.record;
      EXPECT_EQ(read.error, path + ":2: " + row.error);
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------ sweeps

BenchOptions traceSweepOptions(std::size_t jobs, const std::string& traceDir) {
  BenchOptions options;
  options.topologies = 2;
  options.duration = SimTime::zero();  // keep the scenario's 6 s
  options.baseSeed = 1000;
  options.verbose = false;
  options.jobs = jobs;
  options.traceDir = traceDir;
  return options;
}

TEST(TraceSweep, ExportsAreByteIdenticalAcrossJobCounts) {
  const std::vector<ProtocolSpec> protocols = {
      ProtocolSpec::original(), ProtocolSpec::with(metrics::MetricKind::Spp)};
  const std::string dirSerial = testing::TempDir() + "trace_jobs1";
  const std::string dirParallel = testing::TempDir() + "trace_jobs4";

  const runner::SweepReport serial = runner::runComparisonSweep(
      protocols, smallScenario, traceSweepOptions(1, dirSerial), nullptr);
  const runner::SweepReport parallel = runner::runComparisonSweep(
      protocols, smallScenario, traceSweepOptions(4, dirParallel), nullptr);
  ASSERT_EQ(serial.failures, 0u);
  ASSERT_EQ(parallel.failures, 0u);
  ASSERT_EQ(serial.records.size(), 4u);

  // Same deterministic file name per (topology, protocol, seed) cell, and
  // byte-identical contents: packet ids are normalized per trace, so the
  // nondeterministic global uid order under 4 workers cannot leak in.
  for (const runner::RunRecord& record : serial.records) {
    ASSERT_FALSE(record.tracePath.empty());
    const std::string name =
        record.tracePath.substr(record.tracePath.find_last_of('/') + 1);
    const std::string serialBytes = slurp(dirSerial + "/" + name);
    const std::string parallelBytes = slurp(dirParallel + "/" + name);
    EXPECT_FALSE(serialBytes.empty());
    EXPECT_EQ(serialBytes, parallelBytes) << name;
    std::remove((dirSerial + "/" + name).c_str());
    std::remove((dirParallel + "/" + name).c_str());
  }
}

TEST(TraceSweep, VerifyAgainstResultsCrossChecksEveryRun) {
  const std::vector<ProtocolSpec> protocols = {
      ProtocolSpec::original(), ProtocolSpec::with(metrics::MetricKind::Etx)};
  const std::string dir = testing::TempDir() + "trace_verify";
  const std::string results = dir + "/results.jsonl";

  {
    runner::JsonlResultSink sink{results};
    const runner::SweepReport report = runner::runComparisonSweep(
        protocols, smallScenario, traceSweepOptions(2, dir), &sink);
    ASSERT_EQ(report.failures, 0u);
  }

  const trace::VerifyReport report = trace::verifyAgainstResults(results);
  EXPECT_TRUE(report.error.empty()) << report.error;
  ASSERT_EQ(report.runs.size(), 4u);
  for (const trace::VerifyRunResult& run : report.runs) {
    EXPECT_TRUE(run.ok) << run.tracePath << ": " << run.error;
    EXPECT_TRUE(run.mismatches.empty());
    EXPECT_GT(run.records, 0u);
  }
  EXPECT_TRUE(report.ok());

  // A falsified results row must be caught: perturb one recorded pdr and
  // re-verify. The join still works; the diff fires.
  std::string text = slurp(results);
  const std::size_t at = text.find("\"pdr\":");
  ASSERT_NE(at, std::string::npos);
  text.insert(at + 6, "9");  // prepend a digit: 0.83 -> 90.83
  const std::string tampered = dir + "/tampered.jsonl";
  {
    std::ofstream out{tampered, std::ios::binary};
    out << text;
  }
  const trace::VerifyReport caught = trace::verifyAgainstResults(tampered);
  EXPECT_FALSE(caught.ok());
  std::size_t failing = 0;
  for (const trace::VerifyRunResult& run : caught.runs) {
    if (run.ok) continue;
    ++failing;
    ASSERT_FALSE(run.mismatches.empty());
    EXPECT_EQ(run.mismatches[0].field, "pdr");
  }
  EXPECT_EQ(failing, 1u);
}

}  // namespace
}  // namespace mesh
