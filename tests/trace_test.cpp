// Observability subsystem: trace records, counter registry, collector
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

#include "mesh/harness/experiment.hpp"
#include "mesh/harness/scenario.hpp"
#include "mesh/net/packet.hpp"
#include "mesh/runner/result_sink.hpp"
#include "mesh/runner/sweep.hpp"
#include "mesh/trace/counter_registry.hpp"
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

// ------------------------------------------------------------ registry

TEST(CounterRegistry, SumsEverySlotRegisteredUnderOneName) {
  std::uint64_t a = 3, b = 39, other = 7;
  trace::CounterRegistry registry;
  registry.add("phy.frames_corrupted", &a);
  registry.add("phy.frames_corrupted", &b);
  registry.add("mac.enqueued", &other);

  EXPECT_EQ(registry.nameCount(), 2u);
  EXPECT_EQ(registry.value("phy.frames_corrupted"), 42u);
  EXPECT_EQ(registry.value("mac.enqueued"), 7u);
  EXPECT_EQ(registry.value("no.such.counter"), 0u);

  a = 100;  // live slots: value() reads the current counter state
  EXPECT_EQ(registry.value("phy.frames_corrupted"), 139u);

  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "mac.enqueued");  // name-sorted
  EXPECT_EQ(snapshot[1].first, "phy.frames_corrupted");
  EXPECT_EQ(snapshot[1].second, 139u);
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
