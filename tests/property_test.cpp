// Property-based tests across modules: randomized sweeps of estimator
// accuracy, metric algebra, wire-format round trips, and engine stress.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "mesh/common/rng.hpp"
#include "mesh/metrics/loss_window.hpp"
#include "mesh/metrics/metric.hpp"
#include "mesh/metrics/probe_messages.hpp"
#include "mesh/odmrp/dup_cache.hpp"
#include "mesh/odmrp/messages.hpp"
#include "mesh/phy/frame.hpp"
#include "mesh/phy/phy_params.hpp"
#include "mesh/phy/radio.hpp"
#include "mesh/sim/simulator.hpp"
#include "mesh/sim/timer.hpp"

namespace mesh {
namespace {

using namespace mesh::time_literals;

// ------------------------------------------------ LossWindow ≈ true rate

class LossWindowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossWindowProperty, EstimatesBernoulliRate) {
  Rng rng{GetParam() * 101 + 17};
  const double lossRate = rng.uniform(0.0, 0.8);
  metrics::LossWindow window{10};
  SimTime t = SimTime::zero();
  const SimTime interval = 5_s;
  // Long stream; query right after the last arrival.
  SimTime lastArrival = SimTime::zero();
  for (std::uint32_t seq = 0; seq < 200; ++seq) {
    if (!rng.bernoulli(lossRate)) {
      window.onProbe(seq, t);
      lastArrival = t;
    }
    t += interval;
  }
  if (!window.hasSamples()) return;  // everything lost — nothing to check
  const double df = window.df(lastArrival, interval);
  // Window of 10 → standard error ~ sqrt(p(1-p)/10) <= 0.16.
  EXPECT_NEAR(df, 1.0 - lossRate, 0.35);
}

INSTANTIATE_TEST_SUITE_P(Rates, LossWindowProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

// ------------------------------------------------ metric algebra sweeps

class MetricAlgebra : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricAlgebra, ExtendingAPathNeverImprovesIt) {
  // Adding a (imperfect) link to a path must never make the path better —
  // for every metric. (For SPP: product with df < 1 shrinks; for additive
  // metrics: costs are positive; for METX: (c+1)/p > c when p < 1.)
  Rng rng{GetParam() * 13 + 1};
  for (const auto kind : metrics::kAllMetricKinds) {
    const auto metric = metrics::makeMetric(kind);
    double cost = metric->initialPathCost();
    for (int hop = 0; hop < 10; ++hop) {
      metrics::LinkMeasurement m;
      m.df = rng.uniform(0.05, 0.999);
      m.hasDelay = true;
      m.delayS = rng.uniform(0.001, 0.1);
      m.hasBandwidth = true;
      m.bandwidthBps = rng.uniform(1e5, 2e6);
      const double extended = metric->accumulate(cost, metric->linkCost(m));
      EXPECT_FALSE(metric->better(extended, cost))
          << metric->name() << " improved by extension at hop " << hop;
      cost = extended;
    }
  }
}

TEST_P(MetricAlgebra, BetterLinkNeverWorsensAPath) {
  // Replacing the last link with a strictly better one (higher df, lower
  // delay, higher bandwidth) must not make the path worse.
  Rng rng{GetParam() * 29 + 5};
  for (const auto kind : metrics::kAllMetricKinds) {
    const auto metric = metrics::makeMetric(kind);
    const double base = rng.uniform(0.0, 5.0);
    const double prefix =
        kind == metrics::MetricKind::Spp ? rng.uniform(0.1, 1.0) : base;

    metrics::LinkMeasurement worse;
    worse.df = rng.uniform(0.05, 0.9);
    worse.hasDelay = true;
    worse.delayS = rng.uniform(0.01, 0.1);
    worse.hasBandwidth = true;
    worse.bandwidthBps = rng.uniform(1e5, 1e6);

    metrics::LinkMeasurement better = worse;
    better.df = std::min(1.0, worse.df + rng.uniform(0.01, 0.1));
    better.delayS = worse.delayS * 0.5;
    better.bandwidthBps = worse.bandwidthBps * 2.0;

    const double withWorse = metric->accumulate(prefix, metric->linkCost(worse));
    const double withBetter = metric->accumulate(prefix, metric->linkCost(better));
    EXPECT_FALSE(metric->better(withWorse, withBetter)) << metric->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweeps, MetricAlgebra,
                         ::testing::Range<std::uint64_t>(1, 21));

// ------------------------------------------- wire-format fuzz round trips

class WireFormats : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFormats, JoinQuerySurvivesRandomFieldValues) {
  Rng rng{GetParam() * 7 + 3};
  odmrp::JoinQuery q;
  q.group = static_cast<net::GroupId>(rng.nextU64());
  q.source = static_cast<net::NodeId>(rng.nextU64());
  q.seq = static_cast<std::uint32_t>(rng.nextU64());
  q.hopCount = static_cast<std::uint8_t>(rng.nextU64());
  q.metricKind = static_cast<std::uint8_t>(rng.uniformInt(std::uint64_t{7}));
  q.prevHop = static_cast<net::NodeId>(rng.nextU64());
  q.pathCost = rng.uniform(-1.0, 1e12);
  const auto parsed = odmrp::JoinQuery::parse(q.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->group, q.group);
  EXPECT_EQ(parsed->source, q.source);
  EXPECT_EQ(parsed->seq, q.seq);
  EXPECT_EQ(parsed->hopCount, q.hopCount);
  EXPECT_EQ(parsed->prevHop, q.prevHop);
  EXPECT_DOUBLE_EQ(parsed->pathCost, q.pathCost);
}

TEST_P(WireFormats, ProbeReportsRoundTripAndSizeRule) {
  Rng rng{GetParam() * 11 + 9};
  metrics::ProbeMessage m;
  m.type = metrics::ProbeType::Single;
  m.sender = static_cast<net::NodeId>(rng.uniformInt(std::uint64_t{1000}));
  m.seq = static_cast<std::uint32_t>(rng.nextU64());
  const auto count = static_cast<std::size_t>(rng.uniformInt(0, 80));
  for (std::size_t i = 0; i < count; ++i) {
    m.report.push_back(metrics::ReportEntry{
        static_cast<net::NodeId>(i),
        metrics::ReportEntry::quantize(rng.uniform(0.0, 1.0))});
  }
  const auto bytes = m.serialize();
  // Small probes are padded to 137 B; huge reports may exceed it.
  EXPECT_GE(bytes.size(), metrics::kSmallProbeBytes);
  const auto parsed = metrics::ProbeMessage::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->report.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(parsed->report[i].neighbor, m.report[i].neighbor);
    EXPECT_EQ(parsed->report[i].dfQuantized, m.report[i].dfQuantized);
  }
}

TEST_P(WireFormats, SeqWindowAgreesWithNaiveSet) {
  // The 64-bit sliding window must agree with an exact set for any input
  // pattern whose spread stays under 64.
  Rng rng{GetParam() * 19 + 2};
  odmrp::SeqWindow window;
  std::vector<std::uint32_t> seen;
  std::uint32_t base = 0;
  for (int i = 0; i < 200; ++i) {
    base += static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{3}));
    const auto jitter = static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{8}));
    const std::uint32_t seq = base > jitter ? base - jitter : 0;
    const bool naiveNew =
        std::find(seen.begin(), seen.end(), seq) == seen.end();
    const bool windowNew = window.checkAndInsert(seq);
    // The window may conservatively call an old-but-unseen seq a
    // duplicate (outside its 64 range); it must never do the reverse.
    if (windowNew) {
      EXPECT_TRUE(naiveNew) << "seq " << seq;
    }
    if (naiveNew) seen.push_back(seq);
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, WireFormats, ::testing::Range<std::uint64_t>(1, 21));

// --------------------------------------------------------- engine stress

TEST(EngineStress, TimerChurn) {
  sim::Simulator simulator;
  Rng rng{1234};
  std::vector<std::unique_ptr<sim::Timer>> timers;
  for (int i = 0; i < 200; ++i) {
    timers.push_back(std::make_unique<sim::Timer>(simulator));
  }
  int fired = 0;
  // Repeatedly re-arm random timers from random events.
  for (int i = 0; i < 2000; ++i) {
    simulator.schedule(SimTime::milliseconds(rng.uniformInt(1, 10'000)), [&] {
      const auto pick = static_cast<std::size_t>(rng.uniformInt(std::uint64_t{200}));
      timers[pick]->start(SimTime::milliseconds(rng.uniformInt(1, 1000)),
                          [&fired] { ++fired; });
      if (rng.bernoulli(0.3)) {
        const auto kill = static_cast<std::size_t>(rng.uniformInt(std::uint64_t{200}));
        timers[kill]->cancel();
      }
    });
  }
  simulator.run();
  EXPECT_GT(fired, 500);
  EXPECT_FALSE(simulator.hasPendingEvents());
}

TEST(EngineStress, HeavyCancellationKeepsOrdering) {
  sim::Simulator simulator;
  Rng rng{77};
  std::vector<sim::EventId> ids;
  std::vector<std::int64_t> firedAt;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(simulator.schedule(
        SimTime::milliseconds(rng.uniformInt(0, 1000)),
        [&] { firedAt.push_back(simulator.now().ns()); }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) simulator.cancel(ids[i]);
  simulator.run();
  EXPECT_EQ(firedAt.size(), 2500u);
  EXPECT_TRUE(std::is_sorted(firedAt.begin(), firedAt.end()));
}

// ----------------------------------- radio medium edges vs brute force

// One energy-only arrival: never decodable, so its end is lazy.
struct EnergySpan {
  SimTime start;
  SimTime end;
  double powerW;
  bool noise;  // injectNoise() rather than beginArrival()
};

class RadioEdges : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RadioEdges, MatchABruteForceOracle) {
  // Starts and lengths on coarse grids, so that ends coincide with ends
  // and with starts; powers spread around carrier sense, so that the
  // medium flips often and ends retire in batches.
  const phy::PhyParams params;
  Rng rng{GetParam() * 7919 + 3};
  std::vector<EnergySpan> spans;
  for (int i = 0; i < 240; ++i) {
    const SimTime start = SimTime::microseconds(rng.uniformInt(0, 799) * 50);
    const SimTime length = SimTime::microseconds(rng.uniformInt(1, 8) * 100);
    spans.push_back({start, start + length,
                     params.csThresholdW * rng.uniform(0.05, 0.6),
                     rng.bernoulli(0.3)});
  }

  // Two radios hear the same schedule: `heard` reports its edges to a
  // listener, `silent` only records them, so its ends retire in batches.
  sim::Simulator simulator;
  phy::Radio heard{simulator, 0, params};
  phy::Radio silent{simulator, 1, params};
  std::vector<std::pair<bool, SimTime>> edges;
  heard.setMediumCallback(
      [&](bool busy) { edges.emplace_back(busy, simulator.now()); });
  heard.setMediumListening(true);
  const phy::PhyFramePtr frame =
      phy::makeFrame(std::vector<std::uint8_t>(20, 0), nullptr);
  for (const EnergySpan& span : spans) {
    for (phy::Radio* radio : {&heard, &silent}) {
      simulator.schedule(span.start, [radio, &span, &frame] {
        if (span.noise) {
          radio->injectNoise(span.powerW, span.end - span.start);
        } else {
          radio->beginArrival(frame, span.powerW, span.end - span.start);
        }
      });
    }
  }

  // Oracle. Every begin was scheduled before the run, so at one instant
  // all begins come before any end. Energy is counted in 2^-64 W quanta;
  // the medium is busy at ceil(csThresholdW * 2^64) or more.
  const auto quanta = [](double w) {
    return static_cast<std::int64_t>(w * 0x1p64 + 0.5);
  };
  const auto cs =
      static_cast<std::int64_t>(std::ceil(params.csThresholdW * 0x1p64));
  std::vector<SimTime> instants;
  for (const EnergySpan& span : spans) {
    instants.push_back(span.start);
    instants.push_back(span.end);
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end()), instants.end());
  std::vector<std::pair<bool, SimTime>> want;
  std::vector<bool> busyFrom;  // state from instants[i] to instants[i + 1]
  bool busy = false;
  for (const SimTime t : instants) {
    std::int64_t begun = 0;  // begins at t applied, ends at t not yet
    std::int64_t after = 0;  // every event at t applied
    for (const EnergySpan& span : spans) {
      if (span.start <= t && t <= span.end) begun += quanta(span.powerW);
      if (span.start <= t && t < span.end) after += quanta(span.powerW);
    }
    if (!busy && begun >= cs) want.emplace_back(true, t);
    if ((busy || begun >= cs) && after < cs) want.emplace_back(false, t);
    busy = after >= cs;
    busyFrom.push_back(busy);
  }
  const auto oracleBusyTime = [&](SimTime horizon) {
    SimTime total = SimTime::zero();
    for (std::size_t i = 0; i + 1 < instants.size(); ++i) {
      if (busyFrom[i] && instants[i] < horizon) {
        total += std::min(instants[i + 1], horizon) - instants[i];
      }
    }
    return total;
  };
  const auto oracleIdleEdge = [&](SimTime horizon) {
    SimTime last = SimTime::zero();
    for (const auto& [isBusy, at] : want) {
      if (!isBusy && at <= horizon) last = at;
    }
    return last;
  };

  for (std::int64_t us = 1525; us <= 45000; us += 1750) {
    const SimTime horizon = SimTime::microseconds(us);
    simulator.run(horizon);
    EXPECT_EQ(silent.busyTime(), oracleBusyTime(horizon)) << "at " << us << " us";
    EXPECT_EQ(silent.lastIdleEdge(), oracleIdleEdge(horizon)) << "at " << us << " us";
    EXPECT_EQ(heard.busyTime(), oracleBusyTime(horizon)) << "at " << us << " us";
  }
  EXPECT_GE(want.size(), 20u);
  EXPECT_EQ(edges, want);
  EXPECT_FALSE(silent.mediumBusy());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadioEdges, ::testing::Range<std::uint64_t>(1, 6));

}  // namespace
}  // namespace mesh
