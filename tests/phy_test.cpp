// Unit tests for the PHY: propagation models, fading, radio + channel
// reception/interference behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mesh/common/rng.hpp"
#include "mesh/common/stats.hpp"
#include "mesh/common/units.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/phy/fading.hpp"
#include "mesh/phy/frame.hpp"
#include "mesh/phy/link_model.hpp"
#include "mesh/phy/propagation.hpp"
#include "mesh/phy/radio.hpp"
#include "mesh/phy/static_link_model.hpp"
#include "mesh/sim/simulator.hpp"

namespace mesh::phy {
namespace {

using namespace mesh::time_literals;

PhyParams defaultParams() { return PhyParams{}; }

// ------------------------------------------------------------ propagation

TEST(Propagation, FriisMatchesClosedForm) {
  const PhyParams p = defaultParams();
  const double lambda = p.wavelengthM();
  const double d = 100.0;
  const double expected =
      p.txPowerW * lambda * lambda / (16.0 * 9.869604401089358 * d * d);
  FriisModel friis;
  EXPECT_NEAR(friis.rxPowerW(p, {0, 0}, {d, 0}), expected, expected * 1e-9);
}

TEST(Propagation, FriisInverseSquare) {
  const PhyParams p = defaultParams();
  const double p100 = FriisModel::atDistance(p, 100.0);
  const double p200 = FriisModel::atDistance(p, 200.0);
  EXPECT_NEAR(p100 / p200, 4.0, 1e-9);
}

TEST(Propagation, TwoRayCrossoverIsContinuous) {
  const PhyParams p = defaultParams();
  const double dc = TwoRayGroundModel::crossoverDistanceM(p);
  EXPECT_GT(dc, 50.0);
  EXPECT_LT(dc, 120.0);  // ~86 m for 914 MHz, h=1.5 m
  const double below = TwoRayGroundModel::atDistance(p, dc * 0.9999);
  const double above = TwoRayGroundModel::atDistance(p, dc * 1.0001);
  EXPECT_NEAR(below / above, 1.0, 0.01);
}

TEST(Propagation, TwoRayInverseFourthBeyondCrossover) {
  const PhyParams p = defaultParams();
  const double p200 = TwoRayGroundModel::atDistance(p, 200.0);
  const double p400 = TwoRayGroundModel::atDistance(p, 400.0);
  EXPECT_NEAR(p200 / p400, 16.0, 1e-6);
}

TEST(Propagation, WaveLanConstantsGive250mRange) {
  // The classic ns-2/Glomosim calibration: mean power at 250 m equals the
  // reception threshold, at 550 m the carrier-sense threshold.
  const PhyParams p = defaultParams();
  EXPECT_NEAR(TwoRayGroundModel::atDistance(p, 250.0) / p.rxThresholdW, 1.0, 0.02);
  EXPECT_NEAR(TwoRayGroundModel::atDistance(p, 550.0) / p.csThresholdW, 1.0, 0.02);
}

TEST(Propagation, LogDistanceExponent) {
  const PhyParams p = defaultParams();
  LogDistanceModel model{3.0, 1.0};
  const double p10 = model.rxPowerW(p, {0, 0}, {10.0, 0});
  const double p20 = model.rxPowerW(p, {0, 0}, {20.0, 0});
  EXPECT_NEAR(p10 / p20, 8.0, 1e-9);
}

TEST(Propagation, ZeroDistanceIsFinite) {
  const PhyParams p = defaultParams();
  EXPECT_TRUE(std::isfinite(FriisModel::atDistance(p, 0.0)));
  EXPECT_TRUE(std::isfinite(TwoRayGroundModel::atDistance(p, 0.0)));
}

// ----------------------------------------------------------------- fading

TEST(Fading, NoFadingIsUnity) {
  Rng rng{1};
  NoFading f;
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(f.powerGain(rng), 1.0);
}

TEST(Fading, RayleighUnitMeanAndTailProbability) {
  Rng rng{2};
  RayleighFading f;
  OnlineStats s;
  int above1 = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double g = f.powerGain(rng);
    s.add(g);
    above1 += (g >= 1.0);
  }
  EXPECT_NEAR(s.mean(), 1.0, 0.02);
  EXPECT_NEAR(static_cast<double>(above1) / kN, std::exp(-1.0), 0.01);
}

TEST(Fading, RayleighSuccessProbabilityClosedForm) {
  EXPECT_NEAR(RayleighFading::successProbability(1.0), std::exp(-1.0), 1e-12);
  // Strong link (margin 39x, ~100 m in the two-ray regime): ~97.5%.
  EXPECT_GT(RayleighFading::successProbability(39.0), 0.97);
  // Weak link (margin 0.5): very lossy.
  EXPECT_LT(RayleighFading::successProbability(0.5), 0.2);
}

TEST(Fading, RiceanUnitMeanForAllK) {
  for (double k : {0.0, 1.0, 5.0, 20.0}) {
    Rng rng{3};
    RiceanFading f{k};
    OnlineStats s;
    for (int i = 0; i < 100'000; ++i) s.add(f.powerGain(rng));
    EXPECT_NEAR(s.mean(), 1.0, 0.03) << "K=" << k;
  }
}

TEST(Fading, RiceanVarianceShrinksWithK) {
  auto varianceFor = [](double k) {
    Rng rng{4};
    RiceanFading f{k};
    OnlineStats s;
    for (int i = 0; i < 50'000; ++i) s.add(f.powerGain(rng));
    return s.variance();
  };
  EXPECT_GT(varianceFor(0.0), varianceFor(5.0));
  EXPECT_GT(varianceFor(5.0), varianceFor(20.0));
}

// --------------------------------------------------- radio + channel rig

struct Rig {
  sim::Simulator simulator;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<Radio>> radios;

  // Builds a geometric rig with the given positions.
  explicit Rig(std::vector<Vec2> positions, bool rayleigh = false,
               std::uint64_t seed = 99) {
    PhyParams params;
    std::unique_ptr<FadingModel> fading;
    if (rayleigh) {
      fading = std::make_unique<RayleighFading>();
    } else {
      fading = std::make_unique<NoFading>();
    }
    auto model = std::make_unique<GeometricLinkModel>(
        params, positions, std::make_unique<TwoRayGroundModel>(),
        std::move(fading));
    channel = std::make_unique<Channel>(simulator, std::move(model),
                                        Rng{seed}.fork("channel"));
    for (std::size_t i = 0; i < positions.size(); ++i) {
      radios.push_back(std::make_unique<Radio>(
          simulator, static_cast<net::NodeId>(i), params));
      channel->attach(*radios.back());
    }
  }

  // Builds a rig over an explicit link model.
  Rig(std::unique_ptr<LinkModel> model, std::size_t n, std::uint64_t seed = 99) {
    PhyParams params;
    channel = std::make_unique<Channel>(simulator, std::move(model),
                                        Rng{seed}.fork("channel"));
    for (std::size_t i = 0; i < n; ++i) {
      radios.push_back(std::make_unique<Radio>(
          simulator, static_cast<net::NodeId>(i), params));
      channel->attach(*radios.back());
    }
  }

  PhyFramePtr frame(std::size_t bytes = 100) {
    return makeFrame(std::vector<std::uint8_t>(bytes, 0xAB), nullptr);
  }

  SimTime airtime(std::size_t bytes = 100) {
    return radios[0]->params().frameAirtime(bytes);
  }
};

TEST(Radio, DeliversFrameWithinRange) {
  Rig rig{{{0, 0}, {100, 0}}};
  int delivered = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr& f) {
        ++delivered;
        EXPECT_EQ(f->sizeBytes(), 100u);
      });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rig.radios[1]->stats().framesDelivered, 1u);
}

TEST(Radio, NoDeliveryBeyondReceptionRange) {
  // 400 m: above CS significance is possible but below RX threshold.
  Rig rig{{{0, 0}, {400, 0}}};
  int delivered = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr&) { ++delivered; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rig.radios[1]->stats().framesBelowThreshold, 1u);
}

TEST(Radio, CarrierSenseWithoutDelivery) {
  // At 400 m (between 250 m RX and 550 m CS range) the medium must read
  // busy during the frame even though nothing is decodable. Edges reach a
  // listening subscriber only, and the idle edge lands at the arrival's
  // end — which is not an event unless someone listens, so the run goes
  // to a horizon rather than draining.
  Rig rig{{{0, 0}, {400, 0}}};
  std::vector<std::pair<bool, SimTime>> edges;
  rig.radios[1]->setMediumCallback(
      [&](bool busy) { edges.emplace_back(busy, rig.simulator.now()); });
  rig.radios[1]->setMediumListening(true);
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run(1_s);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_TRUE(edges[0].first);
  EXPECT_FALSE(edges[1].first);
  const SimTime end = edges[0].second + rig.airtime();
  EXPECT_EQ(edges[1].second, end);
  EXPECT_FALSE(rig.radios[1]->mediumBusy());  // back to idle afterwards
  EXPECT_EQ(rig.radios[1]->lastIdleEdge(), end);
}

// Arrivals handed straight to one radio: `fraction` of the carrier-sense
// threshold, far below the lock threshold, starting at `at`.
void weakArrivalAt(sim::Simulator& simulator, Radio& radio, SimTime at,
                   double fraction, SimTime airtime) {
  simulator.schedule(at, [&radio, fraction, airtime] {
    const double powerW = radio.params().csThresholdW * fraction;
    ASSERT_LT(powerW, radio.params().rxThresholdW);
    radio.beginArrival(makeFrame(std::vector<std::uint8_t>(20, 0), nullptr),
                       powerW, airtime);
  });
}

TEST(Radio, LazyEndsKeepBusyTimeAndIdleEdge) {
  // Two 0.6×CS arrivals overlap on [1, 2) ms — busy only together — and a
  // 2×CS one covers [5, 6) ms. Nobody listens, so no end is an event, yet
  // busy time and the last idle edge come out exactly at the ends.
  sim::Simulator simulator;
  Radio radio{simulator, 0, PhyParams{}};
  weakArrivalAt(simulator, radio, 0_ms, 0.6, 2_ms);
  weakArrivalAt(simulator, radio, 1_ms, 0.6, 2_ms);
  weakArrivalAt(simulator, radio, 5_ms, 2.0, 1_ms);
  simulator.run(4_ms);
  EXPECT_EQ(radio.busyTime(), 1_ms);
  EXPECT_EQ(radio.lastIdleEdge(), 2_ms);
  EXPECT_FALSE(radio.mediumBusy());
  simulator.run(10_ms);
  EXPECT_EQ(radio.busyTime(), 2_ms);
  EXPECT_EQ(radio.lastIdleEdge(), 6_ms);
  EXPECT_EQ(simulator.eventsExecuted(), 3u);  // the three begins only
}

TEST(Radio, ListeningMacGetsIdleEdgeAtExactEnd) {
  // The idle edge is the first arrival's end. That end's seq was taken
  // when the arrival began, so the edge fires after an event scheduled
  // for the same instant before the begin, and before one scheduled
  // after it — exactly where the end event used to run.
  sim::Simulator simulator;
  Radio radio{simulator, 0, PhyParams{}};
  std::vector<std::string> log;
  const auto note = [&](const std::string& what) {
    log.push_back(what + "@" + std::to_string(simulator.now().ns()));
  };
  radio.setMediumCallback([&](bool busy) { note(busy ? "busy" : "idle"); });
  radio.setMediumListening(true);
  simulator.schedule(2_ms, [&] { note("before"); });
  weakArrivalAt(simulator, radio, 0_ms, 0.6, 2_ms);
  weakArrivalAt(simulator, radio, 1_ms, 0.6, 2_ms);
  simulator.schedule(1500_us, [&] {
    simulator.schedule(500_us, [&] { note("after"); });
  });
  simulator.run(10_ms);
  const std::vector<std::string> want{"busy@1000000", "before@2000000",
                                      "idle@2000000", "after@2000000"};
  EXPECT_EQ(log, want);
  EXPECT_EQ(radio.lastIdleEdge(), 2_ms);
  EXPECT_EQ(radio.busyTime(), 1_ms);

  // Unsubscribed, the next busy period passes unheard but is recorded.
  radio.setMediumListening(false);
  weakArrivalAt(simulator, radio, 0_ms, 2.0, 1_ms);
  simulator.run(20_ms);
  EXPECT_EQ(log.size(), want.size());
  EXPECT_EQ(radio.lastIdleEdge(), 11_ms);
  EXPECT_EQ(radio.busyTime(), 2_ms);
}

// Energy no frame can carry: a 300 dBm (1e27 W) burst reads busy,
// corrupts the lock in progress, and the medium goes idle at the burst's
// own end, not before and not later.
TEST(Radio, ThreeHundredDbmBurstIsBusyCorruptsAndEndsExactly) {
  Rig rig{{{0, 0}, {100, 0}}};
  Radio& rx = *rig.radios[1];
  int delivered = 0;
  rx.setReceiveCallback([&](const PhyFramePtr&) { ++delivered; });
  std::vector<std::pair<bool, SimTime>> edges;
  rx.setMediumCallback(
      [&](bool busy) { edges.emplace_back(busy, rig.simulator.now()); });
  rx.setMediumListening(true);
  const SimTime airtime = rig.airtime();
  const SimTime burstEnd = airtime / 2 + airtime;  // outlasts the frame
  rig.radios[0]->transmit(rig.frame(), airtime);
  rig.simulator.schedule(airtime / 2,
                         [&] { rx.injectNoise(dbmToWatts(300.0), airtime); });
  bool busyAfterFrame = false;
  rig.simulator.schedule(airtime + airtime / 4,
                         [&] { busyAfterFrame = rx.mediumBusy(); });
  rig.simulator.run(1_s);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rx.stats().framesCorrupted, 1u);
  EXPECT_TRUE(busyAfterFrame);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_TRUE(edges[0].first);
  EXPECT_FALSE(edges[1].first);
  EXPECT_EQ(edges[1].second, burstEnd);
  EXPECT_EQ(rx.lastIdleEdge(), burstEnd);
  EXPECT_FALSE(rx.mediumBusy());
}

// Three overlapping 23 dBm (0.2 W) bursts: 0.6 W together, more than a
// signed 64-bit count of 2^-64 W quanta holds. The medium stays busy
// while they overlap, the frame they hit is lost, and once they are gone
// the energy is back to exactly nothing: the next frame decodes.
TEST(Radio, OverlappingTwentyThreeDbmBurstsStayBusy) {
  Rig rig{{{0, 0}, {100, 0}}};
  Radio& rx = *rig.radios[1];
  int delivered = 0;
  rx.setReceiveCallback([&](const PhyFramePtr&) { ++delivered; });
  std::vector<std::pair<bool, SimTime>> edges;
  rx.setMediumCallback(
      [&](bool busy) { edges.emplace_back(busy, rig.simulator.now()); });
  rx.setMediumListening(true);
  const SimTime airtime = rig.airtime();
  rig.radios[0]->transmit(rig.frame(), airtime);
  for (const SimTime at : {100_us, 200_us, 300_us}) {
    rig.simulator.schedule(at, [&] { rx.injectNoise(dbmToWatts(23.0), airtime); });
  }
  std::vector<bool> busy;
  for (const SimTime at : {350_us, airtime + 250_us, airtime + 299_us}) {
    rig.simulator.schedule(at, [&] { busy.push_back(rx.mediumBusy()); });
  }
  const SimTime lastEnd = 300_us + airtime;
  rig.simulator.schedule(lastEnd + 1_ms, [&] {
    rig.radios[0]->transmit(rig.frame(), airtime);
  });
  rig.simulator.run(1_s);
  EXPECT_EQ(busy, (std::vector<bool>{true, true, true}));
  EXPECT_EQ(rx.stats().framesCorrupted, 1u);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rx.stats().framesDelivered, 1u);
  // Busy from the first frame's arrival to the last burst's end, then for
  // the second frame.
  ASSERT_EQ(edges.size(), 4u);
  const SimTime delay = edges[0].second;
  const std::vector<std::pair<bool, SimTime>> want{
      {true, delay},
      {false, lastEnd},
      {true, lastEnd + 1_ms + delay},
      {false, lastEnd + 1_ms + delay + airtime}};
  EXPECT_EQ(edges, want);
  EXPECT_EQ(rx.busyTime(), lastEnd - delay + airtime);
  EXPECT_FALSE(rx.mediumBusy());
}

// A -300 dBm (1e-33 W) burst is far below anything carrier sense or
// capture can resolve: the same cell with and without it makes the same
// decisions at the same instants.
TEST(Radio, MinusThreeHundredDbmBurstChangesNoDecision) {
  struct Outcome {
    std::vector<std::pair<bool, SimTime>> edges;
    RadioStats stats;
    SimTime busyTime;
  };
  const auto runCell = [](bool withBurst) {
    // A decodable sender at 100 m and a carrier-sense-only one at 400 m
    // that overlaps its frame; then a lone arrival just below carrier
    // sense.
    Rig rig{{{0, 0}, {100, 0}, {500, 0}}};
    Radio& rx = *rig.radios[1];
    Outcome out;
    rx.setMediumCallback(
        [&](bool busy) { out.edges.emplace_back(busy, rig.simulator.now()); });
    rx.setMediumListening(true);
    const SimTime airtime = rig.airtime();
    if (withBurst) {
      rig.simulator.schedule(10_us, [&] { rx.injectNoise(dbmToWatts(-300.0), 50_ms); });
    }
    rig.radios[0]->transmit(rig.frame(), airtime);
    rig.simulator.schedule(airtime / 2, [&] {
      rig.radios[2]->transmit(rig.frame(), airtime);
    });
    weakArrivalAt(rig.simulator, rx, 20_ms, 0.999, 1_ms);
    rig.simulator.run(1_s);
    out.stats = rx.stats();
    out.busyTime = rx.busyTime();
    return out;
  };
  const Outcome clean = runCell(false);
  const Outcome burst = runCell(true);
  EXPECT_EQ(burst.stats.noiseBursts, 1u);
  EXPECT_EQ(clean.stats.framesDelivered, 1u);
  EXPECT_EQ(clean.stats.framesBelowThreshold, 2u);
  EXPECT_EQ(burst.edges, clean.edges);
  EXPECT_EQ(burst.busyTime, clean.busyTime);
  EXPECT_EQ(burst.stats.framesDelivered, clean.stats.framesDelivered);
  EXPECT_EQ(burst.stats.framesCorrupted, clean.stats.framesCorrupted);
  EXPECT_EQ(burst.stats.framesBelowThreshold, clean.stats.framesBelowThreshold);
  EXPECT_EQ(burst.stats.framesMissedBusy, clean.stats.framesMissedBusy);
}

TEST(Radio, OutOfSensingRangeIsSilent) {
  Rig rig{{{0, 0}, {1400, 0}}};
  bool sensedBusy = false;
  rig.radios[1]->setMediumCallback([&](bool busy) { sensedBusy |= busy; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_FALSE(sensedBusy);
}

TEST(Radio, SimultaneousTransmissionsCollide) {
  // Two equidistant transmitters, one receiver in the middle: neither
  // frame survives the SINR check (equal power => SINR ~ 1 << 10).
  Rig rig{{{0, 0}, {200, 0}, {100, 0}}};
  int delivered = 0;
  rig.radios[2]->setReceiveCallback(
      [&](const PhyFramePtr&) { ++delivered; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.radios[1]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rig.radios[2]->stats().framesCorrupted, 1u);
}

TEST(Radio, CaptureStrongFrameSurvivesWeakInterference) {
  // Interferer far away (weak at receiver), desired sender close: the
  // locked frame's SINR stays above 10 dB and it is delivered.
  Rig rig{{{0, 0}, {500, 100}, {50, 0}}};
  int delivered = 0;
  rig.radios[2]->setReceiveCallback(
      [&](const PhyFramePtr&) { ++delivered; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.radios[1]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Radio, LateInterferenceCorruptsLockedFrame) {
  // The receiver locks onto a clean frame; halfway through, a same-power
  // transmitter starts — SINR dips, corruption is latched.
  Rig rig{{{0, 0}, {200, 0}, {100, 0}}};
  int delivered = 0;
  rig.radios[2]->setReceiveCallback(
      [&](const PhyFramePtr&) { ++delivered; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.schedule(rig.airtime() / 2, [&] {
    rig.radios[1]->transmit(rig.frame(), rig.airtime());
  });
  rig.simulator.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rig.radios[2]->stats().framesCorrupted, 1u);
}

TEST(Radio, HalfDuplexCannotReceiveWhileTransmitting) {
  Rig rig{{{0, 0}, {100, 0}}};
  int delivered = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr&) { ++delivered; });
  // Radio 1 transmits for the whole window radio 0's frame arrives in.
  rig.radios[1]->transmit(rig.frame(1000), rig.airtime(1000));
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_GE(rig.radios[1]->stats().framesMissedBusy, 1u);
}

TEST(Radio, SecondDecodableFrameWhileLockedIsMissed) {
  Rig rig{{{0, 0}, {40, 150}, {40, 0}}};
  int delivered = 0;
  rig.radios[2]->setReceiveCallback(
      [&](const PhyFramePtr&) { ++delivered; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  // Radio 1 is at 150 m from the receiver: decodable in isolation
  // (~7.7x the threshold) but ~16 dB below radio 0's 40 m frame, so it
  // cannot steal the lock and does not corrupt it either.
  rig.simulator.schedule(10_us, [&] {
    rig.radios[1]->transmit(rig.frame(), rig.airtime());
  });
  rig.simulator.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(rig.radios[2]->stats().framesMissedBusy, 1u);
}

TEST(Radio, TxStatsAccumulate) {
  Rig rig{{{0, 0}, {100, 0}}};
  rig.radios[0]->transmit(rig.frame(200), rig.airtime(200));
  rig.simulator.run();
  EXPECT_EQ(rig.radios[0]->stats().framesSent, 1u);
  EXPECT_EQ(rig.radios[0]->stats().bytesSent, 200u);
  EXPECT_EQ(rig.radios[0]->stats().airtimeTx, rig.airtime(200));
}

TEST(Radio, RayleighLinkAtNominalRangeLosesAboutSixtyPercent) {
  // A 250 m link under Rayleigh fading succeeds with probability ~ e^-1.
  // This is the "long links are lossy" regime of Section 4.2.1.
  Rig rig{{{0, 0}, {250, 0}}, /*rayleigh=*/true};
  int delivered = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr&) { ++delivered; });
  constexpr int kFrames = 4000;
  for (int i = 0; i < kFrames; ++i) {
    rig.simulator.schedule(SimTime::milliseconds(i * 10),
                           [&] { rig.radios[0]->transmit(rig.frame(), rig.airtime()); });
  }
  rig.simulator.run();
  EXPECT_NEAR(static_cast<double>(delivered) / kFrames, std::exp(-1.0), 0.03);
}

TEST(Radio, RayleighShortLinkIsReliable) {
  Rig rig{{{0, 0}, {100, 0}}, /*rayleigh=*/true};
  int delivered = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr&) { ++delivered; });
  constexpr int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    rig.simulator.schedule(SimTime::milliseconds(i * 10),
                           [&] { rig.radios[0]->transmit(rig.frame(), rig.airtime()); });
  }
  rig.simulator.run();
  EXPECT_GT(static_cast<double>(delivered) / kFrames, 0.95);
}

// ------------------------------------------------------- StaticLinkModel

TEST(StaticLinkModel, DirectedLinks) {
  auto model = std::make_unique<StaticLinkModel>(2);
  model->setLink(0, 1, 1e-9);
  // Reverse direction left at zero: the link is unidirectional.
  EXPECT_DOUBLE_EQ(model->meanRxPowerW(0, 1), 1e-9);
  EXPECT_DOUBLE_EQ(model->meanRxPowerW(1, 0), 0.0);

  Rig rig{std::move(model), 2};
  int forward = 0, backward = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr&) { ++forward; });
  rig.radios[0]->setReceiveCallback(
      [&](const PhyFramePtr&) { ++backward; });
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.schedule(100_ms, [&] {
    rig.radios[1]->transmit(rig.frame(), rig.airtime());
  });
  rig.simulator.run();
  EXPECT_EQ(forward, 1);
  EXPECT_EQ(backward, 0);
}

TEST(StaticLinkModel, BernoulliLossRate) {
  auto model = std::make_unique<StaticLinkModel>(2);
  model->setSymmetric(0, 1, 1e-9);
  model->setLossRate(0, 1, 0.4);
  Rig rig{std::move(model), 2, /*seed=*/7};
  int delivered = 0;
  rig.radios[1]->setReceiveCallback(
      [&](const PhyFramePtr&) { ++delivered; });
  constexpr int kFrames = 5000;
  for (int i = 0; i < kFrames; ++i) {
    rig.simulator.schedule(SimTime::milliseconds(i * 5),
                           [&] { rig.radios[0]->transmit(rig.frame(), rig.airtime()); });
  }
  rig.simulator.run();
  EXPECT_NEAR(static_cast<double>(delivered) / kFrames, 0.6, 0.03);
}

TEST(Channel, ReachabilityCacheSkipsFarNodes) {
  Rig rig{{{0, 0}, {100, 0}, {5000, 5000}}};
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run();
  // Only one delivery was scheduled (to the 100 m neighbor).
  EXPECT_EQ(rig.channel->stats().deliveriesScheduled, 1u);
}

TEST(Channel, StatsCountTransmissions) {
  Rig rig{{{0, 0}, {100, 0}}};
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.schedule(50_ms, [&] {
    rig.radios[1]->transmit(rig.frame(), rig.airtime());
  });
  rig.simulator.run();
  EXPECT_EQ(rig.channel->stats().transmissions, 2u);
}

// Every pair at one strong mean power and no fading; node 0's link to
// node i is distanceFromZeroM[i] long. With `cacheable` false the channel
// queries each delay live per transmission, as under mobility.
class DelayTableLinkModel final : public LinkModel {
 public:
  DelayTableLinkModel(std::vector<double> distanceFromZeroM, bool cacheable)
      : distances_{std::move(distanceFromZeroM)}, cacheable_{cacheable} {}

  double meanRxPowerW(net::NodeId, net::NodeId) const override { return 1e-6; }
  double samplePowerGivenMeanW(net::NodeId, net::NodeId, double meanPowerW,
                               Rng&) const override {
    return meanPowerW;
  }
  double distanceM(net::NodeId from, net::NodeId to) const override {
    return distances_.at(from == 0 ? to : from);
  }
  bool meansCacheable() const override { return cacheable_; }

 private:
  std::vector<double> distances_;
  bool cacheable_;
};

std::int64_t delayNs(double distanceM) {
  return SimTime::seconds(distanceM / 299'792'458.0).ns();
}

// Node 0 transmits once; returns (node, begin time) in the order the
// arrivals began, read from each receiver's busy edge.
std::vector<std::pair<net::NodeId, SimTime>> beginOrder(Rig& rig) {
  std::vector<std::pair<net::NodeId, SimTime>> begins;
  for (std::size_t i = 1; i < rig.radios.size(); ++i) {
    Radio& radio = *rig.radios[i];
    radio.setMediumCallback([&begins, &radio, &rig](bool busy) {
      if (busy) begins.emplace_back(radio.nodeId(), rig.simulator.now());
    });
    radio.setMediumListening(true);
  }
  rig.radios[0]->transmit(rig.frame(), rig.airtime());
  rig.simulator.run(1_s);
  return begins;
}

TEST(Channel, FanoutBeginsFireInDelayThenRowOrder) {
  // Delays tie in pairs at 0, 500, 1001 and 65 712 ns. The last needs a
  // third radix byte: its low 16 bits (176) alone would sort it before
  // 500 ns. Equal delays keep row (receiver index) order.
  const std::vector<double> distances{0,  19700, 300,   150, 300,
                                      10, 150,   19700, 0};
  for (const bool cacheable : {true, false}) {
    SCOPED_TRACE(cacheable ? "cached rows" : "live delays");
    Rig rig{std::make_unique<DelayTableLinkModel>(distances, cacheable),
            distances.size()};
    const auto begins = beginOrder(rig);
    ASSERT_EQ(begins.size(), distances.size() - 1);
    std::vector<std::pair<net::NodeId, SimTime>> expected;
    const std::vector<net::NodeId> order{8, 5, 3, 6, 2, 4, 1, 7};
    for (const net::NodeId node : order) {
      expected.emplace_back(node,
                            SimTime::nanoseconds(delayNs(distances[node])));
    }
    EXPECT_EQ(delayNs(19700), 65712);
    EXPECT_EQ(begins, expected);
  }
}

TEST(Channel, DelayBeyondThirtyTwoBitsOfNsIsRefused) {
  // 2e9 m is about 6.7 s of flight: more than 2^32 - 1 ns.
  const std::vector<double> distances{0, 100, 2e9};
  Rig cached{std::make_unique<DelayTableLinkModel>(distances, true), 3};
  try {
    cached.channel->rebuildReachabilityNow();
    ADD_FAILURE() << "the row build must refuse the delay";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string{e.what()}.find("does not fit"), std::string::npos)
        << e.what();
  }
  Rig live{std::make_unique<DelayTableLinkModel>(distances, false), 3};
  EXPECT_THROW(live.radios[0]->transmit(live.frame(), live.airtime()),
               std::out_of_range);
}

}  // namespace
}  // namespace mesh::phy
