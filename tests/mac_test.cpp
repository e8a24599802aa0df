// Unit and integration tests for the 802.11 DCF MAC.
//
// The key behaviours under test mirror Section 2.1 of the paper:
// broadcast = one shot, no ACK/RTS/retry, forward-direction only;
// unicast = RTS/CTS + ACK + retransmissions, bidirectional.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "mesh/mac/frames.hpp"
#include "mesh/mac/mac80211.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/phy/static_link_model.hpp"
#include "mesh/sim/simulator.hpp"

namespace mesh::mac {
namespace {

using namespace mesh::time_literals;

constexpr double kGoodPower = 1e-8;  // far above rxThreshold (3.652e-10)

net::PacketPtr makePayload(std::size_t bytes, net::NodeId origin = 0,
                           SimTime created = SimTime::zero()) {
  return net::Packet::make(net::PacketKind::Data, origin,
                           std::vector<std::uint8_t>(bytes, 0x5A), created);
}

// A rig of N MACs over a StaticLinkModel (full control of connectivity).
struct MacRig {
  sim::Simulator simulator;
  phy::StaticLinkModel* links{nullptr};  // owned by channel
  std::unique_ptr<phy::Channel> channel;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<Mac80211>> macs;
  std::vector<std::vector<std::pair<net::NodeId, std::uint64_t>>> received;

  explicit MacRig(std::size_t n, MacParams params = MacParams{},
                  std::uint64_t seed = 5) {
    auto model = std::make_unique<phy::StaticLinkModel>(n);
    links = model.get();
    channel = std::make_unique<phy::Channel>(simulator, std::move(model),
                                             Rng{seed}.fork("channel"));
    received.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      radios.push_back(std::make_unique<phy::Radio>(
          simulator, static_cast<net::NodeId>(i), phy::PhyParams{}));
      channel->attach(*radios.back());
      macs.push_back(std::make_unique<Mac80211>(
          simulator, *radios.back(), params, Rng{seed}.fork("mac", i)));
      macs.back()->setReceiveCallback(
          [this, i](const net::PacketPtr& p, net::NodeId from) {
            received[i].push_back({from, p->uid()});
          });
    }
  }

  void connect(net::NodeId a, net::NodeId b, double power = kGoodPower) {
    links->setSymmetric(a, b, power);
  }
};

// -------------------------------------------------------------- framing

TEST(Frames, SizesMatchStandard) {
  EXPECT_EQ(Frame::headerBytes(FrameType::Data), 28u);
  EXPECT_EQ(Frame::headerBytes(FrameType::Rts), 20u);
  EXPECT_EQ(Frame::headerBytes(FrameType::Cts), 14u);
  EXPECT_EQ(Frame::headerBytes(FrameType::Ack), 14u);
  EXPECT_EQ(dataFrameBytes(512), 540u);
}

TEST(Frames, HeaderRoundTrip) {
  Frame f;
  f.header.type = FrameType::Rts;
  f.header.retry = true;
  f.header.durationUs = 1234;
  f.header.dst = 7;
  f.header.src = 3;
  f.header.seq = 999;
  const auto bytes = f.serialize();
  EXPECT_EQ(bytes.size(), kRtsBytes);
  const auto parsed = Frame::parseHeader(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, FrameType::Rts);
  EXPECT_TRUE(parsed->retry);
  EXPECT_EQ(parsed->durationUs, 1234);
  EXPECT_EQ(parsed->dst, 7);
  EXPECT_EQ(parsed->src, 3);
  EXPECT_EQ(parsed->seq, 999);
}

TEST(Frames, DataCarriesPayloadBytes) {
  Frame f;
  f.header.type = FrameType::Data;
  f.payload = makePayload(512);
  const auto bytes = f.serialize();
  EXPECT_EQ(bytes.size(), 540u);
  EXPECT_EQ(f.sizeBytes(), 540u);
}

TEST(Frames, ParseRejectsGarbage) {
  std::vector<std::uint8_t> tiny(4, 0);
  EXPECT_FALSE(Frame::parseHeader(tiny).has_value());
  std::vector<std::uint8_t> badType(kCtsBytes, 0);
  badType[0] = 0x7F;
  EXPECT_FALSE(Frame::parseHeader(badType).has_value());
}

// ------------------------------------------------------------- broadcast

TEST(MacBroadcast, DeliversToAllNeighbors) {
  MacRig rig{3};
  rig.connect(0, 1);
  rig.connect(0, 2);
  rig.macs[0]->send(makePayload(512), net::kBroadcastNode);
  rig.simulator.run();
  EXPECT_EQ(rig.received[1].size(), 1u);
  EXPECT_EQ(rig.received[2].size(), 1u);
  EXPECT_EQ(rig.macs[0]->stats().broadcastSent, 1u);
}

TEST(MacBroadcast, NoAckNoRtsNoRetry) {
  MacRig rig{2};
  rig.connect(0, 1);
  rig.macs[0]->send(makePayload(1000), net::kBroadcastNode);  // above RTS thr.
  rig.simulator.run();
  const MacStats& s = rig.macs[0]->stats();
  EXPECT_EQ(s.broadcastSent, 1u);
  EXPECT_EQ(s.rtsSent, 0u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(rig.macs[1]->stats().ackSent, 0u);
  EXPECT_EQ(rig.macs[1]->stats().ctsSent, 0u);
}

TEST(MacBroadcast, OneShotEvenWhenNobodyReceives) {
  MacRig rig{2};  // no links at all
  rig.macs[0]->send(makePayload(512), net::kBroadcastNode);
  rig.simulator.run();
  EXPECT_EQ(rig.macs[0]->stats().broadcastSent, 1u);
  EXPECT_EQ(rig.macs[0]->stats().retries, 0u);
  EXPECT_TRUE(rig.received[1].empty());
}

TEST(MacBroadcast, ForwardDirectionOnly) {
  // A->B works, B->A is dead. Broadcast from A must still go through:
  // link-layer broadcast needs no reverse path (Section 2.1).
  MacRig rig{2};
  rig.links->setLink(0, 1, kGoodPower);
  rig.macs[0]->send(makePayload(512), net::kBroadcastNode);
  rig.simulator.run();
  EXPECT_EQ(rig.received[1].size(), 1u);
}

TEST(MacBroadcast, BackToBackFramesAllDelivered) {
  MacRig rig{2};
  rig.connect(0, 1);
  for (int i = 0; i < 10; ++i) {
    rig.macs[0]->send(makePayload(512), net::kBroadcastNode);
  }
  rig.simulator.run();
  EXPECT_EQ(rig.received[1].size(), 10u);
  EXPECT_EQ(rig.macs[0]->stats().broadcastSent, 10u);
}

TEST(MacBroadcast, QueueOverflowDropsTail) {
  MacParams params;
  params.queueLimit = 4;
  MacRig rig{2, params};
  rig.connect(0, 1);
  for (int i = 0; i < 10; ++i) {
    rig.macs[0]->send(makePayload(512), net::kBroadcastNode);
  }
  rig.simulator.run();
  EXPECT_GT(rig.macs[0]->stats().queueDrops, 0u);
  EXPECT_EQ(rig.received[1].size(),
            rig.macs[0]->stats().enqueued);
}

// --------------------------------------------------------------- unicast

TEST(MacUnicast, SmallFrameUsesDataAck) {
  MacRig rig{2};
  rig.connect(0, 1);
  bool ok = false;
  rig.macs[0]->setTxStatusCallback(
      [&](const net::PacketPtr&, net::NodeId, bool success) { ok = success; });
  rig.macs[0]->send(makePayload(100), 1);  // below rtsThreshold (256)
  rig.simulator.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(rig.received[1].size(), 1u);
  EXPECT_EQ(rig.macs[0]->stats().rtsSent, 0u);
  EXPECT_EQ(rig.macs[1]->stats().ackSent, 1u);
}

TEST(MacUnicast, LargeFrameUsesRtsCtsDataAck) {
  MacRig rig{2};
  rig.connect(0, 1);
  rig.macs[0]->send(makePayload(512), 1);
  rig.simulator.run();
  EXPECT_EQ(rig.received[1].size(), 1u);
  EXPECT_EQ(rig.macs[0]->stats().rtsSent, 1u);
  EXPECT_EQ(rig.macs[1]->stats().ctsSent, 1u);
  EXPECT_EQ(rig.macs[0]->stats().unicastSent, 1u);
  EXPECT_EQ(rig.macs[1]->stats().ackSent, 1u);
}

TEST(MacUnicast, RetriesThenDropsWhenReceiverUnreachable) {
  MacRig rig{2};  // no link
  bool reported = true;
  rig.macs[0]->setTxStatusCallback(
      [&](const net::PacketPtr&, net::NodeId, bool success) { reported = success; });
  rig.macs[0]->send(makePayload(100), 1);
  rig.simulator.run();
  EXPECT_FALSE(reported);
  const MacStats& s = rig.macs[0]->stats();
  EXPECT_EQ(s.retryDrops, 1u);
  // shortRetryLimit (7) failures after the first attempt.
  EXPECT_EQ(s.retries, 8u);
  EXPECT_EQ(s.ackTimeouts, 8u);
}

TEST(MacUnicast, RtsRetriesUseShortLimit) {
  MacRig rig{2};  // no link: RTS never answered
  rig.macs[0]->send(makePayload(512), 1);
  rig.simulator.run();
  const MacStats& s = rig.macs[0]->stats();
  EXPECT_EQ(s.retryDrops, 1u);
  EXPECT_EQ(s.ctsTimeouts, 8u);
  EXPECT_EQ(s.unicastSent, 0u);  // data never got a chance
}

TEST(MacUnicast, AsymmetricLinkFailsDespiteGoodForwardDirection) {
  // Forward A->B perfect, reverse dead: data arrives but ACKs cannot come
  // back, so unicast eventually *drops* — while broadcast on the same link
  // succeeds (previous test). This is the paper's core observation about
  // unicast needing bidirectional quality.
  MacRig rig{2};
  rig.links->setLink(0, 1, kGoodPower);
  bool ok = true;
  rig.macs[0]->setTxStatusCallback(
      [&](const net::PacketPtr&, net::NodeId, bool success) { ok = success; });
  rig.macs[0]->send(makePayload(100), 1);
  rig.simulator.run();
  EXPECT_FALSE(ok);
  // The receiver got the data (possibly many copies), delivered once.
  EXPECT_EQ(rig.received[1].size(), 1u);
  EXPECT_GT(rig.macs[0]->stats().retries, 0u);
  EXPECT_GT(rig.macs[1]->stats().dupSuppressed, 0u);
}

TEST(MacUnicast, LossyLinkEventuallySucceedsViaRetries) {
  MacRig rig{2};
  rig.connect(0, 1);
  rig.links->setSymmetricLossRate(0, 1, 0.5);
  int okCount = 0, failCount = 0;
  rig.macs[0]->setTxStatusCallback(
      [&](const net::PacketPtr&, net::NodeId, bool success) {
        success ? ++okCount : ++failCount;
      });
  for (int i = 0; i < 40; ++i) rig.macs[0]->send(makePayload(100), 1);
  rig.simulator.run();
  // With 50% loss and 8 attempts, nearly everything gets through.
  EXPECT_GT(okCount, 35);
  EXPECT_GT(rig.macs[0]->stats().retries, 0u);
  EXPECT_EQ(rig.received[1].size(), static_cast<std::size_t>(okCount));
}

// ------------------------------------------------------ medium contention

TEST(MacContention, TwoSendersShareTheMedium) {
  MacRig rig{3};
  rig.connect(0, 2);
  rig.connect(1, 2);
  rig.connect(0, 1);  // they hear each other -> CSMA applies
  for (int i = 0; i < 20; ++i) {
    rig.macs[0]->send(makePayload(512), net::kBroadcastNode);
    rig.macs[1]->send(makePayload(512), net::kBroadcastNode);
  }
  rig.simulator.run();
  // Carrier sense + backoff should avoid nearly all collisions.
  EXPECT_GE(rig.received[2].size(), 38u);
}

TEST(MacContention, HiddenTerminalsCollideWithoutRts) {
  // 0 and 1 cannot hear each other but both reach 2. Simultaneous
  // broadcast storms collide at 2 far more than in the CSMA case above.
  MacRig rig{3};
  rig.connect(0, 2);
  rig.connect(1, 2);
  for (int i = 0; i < 20; ++i) {
    rig.macs[0]->send(makePayload(512), net::kBroadcastNode);
    rig.macs[1]->send(makePayload(512), net::kBroadcastNode);
  }
  rig.simulator.run();
  EXPECT_LT(rig.received[2].size(), 20u);  // heavy losses
  EXPECT_GT(rig.radios[2]->stats().framesCorrupted, 5u);
}

TEST(MacContention, RtsCtsProtectsAgainstHiddenTerminal) {
  // Same hidden-terminal geometry, but unicast with RTS/CTS: node 1 hears
  // 2's CTS and defers (NAV), so node 0's data survives.
  MacRig rig{3};
  rig.connect(0, 2);
  rig.connect(1, 2);
  int ok0 = 0, ok1 = 0;
  rig.macs[0]->setTxStatusCallback(
      [&](const net::PacketPtr&, net::NodeId, bool s) { ok0 += s; });
  rig.macs[1]->setTxStatusCallback(
      [&](const net::PacketPtr&, net::NodeId, bool s) { ok1 += s; });
  for (int i = 0; i < 20; ++i) {
    rig.macs[0]->send(makePayload(512), 2);
    rig.macs[1]->send(makePayload(512), 2);
  }
  rig.simulator.run();
  EXPECT_EQ(ok0 + ok1, 40);
  EXPECT_EQ(rig.received[2].size(), 40u);
}

TEST(MacContention, NavSetByOverheardCts) {
  MacRig rig{3};
  rig.connect(0, 2);
  rig.connect(1, 2);
  rig.macs[0]->send(makePayload(512), 2);
  bool navSeen = false;
  // Poll node 1's NAV during the exchange.
  for (int t = 1; t < 100; ++t) {
    rig.simulator.schedule(SimTime::microseconds(std::int64_t{t * 100}), [&] {
      navSeen |= rig.macs[1]->navUntil() > rig.simulator.now();
    });
  }
  rig.simulator.run();
  EXPECT_TRUE(navSeen);
}

TEST(MacContention, ImmediateAccessWhenIdle) {
  // A single frame on an idle medium goes out after exactly DIFS-bounded
  // latency: airtime(540B) + propagation ~= delivery time.
  MacRig rig{2};
  rig.connect(0, 1);
  SimTime deliveredAt = SimTime::zero();
  rig.macs[1]->setReceiveCallback(
      [&](const net::PacketPtr&, net::NodeId) { deliveredAt = rig.simulator.now(); });
  rig.simulator.schedule(1_s, [&] {
    rig.macs[0]->send(makePayload(512), net::kBroadcastNode);
  });
  rig.simulator.run();
  const SimTime airtime = phy::PhyParams{}.frameAirtime(dataFrameBytes(512));
  // Sent immediately at 1 s (medium idle >= DIFS since t=0).
  EXPECT_EQ(deliveredAt, 1_s + airtime);
}

TEST(MacContention, IdleEdgeOnNavExpiryResumesTheCountdownOnce) {
  // Node 2 overhears 0's RTS to 1 (NAV until the exchange's end, T) and
  // carries sub-threshold noise ending exactly at T, injected before the
  // RTS set the NAV. At T the radio's idle edge runs ahead of the NAV
  // timer and resumes 2's countdown; the NAV timer must then leave it
  // alone. Re-arming it would keep the access instant but take a later
  // seq, so the access would run after an event pushed in between.
  const SimTime rtsAt = 1_ms;
  const auto exchange = [&](MacRig& rig) {
    rig.connect(0, 1);
    rig.connect(0, 2);
    rig.simulator.scheduleAt(rtsAt, [&rig] {
      rig.macs[0]->send(makePayload(512), 1);
    });
  };
  SimTime navEnd = SimTime::zero();
  {
    MacRig rig{3};
    exchange(rig);
    rig.simulator.scheduleAt(rtsAt + 500_us, [&] {
      navEnd = rig.macs[2]->navUntil();
    });
    rig.simulator.run();
  }
  ASSERT_GT(navEnd, rtsAt + 500_us);

  MacRig rig{3};
  exchange(rig);
  std::vector<std::pair<SimTime, bool>> probes;  // (instant, 2 transmitting)
  rig.simulator.scheduleAt(rtsAt + 100_us, [&] {
    rig.radios[2]->injectNoise(1e-10, navEnd - rig.simulator.now());
    // Runs at T after the idle edge (older seq) and before the NAV timer.
    rig.simulator.scheduleAt(navEnd, [&] {
      const MacParams params;
      for (int slot = 0; slot <= params.cwMin; ++slot) {
        rig.simulator.schedule(params.difs + params.slotTime * slot, [&] {
          probes.emplace_back(rig.simulator.now(),
                              rig.radios[2]->isTransmitting());
        });
      }
    });
  });
  rig.simulator.scheduleAt(rtsAt + 400_us, [&] {
    rig.macs[2]->send(makePayload(100), net::kBroadcastNode);
  });
  SimTime heardAt = SimTime::zero();
  rig.macs[0]->setReceiveCallback([&](const net::PacketPtr&, net::NodeId from) {
    if (from == 2) heardAt = rig.simulator.now();
  });
  rig.simulator.run();

  ASSERT_GT(heardAt, navEnd);
  const SimTime txStart =
      heardAt - phy::PhyParams{}.frameAirtime(dataFrameBytes(100));
  const auto probe = std::find_if(
      probes.begin(), probes.end(),
      [&](const std::pair<SimTime, bool>& p) { return p.first == txStart; });
  ASSERT_NE(probe, probes.end());
  EXPECT_TRUE(probe->second);  // the access ran ahead of the probe
}

TEST(MacTiming, BroadcastAirtimeMatchesDsssFormula) {
  // 540 B MAC frame at 2 Mbps + 192 us PLCP preamble = 2352 us.
  const phy::PhyParams params;
  EXPECT_EQ(params.frameAirtime(dataFrameBytes(512)).ns(), 2'352'000);
  // Control frames: CTS/ACK 14 B -> 248 us; RTS 20 B -> 272 us.
  EXPECT_EQ(params.frameAirtime(kCtsBytes).ns(), 248'000);
  EXPECT_EQ(params.frameAirtime(kRtsBytes).ns(), 272'000);
}

TEST(MacTiming, RadioAirtimeAccountingMatchesFramesSent) {
  MacRig rig{2};
  rig.connect(0, 1);
  for (int i = 0; i < 5; ++i) {
    rig.macs[0]->send(makePayload(512), net::kBroadcastNode);
  }
  rig.simulator.run();
  const auto& stats = rig.radios[0]->stats();
  EXPECT_EQ(stats.framesSent, 5u);
  EXPECT_EQ(stats.airtimeTx.ns(), 5 * 2'352'000);
}

TEST(MacTiming, RtsReservationCoversWholeExchange) {
  // The NAV a bystander picks up from an overheard RTS must cover the
  // CTS + DATA + ACK that follow (3 SIFS + their airtimes).
  MacRig rig{3};
  rig.connect(0, 1);
  rig.connect(0, 2);  // node 2 overhears the RTS only
  SimTime navSeen = SimTime::zero();
  rig.simulator.schedule(SimTime::milliseconds(1), [&] {
    rig.macs[0]->send(makePayload(512), 1);
  });
  // Sample node 2's NAV shortly after the RTS should have landed.
  rig.simulator.schedule(SimTime::milliseconds(2), [&] {
    navSeen = rig.macs[2]->navUntil();
  });
  rig.simulator.run();
  const phy::PhyParams params;
  const SimTime exchange = params.frameAirtime(kCtsBytes) +
                           params.frameAirtime(dataFrameBytes(512)) +
                           params.frameAirtime(kAckBytes);
  EXPECT_GT(navSeen.ns(), 0);
  // NAV end must be at least the remaining exchange duration after the
  // sample point.
  EXPECT_GE(navSeen - SimTime::milliseconds(2), exchange - SimTime::milliseconds(1));
}

TEST(MacTiming, PostTxBackoffSeparatesBackToBackFrames) {
  // Two queued broadcasts: the second must wait at least DIFS after the
  // first completes (post-transmission backoff), never less.
  MacRig rig{2};
  rig.connect(0, 1);
  std::vector<SimTime> deliveries;
  rig.macs[1]->setReceiveCallback(
      [&](const net::PacketPtr&, net::NodeId) {
        deliveries.push_back(rig.simulator.now());
      });
  rig.macs[0]->send(makePayload(512), net::kBroadcastNode);
  rig.macs[0]->send(makePayload(512), net::kBroadcastNode);
  rig.simulator.run();
  ASSERT_EQ(deliveries.size(), 2u);
  const SimTime gap = deliveries[1] - deliveries[0];
  const phy::PhyParams params;
  const SimTime airtime = params.frameAirtime(dataFrameBytes(512));
  EXPECT_GE(gap, airtime + MacParams{}.difs);
}

TEST(MacContention, DeterministicAcrossRuns) {
  auto runOnce = [] {
    MacRig rig{3, MacParams{}, /*seed=*/123};
    rig.connect(0, 2);
    rig.connect(1, 2);
    rig.connect(0, 1);
    for (int i = 0; i < 10; ++i) {
      rig.macs[0]->send(makePayload(512), net::kBroadcastNode);
      rig.macs[1]->send(makePayload(512), net::kBroadcastNode);
    }
    rig.simulator.run();
    return std::make_tuple(rig.received[2].size(),
                           rig.radios[2]->stats().framesCorrupted,
                           rig.simulator.eventsExecuted());
  };
  EXPECT_EQ(runOnce(), runOnce());
}

}  // namespace
}  // namespace mesh::mac
