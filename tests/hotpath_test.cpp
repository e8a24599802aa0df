// Hot-path overhaul guarantees: the allocation-free event core and the
// channel link cache must be invisible except for speed.
//
//  * (time, seq) ordering contract — the 4-ary slab heap pops in exactly
//    the order the original binary heap did: time-ascending, insertion
//    order within a tie. Verified against a recorded reference pop
//    sequence (stable sort by time over insertion order).
//  * Zero per-event heap allocations for captures ≤ 48 bytes, measured
//    with a global operator-new hook over a warmed-up queue.
//  * Determinism property: a 50-node ODMRP scenario run twice produces
//    byte-identical packet-lifecycle traces and identical aggregates.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mesh/harness/scenario.hpp"
#include "mesh/mac/mac80211.hpp"
#include "mesh/net/packet.hpp"
#include "mesh/net/pool.hpp"
#include "mesh/odmrp/messages.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/phy/fading.hpp"
#include "mesh/phy/link_model.hpp"
#include "mesh/phy/mobility.hpp"
#include "mesh/phy/propagation.hpp"
#include "mesh/sim/event_queue.hpp"
#include "mesh/sim/small_callback.hpp"

// ------------------------------------------------------ allocation hooks
// Global counting operator new/delete: this test binary owns the global
// allocator surface, so the counter sees every heap allocation made
// between two reads (including any the queue would sneak in per event).

namespace {
std::atomic<std::uint64_t> g_newCalls{0};

// Every replaced operator delete frees through here. Kept out of line so
// the compiler does not pair an inlined std::free with the operator new
// at each allocation site and report a mismatched new/delete: the two
// sides are matched by construction (the hooks below allocate with
// std::malloc).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  ++g_newCalls;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  ++g_newCalls;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
// The nothrow variants must be replaced too: libstdc++'s stable_sort
// grabs its temporary buffer through new(nothrow), and under ASan a
// default-operator-new allocation freed by the hook's std::free below
// reports an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_newCalls;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_newCalls;
  return std::malloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace mesh {
namespace {

using namespace mesh::time_literals;

// --------------------------------------------- (time, seq) pop contract

TEST(HotPath, PopSequenceMatchesStableSortByTime) {
  // The ordering contract of the original binary-heap queue, recorded as
  // a reference model: pops are a stable sort of the pushes by time.
  sim::EventQueue q;
  Rng rng{42};
  struct Ref {
    SimTime time;
    int tag;
  };
  std::vector<Ref> reference;
  std::vector<int> popped;
  const int kEvents = 500;
  for (int i = 0; i < kEvents; ++i) {
    // Few distinct times => many ties; ties must fire in push order.
    const SimTime t = SimTime::milliseconds(
        static_cast<std::int64_t>(rng.uniformInt(std::uint64_t{16})));
    reference.push_back(Ref{t, i});
    q.push(t, [i, &popped] { popped.push_back(i); });
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const Ref& a, const Ref& b) { return a.time < b.time; });
  while (!q.empty()) q.pop().callback();

  ASSERT_EQ(popped.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(popped[i], reference[i].tag) << "at pop " << i;
  }
}

TEST(HotPath, PopSequenceWithCancellationsKeepsContract) {
  sim::EventQueue q;
  Rng rng{43};
  std::vector<std::pair<SimTime, int>> reference;
  std::vector<sim::EventId> ids;
  std::vector<int> popped;
  for (int i = 0; i < 300; ++i) {
    const SimTime t = SimTime::milliseconds(
        static_cast<std::int64_t>(rng.uniformInt(std::uint64_t{8})));
    ids.push_back(q.push(t, [i, &popped] { popped.push_back(i); }));
    reference.emplace_back(t, i);
  }
  // Cancel every third push; the survivors' relative order is unchanged.
  std::vector<std::pair<SimTime, int>> survivors;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_TRUE(q.cancel(ids[i]));
    } else {
      survivors.push_back(reference[i]);
    }
  }
  std::stable_sort(survivors.begin(), survivors.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  while (!q.empty()) q.pop().callback();
  ASSERT_EQ(popped.size(), survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(popped[i], survivors[i].second);
  }
}

// ------------------------------------------------- allocation-free core

TEST(HotPath, SteadyStatePushPopAllocatesNothing) {
  sim::EventQueue q;
  Rng rng{44};
  // A 48-byte capture: the inline limit, which the largest hot-path
  // capture (a MAC response timer) must fit.
  struct Payload {
    std::array<unsigned char, 40> bytes;
    double* sink;
  };

  double sink = 0.0;
  std::int64_t t = 0;
  auto pushOne = [&] {
    Payload p{};
    p.sink = &sink;
    auto cb = [p] { *p.sink += 1.0; };
    static_assert(sim::SmallCallback::storedInline<decltype(cb)>(),
                  "hot-path payload must fit the inline buffer");
    q.push(SimTime::nanoseconds(
               t + static_cast<std::int64_t>(rng.uniformInt(std::uint64_t{1000}))),
           std::move(cb));
  };

  // Warm up: grow the slab, heap, and free list to steady state.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 256; ++i) pushOne();
    while (!q.empty()) {
      auto popped = q.pop();
      t = popped.time.ns();
      popped.callback();
    }
  }

  const std::uint64_t before = g_newCalls.load();
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 256; ++i) pushOne();
    while (!q.empty()) {
      auto popped = q.pop();
      t = popped.time.ns();
      popped.callback();
    }
  }
  const std::uint64_t after = g_newCalls.load();
  EXPECT_EQ(after, before)
      << "steady-state push/pop of <=48-byte captures must not allocate";
  EXPECT_GT(sink, 0.0);
}

TEST(HotPath, OversizedCapturesFallBackToHeap) {
  sim::EventQueue q;
  std::array<char, 96> big{};
  big[0] = 1;
  int out = 0;
  const std::uint64_t before = g_newCalls.load();
  q.push(1_s, [big, &out] { out = big[0]; });
  const std::uint64_t after = g_newCalls.load();
  EXPECT_GT(after, before);  // capture went to the heap fallback...
  q.pop().callback();
  EXPECT_EQ(out, 1);  // ...and still runs correctly
}

// ------------------------- steady-state frame round trip (zero alloc)

// Twelve MACs over a geometric channel, all inside one reach disk; node 0
// sends pooled ODMRP-style data packets (header + 512 B payload serialized
// straight into the slab) and every receiver's MAC hands the payload up,
// where the rx callback decodes the DataHeader through the packet's view
// cache. This is the full tx→MAC→channel→rx→parse round trip of DESIGN
// §12: after warm-up it must never touch the heap — for the cached-means
// channel path and for the mobility path (live sampling + periodic
// reachability refreshes) alike.
struct RoundTripRig {
  sim::Simulator simulator;
  net::PacketPool pool;
  net::PacketPool* prevPool{nullptr};
  std::unique_ptr<phy::Channel> channel;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<mac::Mac80211>> macs;
  std::uint64_t decoded{0};
  std::uint32_t seq{0};

  explicit RoundTripRig(bool mobile) {
    prevPool = net::PacketPool::setCurrent(&pool);
    const std::size_t n = 12;
    const phy::PhyParams params;
    std::vector<Vec2> positions;
    Rng place{21};
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back(
          {place.uniform(0.0, 300.0), place.uniform(0.0, 300.0)});
    }
    std::unique_ptr<phy::LinkModel> model;
    if (mobile) {
      phy::RandomWaypointMobility::Params mp;
      mp.areaWidthM = 300.0;
      mp.areaHeightM = 300.0;
      mp.horizon = SimTime::seconds(std::int64_t{120});
      model = std::make_unique<phy::MobileGeometricLinkModel>(
          simulator, params,
          std::make_unique<phy::RandomWaypointMobility>(n, mp, Rng{22}),
          std::make_unique<phy::TwoRayGroundModel>(),
          std::make_unique<phy::RayleighFading>());
    } else {
      model = std::make_unique<phy::GeometricLinkModel>(
          params, positions, std::make_unique<phy::TwoRayGroundModel>(),
          std::make_unique<phy::RayleighFading>());
    }
    channel =
        std::make_unique<phy::Channel>(simulator, std::move(model), Rng{23});
    if (mobile) channel->enableReachabilityRefresh(200_ms);
    for (std::size_t i = 0; i < n; ++i) {
      radios.push_back(std::make_unique<phy::Radio>(
          simulator, static_cast<net::NodeId>(i), params));
      channel->attach(*radios.back());
      macs.push_back(std::make_unique<mac::Mac80211>(
          simulator, *radios.back(), mac::MacParams{},
          Rng{24}.fork("mac", i)));
      macs.back()->setReceiveCallback(
          [this](const net::PacketPtr& p, net::NodeId) {
            if (odmrp::DataHeader::decode(*p) != nullptr) ++decoded;
          });
    }
  }
  ~RoundTripRig() { net::PacketPool::setCurrent(prevPool); }

  void pump(int sends, SimTime gap) {
    for (int i = 0; i < sends; ++i) {
      odmrp::DataHeader h;
      h.group = 1;
      h.source = 0;
      h.seq = ++seq;
      auto p = net::Packet::build(
          net::PacketKind::Data, 0, odmrp::kDataHeaderBytes + 512,
          simulator.now(), 0, [&h](net::ByteWriter& w) {
            h.writeTo(w);
            w.zeros(512);
          });
      // Mostly broadcast (the multicast flood service); every fourth send
      // is a unicast so ACK frames flow through the pooled path too.
      const net::NodeId dst =
          i % 4 == 3 ? net::NodeId{1} : net::kBroadcastNode;
      macs[0]->send(std::move(p), dst);
      simulator.run(simulator.now() + gap);  // drain + advance the clock
    }
  }
};

TEST(HotPath, SteadyStateRoundTripAllocatesNothingCachedMeans) {
  RoundTripRig rig{/*mobile=*/false};
  rig.pump(64, 100_ms);  // warm-up: slabs, rings, arrival vectors, rows
  const std::uint64_t before = g_newCalls.load();
  rig.pump(64, 100_ms);
  EXPECT_EQ(g_newCalls.load(), before)
      << "steady-state tx->MAC->channel->rx->parse must not allocate";
  EXPECT_GT(rig.decoded, 0u);
}

TEST(HotPath, SteadyStateRoundTripAllocatesNothingUnderMobility) {
  RoundTripRig rig{/*mobile=*/true};
  // The warm-up spans many 200 ms reachability refreshes, so row/grid
  // buffers reach their high-water marks before the measured window.
  rig.pump(64, 100_ms);
  const std::uint64_t before = g_newCalls.load();
  rig.pump(64, 100_ms);
  EXPECT_EQ(g_newCalls.load(), before)
      << "mobility refreshes must reuse reachability buffers";
  EXPECT_GT(rig.decoded, 0u);
}

// --------------------------------------------- determinism property test

std::string fileBytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

harness::ScenarioConfig fiftyNodeOdmrpScenario(const std::string& tracePath) {
  harness::ScenarioConfig config = harness::paperSimulationScenario();
  config.seed = 12345;
  config.duration = 40_s;
  config.traffic.start = 5_s;
  config.traffic.stop = 40_s;
  Rng groupRng = Rng{config.seed}.fork("groups");
  config.groups = harness::makeRandomGroups(config.nodeCount, 2, 10, 1, groupRng);
  config.protocol = harness::ProtocolSpec::with(metrics::MetricKind::Spp);
  config.tracePath = tracePath;
  return config;
}

TEST(HotPath, FiftyNodeOdmrpRunIsByteIdenticalAcrossRuns) {
  const std::string dir = ::testing::TempDir();
  const std::string traceA = dir + "/hotpath_det_a.trace.jsonl";
  const std::string traceB = dir + "/hotpath_det_b.trace.jsonl";

  harness::Simulation simA{fiftyNodeOdmrpScenario(traceA)};
  const harness::RunResults a = simA.run();
  harness::Simulation simB{fiftyNodeOdmrpScenario(traceB)};
  const harness::RunResults b = simB.run();

  // Aggregates identical to the last bit...
  EXPECT_EQ(a.packetsSent, b.packetsSent);
  EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
  EXPECT_EQ(a.pdr, b.pdr);
  EXPECT_EQ(a.meanDelayS, b.meanDelayS);
  EXPECT_EQ(a.throughputBps, b.throughputBps);
  EXPECT_EQ(a.probeOverheadPct, b.probeOverheadPct);

  // ...and the full packet-lifecycle trace byte-identical.
  const std::string bytesA = fileBytes(traceA);
  const std::string bytesB = fileBytes(traceB);
  ASSERT_FALSE(bytesA.empty());
  EXPECT_TRUE(bytesA == bytesB) << "trace outputs diverged";
  // A real simulation happened (tens of thousands of events minimum).
  EXPECT_GT(a.eventsExecuted, 100000u);
}

}  // namespace
}  // namespace mesh
