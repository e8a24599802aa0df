// Unit tests for the discrete-event engine: EventQueue, Simulator, Timer.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "mesh/common/rng.hpp"

#include "mesh/sim/event_queue.hpp"
#include "mesh/sim/small_callback.hpp"
#include "mesh/sim/simulator.hpp"
#include "mesh/sim/timer.hpp"

namespace mesh::sim {
namespace {

using namespace mesh::time_literals;

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3_s, [&] { order.push_back(3); });
  q.push(1_s, [&] { order.push_back(1); });
  q.push(2_s, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.push(5_s, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  q.push(1_s, [&] { ++fired; });
  const EventId id = q.push(2_s, [&] { fired += 10; });
  q.push(3_s, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1_s, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelNullHandle) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId id = q.push(1_s, [] {});
  q.push(2_s, [] {});
  q.cancel(id);
  EXPECT_EQ(q.nextTime(), 2_s);
}

// Regression: the lazy-cancel design recorded a cancel of an already-fired
// event forever (unbounded cancelled-set growth) and decremented live_,
// corrupting empty()/size(). Generation-tagged ids must reject fired
// handles outright.
TEST(EventQueue, CancelAfterFireIsRejected) {
  EventQueue q;
  const EventId id = q.push(1_s, [] {});
  q.push(2_s, [] {});
  q.pop().callback();  // fires the 1_s event
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);  // bookkeeping intact
  EXPECT_FALSE(q.empty());
  q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));  // still rejected on an empty queue
}

TEST(EventQueue, StaleHandleCannotCancelReusedSlot) {
  EventQueue q;
  const EventId stale = q.push(1_s, [] {});
  q.pop();  // slot returns to the free list
  int fired = 0;
  q.push(1_s, [&] { ++fired; });  // reuses the slot, new generation
  EXPECT_FALSE(q.cancel(stale));
  q.pop().callback();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelledHandleStaysDeadAfterSlotReuse) {
  EventQueue q;
  const EventId id = q.push(1_s, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  int fired = 0;
  q.push(1_s, [&] { ++fired; });
  EXPECT_FALSE(q.cancel(id));
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, MoveOnlyCapture) {
  EventQueue q;
  auto box = std::make_unique<int>(41);
  int seen = 0;
  q.push(1_s, [box = std::move(box), &seen] { seen = *box + 1; });
  q.pop().callback();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueue, ClearEmpties) {
  EventQueue q;
  q.push(1_s, [] {});
  q.push(2_s, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// ---------------------------------------------------------- SmallCallback

TEST(SmallCallback, InlineVsHeapStorageBySize) {
  // The hot-path captures must stay inline; oversized ones fall to heap.
  struct Fits {
    std::array<char, SmallCallback::kInlineBytes> pad;
    void operator()() const {}
  };
  struct Oversized {
    std::array<char, SmallCallback::kInlineBytes + 1> pad;
    void operator()() const {}
  };
  static_assert(SmallCallback::storedInline<Fits>());
  static_assert(!SmallCallback::storedInline<Oversized>());

  SmallCallback inlineCb{Fits{}};
  SmallCallback heapCb{Oversized{}};
  EXPECT_TRUE(static_cast<bool>(inlineCb));
  EXPECT_TRUE(static_cast<bool>(heapCb));
  inlineCb();
  heapCb();
}

TEST(SmallCallback, InvokesAndMoves) {
  int count = 0;
  SmallCallback a{[&count] { ++count; }};
  a();
  EXPECT_EQ(count, 1);
  SmallCallback b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(count, 2);
  SmallCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(count, 3);
}

TEST(SmallCallback, MoveOnlyCaptureInlineAndHeap) {
  // unique_ptr capture: rejected by std::function, required here. Test
  // both storage classes so the heap manager's pointer-steal is covered.
  int seen = 0;
  SmallCallback small{[p = std::make_unique<int>(7), &seen] { seen = *p; }};
  SmallCallback moved{std::move(small)};
  moved();
  EXPECT_EQ(seen, 7);

  std::array<char, 64> pad{};
  pad[0] = 3;
  auto bigLambda = [p = std::make_unique<int>(4), pad, &seen] {
    seen = *p + pad[0];
  };
  static_assert(!SmallCallback::storedInline<decltype(bigLambda)>());
  SmallCallback big{std::move(bigLambda)};
  SmallCallback bigMoved{std::move(big)};
  bigMoved();
  EXPECT_EQ(seen, 7);
}

TEST(SmallCallback, DestroysCaptureExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    SmallCallback cb{[counter] { }};
    EXPECT_EQ(counter.use_count(), 2);
    SmallCallback moved{std::move(cb)};
    EXPECT_EQ(counter.use_count(), 2);  // relocation, not duplication
  }
  EXPECT_EQ(counter.use_count(), 1);
}

// -------------------------------------------------------------- Simulator

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator s;
  SimTime seen = SimTime::zero();
  s.schedule(5_s, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 5_s);
  EXPECT_EQ(s.now(), 5_s);
}

TEST(Simulator, RelativeSchedulingComposes) {
  Simulator s;
  std::vector<std::int64_t> times;
  s.schedule(1_s, [&] {
    times.push_back(s.now().ns());
    s.schedule(2_s, [&] { times.push_back(s.now().ns()); });
  });
  s.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{1'000'000'000, 3'000'000'000}));
}

TEST(Simulator, RunUntilHorizonStopsAndAdvancesClock) {
  Simulator s;
  int fired = 0;
  s.schedule(1_s, [&] { ++fired; });
  s.schedule(10_s, [&] { ++fired; });
  const auto executed = s.run(5_s);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5_s);   // clock parked at horizon
  EXPECT_TRUE(s.hasPendingEvents());
  s.run();                   // resume
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 10_s);
}

TEST(Simulator, EventAtHorizonStillFires) {
  Simulator s;
  int fired = 0;
  s.schedule(5_s, [&] { ++fired; });
  s.run(5_s);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopHaltsRun) {
  Simulator s;
  int fired = 0;
  s.schedule(1_s, [&] { ++fired; s.stop(); });
  s.schedule(2_s, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.hasPendingEvents());
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  int fired = 0;
  const EventId id = s.schedule(1_s, [&] { ++fired; });
  s.cancel(id);
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  SimTime seen = SimTime::max();
  s.schedule(2_s, [&] {
    s.schedule(SimTime::seconds(-1.0), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, 2_s);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(SimTime::milliseconds(i), [] {});
  s.run();
  EXPECT_EQ(s.eventsExecuted(), 7u);
}

TEST(Simulator, DeterministicInterleaving) {
  // Two simulators fed identically must execute identically.
  auto trace = [] {
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      s.schedule(SimTime::milliseconds(i % 7), [&order, i] { order.push_back(i); });
    }
    s.run();
    return order;
  };
  EXPECT_EQ(trace(), trace());
}

// A reservation takes the seq an immediate push would have taken: a random
// mix of pushes and reserve-now-push-later pops exactly like a stable sort
// of every operation by (time, operation order).
TEST(Simulator, ReservedSeqOrdersLikeImmediatePush) {
  Simulator s;
  Rng rng{17};
  struct Op {
    SimTime at;
    int id;
    std::uint64_t seq;  // 0: pushed at once
  };
  std::vector<Op> ops;
  std::vector<int> fired;
  for (int id = 0; id < 400; ++id) {
    const SimTime at =
        SimTime::microseconds(static_cast<std::int64_t>(rng.uniformInt(std::uint64_t{40})));
    if (rng.bernoulli(0.5)) {
      s.scheduleAt(at, [&fired, id] { fired.push_back(id); });
      ops.push_back(Op{at, id, 0});
    } else {
      ops.push_back(Op{at, id, s.reserveSeq()});
    }
  }
  std::vector<Op> late;
  for (const Op& op : ops) {
    if (op.seq != 0) late.push_back(op);
  }
  for (std::size_t i = late.size(); i > 1; --i) {  // push in shuffled order
    std::swap(late[i - 1], late[static_cast<std::size_t>(rng.uniformInt(std::uint64_t{i}))]);
  }
  for (const Op& op : late) {
    s.scheduleReservedAt(op.at, op.seq, [&fired, id = op.id] { fired.push_back(id); });
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const Op& a, const Op& b) { return a.at < b.at; });
  std::vector<int> want;
  for (const Op& op : ops) want.push_back(op.id);
  s.run();
  EXPECT_EQ(fired, want);
}

// A test run: item i logs labels[i]; `onFire` lets an item add more work.
class LoggingRun final : public EventRun {
 public:
  LoggingRun(std::vector<std::string>& log, std::vector<std::string> labels)
      : log_{log}, labels_{std::move(labels)} {}
  std::function<void(std::uint32_t)> onFire;
  int finishedCount{0};

 private:
  void fire(std::uint32_t index) override {
    log_.push_back(labels_[index]);
    if (onFire) onFire(index);
  }
  void finished() override { ++finishedCount; }

  std::vector<std::string>& log_;
  std::vector<std::string> labels_;
};

TEST(Simulator, RunItemsMergeWithHeapInTimeSeqOrder) {
  Simulator s;
  std::vector<std::string> log;
  const auto heapAt = [&](SimTime at, std::string label) {
    s.scheduleAt(at, [&log, label] { log.push_back(label); });
  };
  // Seqs by operation: h1=1, r2=2, r3=3, h4=4, r5=5, h6=6, r7=7.
  heapAt(5_us, "h1");
  const std::uint64_t r2 = s.reserveSeqs(2);
  heapAt(5_us, "h4");
  const std::uint64_t r5 = s.reserveSeq();
  heapAt(6_us, "h6");
  const std::uint64_t r7 = s.reserveSeq();
  LoggingRun first{log, {"r2", "r3", "r5", "r7"}};
  first.items() = {{5_us, r2, 0}, {5_us, r2 + 1, 1}, {5_us, r5, 2}, {7_us, r7, 3}};
  // r3 adds a second run; its seqs are newer than everything above.
  LoggingRun second{log, {"late6", "late7"}};
  first.onFire = [&](std::uint32_t index) {
    if (index != 1) return;
    const std::uint64_t seq = s.reserveSeqs(2);
    second.items() = {{6_us, seq, 0}, {7_us, seq + 1, 1}};
    s.addRun(second);
  };
  s.addRun(first);
  EXPECT_EQ(s.pendingEventCount(), 3u + 4u);

  EXPECT_EQ(s.run(5_us), 5u);  // stops at the horizon with items left
  EXPECT_TRUE(s.hasPendingEvents());
  EXPECT_EQ(first.finishedCount, 0);
  s.run();
  const std::vector<std::string> want{"h1", "r2",    "r3", "h4",
                                      "r5", "h6",    "late6", "r7", "late7"};
  EXPECT_EQ(log, want);
  EXPECT_EQ(s.eventsExecuted(), 9u);  // every item counts as an event
  EXPECT_EQ(first.finishedCount, 1);
  EXPECT_EQ(second.finishedCount, 1);
  EXPECT_FALSE(s.hasPendingEvents());
  EXPECT_EQ(s.now(), 7_us);
}

TEST(Simulator, ReachedTracksTheExecutingEvent) {
  Simulator s;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // Outside run() everything up to now() counts as passed.
  EXPECT_TRUE(s.reached(0_us, kMax));
  EXPECT_FALSE(s.reached(1_us, 0));
  const std::uint64_t reserved = s.reserveSeq();
  std::vector<bool> seen;
  s.schedule(1_us, [&] {  // takes seq reserved + 1
    seen = {s.reached(1_us, reserved), s.reached(1_us, reserved + 1),
            s.reached(1_us, reserved + 2), s.reached(2_us, 0)};
  });
  s.run();
  EXPECT_EQ(seen, (std::vector<bool>{true, true, false, false}));
  EXPECT_TRUE(s.reached(1_us, kMax));
}

// ------------------------------------------------------------------ Timer

TEST(Timer, FiresOnce) {
  Simulator s;
  Timer t{s};
  int fired = 0;
  t.start(1_s, [&] { ++fired; });
  EXPECT_TRUE(t.isRunning());
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.isRunning());
}

TEST(Timer, RestartReplacesPrevious) {
  Simulator s;
  Timer t{s};
  int which = 0;
  t.start(1_s, [&] { which = 1; });
  t.start(2_s, [&] { which = 2; });
  s.run();
  EXPECT_EQ(which, 2);
  EXPECT_EQ(s.now(), 2_s);
}

TEST(Timer, CancelPreventsFiring) {
  Simulator s;
  Timer t{s};
  int fired = 0;
  t.start(1_s, [&] { ++fired; });
  t.cancel();
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, DestructionCancels) {
  Simulator s;
  int fired = 0;
  {
    Timer t{s};
    t.start(1_s, [&] { ++fired; });
  }
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RestartableFromInsideCallback) {
  Simulator s;
  Timer t{s};
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 3) t.start(1_s, tick);
  };
  t.start(1_s, tick);
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.now(), 3_s);
}

TEST(Timer, RemainingAndExpiry) {
  Simulator s;
  Timer t{s};
  t.start(3_s, [] {});
  EXPECT_EQ(t.expiry(), 3_s);
  EXPECT_EQ(t.remaining(), 3_s);
  s.schedule(1_s, [&] { EXPECT_EQ(t.remaining(), 2_s); });
  s.run();
}

TEST(Timer, MoveTransfersOwnership) {
  Simulator s;
  int fired = 0;
  Timer a{s};
  a.start(1_s, [&] { ++fired; });
  Timer b{std::move(a)};
  EXPECT_TRUE(b.isRunning());
  s.run();
  EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------- PeriodicTimer

TEST(PeriodicTimer, FixedPeriodFiresRepeatedly) {
  Simulator s;
  PeriodicTimer t{s};
  std::vector<std::int64_t> at;
  t.startFixed(500_ms, 1_s, [&] { at.push_back(s.now().ns()); });
  s.run(3_s);
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], 500'000'000);
  EXPECT_EQ(at[1], 1'500'000'000);
  EXPECT_EQ(at[2], 2'500'000'000);
}

TEST(PeriodicTimer, StopHaltsCycle) {
  Simulator s;
  PeriodicTimer t{s};
  int count = 0;
  t.startFixed(1_s, 1_s, [&] {
    if (++count == 2) t.stop();
  });
  s.run(10_s);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTimer, CustomDelayFunction) {
  Simulator s;
  PeriodicTimer t{s};
  std::vector<std::int64_t> at;
  std::int64_t step = 0;
  t.start(
      [&]() -> SimTime {
        ++step;
        if (step > 3) return SimTime::seconds(std::int64_t{-1});  // stop
        return SimTime::seconds(step);  // 1s, 2s, 3s gaps
      },
      [&] { at.push_back(s.now().ns()); });
  s.run();
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], 1'000'000'000);
  EXPECT_EQ(at[1], 3'000'000'000);
  EXPECT_EQ(at[2], 6'000'000'000);
}

}  // namespace
}  // namespace mesh::sim
