#pragma once
// The discrete-event simulator core (our Glomosim replacement).
//
// A Simulator owns the virtual clock and the pending-event set. Components
// schedule callbacks relative to `now()`; `run()` drains events in
// timestamp order until the horizon, the event set empties, or `stop()`.
//
// The simulator is an explicit object — never a global — so tests and the
// harness can run many independent simulations in one process (the Figure 2
// benches run 60+ back-to-back simulations).
//
// Every event has a (time, seq) key; seq is the scheduling order. Besides
// heap events the run loop executes EventRuns: producer-owned batches of
// pre-sorted items (one transmission's arrivals at every receiver), each
// keyed by a seq reserved at the moment a heap push would have taken it.
// The loop merges run heads with the heap top in (time, seq) order, so an
// item fires exactly where the equivalent heap event would have, without
// the push. Producers may also defer an instant no event observes (a
// radio's non-locking arrival end) by reserving its seq and applying it
// lazily once the executing event passes it (reached()).
//
// Drain contract: run() with no horizon returns after the last heap event
// or run item. Instants deferred by a producer are not events, so the
// clock stops at the last real one; a caller that needs a component's
// state at a later instant runs to that horizon.

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "mesh/common/assert.hpp"
#include "mesh/common/log.hpp"
#include "mesh/common/simtime.hpp"
#include "mesh/sim/event_queue.hpp"

namespace mesh::sim {

// A producer-owned batch of events: items sorted by (at, seq), each seq
// reserved with Simulator::reserveSeqs. The producer fills items(), hands
// the run to Simulator::addRun, and gets finished() once the last item
// has fired; it must not touch the run in between, and must outlive it.
// Each item counts as one executed event.
class EventRun {
 public:
  struct Item {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t index;  // producer-side payload slot passed to fire()
  };

  EventRun() = default;
  EventRun(const EventRun&) = delete;
  EventRun& operator=(const EventRun&) = delete;
  virtual ~EventRun() = default;

  std::vector<Item>& items() { return items_; }

 private:
  friend class Simulator;
  virtual void fire(std::uint32_t index) = 0;
  virtual void finished() = 0;

  const Item& head() const { return items_[next_]; }

  std::vector<Item> items_;
  std::size_t next_{0};
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedule `cb` to run `delay` after now. Negative delays are clamped to
  // zero (fire "immediately", still in deterministic order). Forwarded
  // straight into the event slot: the capture is constructed exactly once.
  template <typename F>
  EventId schedule(SimTime delay, F&& cb) {
    if (delay.isNegative()) delay = SimTime::zero();
    return queue_.push(now_ + delay, std::forward<F>(cb));
  }

  // Schedule at an absolute time (must not be in the past).
  template <typename F>
  EventId scheduleAt(SimTime when, F&& cb) {
    MESH_REQUIRE(when >= now_);
    return queue_.push(when, std::forward<F>(cb));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  // Seq reservation (see file comment): takes the seqs `count` immediate
  // schedules would take now and returns the first.
  std::uint64_t reserveSeqs(std::uint64_t count) {
    return queue_.reserveSeqs(count);
  }
  std::uint64_t reserveSeq() { return queue_.reserveSeq(); }

  // Schedules at an absolute time with a seq from reserveSeq(s): the event
  // fires where a push made at reservation time would have.
  template <typename F>
  EventId scheduleReservedAt(SimTime when, std::uint64_t seq, F&& cb) {
    MESH_REQUIRE(when >= now_);
    return queue_.pushReserved(when, seq, std::forward<F>(cb));
  }

  // Hands a filled run to the loop (see EventRun). Its first item must
  // not precede the executing event.
  void addRun(EventRun& run) {
    MESH_REQUIRE(!run.items_.empty() && run.items_.front().at >= now_);
    run.next_ = 0;
    runs_.push_back(&run);
  }

  // True once the executing event is at or past (at, seq): an event with
  // that key would already have run. Outside run() everything up to now()
  // counts as passed.
  bool reached(SimTime at, std::uint64_t seq) const {
    return at < now_ || (at == now_ && seq <= currentSeq_);
  }

  // Bracketing hooks around every run(): `enter` fires before the first
  // event, `leave` after the loop exits (including stop()/horizon exits).
  // The harness uses this to install the owning Simulation's PacketPool as
  // the thread's active pool while — and only while — its events execute,
  // which is what keeps pools domain-confined under the DomainScheduler's
  // worker threads.
  void setRunScope(std::function<void()> enter, std::function<void()> leave) {
    runEnter_ = std::move(enter);
    runLeave_ = std::move(leave);
  }

  // Run until the event set drains or the clock would pass `until`.
  // Events scheduled exactly at `until` still fire. Returns the number of
  // events executed (heap events plus run items).
  std::uint64_t run(SimTime until = SimTime::max()) {
    log::setTimeSource([this] { return now_; });
    if (runEnter_) runEnter_();
    running_ = true;
    std::uint64_t executed = 0;
    while (running_) {
      EventRun* run = earliestRun();
      if (run != nullptr &&
          !queue_.precedes(run->head().at, run->head().seq)) {
        if (run->head().at > until) break;
        fireHead(*run);
      } else if (queue_.empty() ||
                 !queue_.runEarliest(until, [this](SimTime time,
                                                   std::uint64_t seq) {
                   MESH_ASSERT(time >= now_);
                   now_ = time;
                   currentSeq_ = seq;
                 })) {
        break;  // drained, or the earliest event is past the horizon
      }
      ++executed;
    }
    currentSeq_ = kOutsideRun;
    // If we stopped on the horizon, advance the clock to it so that a
    // subsequent run() resumes from a well-defined instant.
    if (running_ && now_ < until && until != SimTime::max()) now_ = until;
    running_ = false;
    log::clearTimeSource();
    if (runLeave_) runLeave_();
    eventsExecuted_ += executed;
    return executed;
  }

  // Stop the run loop after the current event returns.
  void stop() { running_ = false; }

  bool hasPendingEvents() const { return !queue_.empty() || !runs_.empty(); }
  std::size_t pendingEventCount() const {
    std::size_t count = queue_.size();
    for (const EventRun* run : runs_) count += run->items_.size() - run->next_;
    return count;
  }
  std::uint64_t eventsExecuted() const { return eventsExecuted_; }

 private:
  static constexpr std::uint64_t kOutsideRun =
      std::numeric_limits<std::uint64_t>::max();

  // Live runs are few (a run spans one transmission's propagation spread,
  // a few microseconds), so a scan beats any ordered structure.
  EventRun* earliestRun() const {
    if (runs_.empty()) return nullptr;
    EventRun* best = runs_.front();
    for (std::size_t i = 1; i < runs_.size(); ++i) {
      const EventRun::Item& a = runs_[i]->head();
      const EventRun::Item& b = best->head();
      if (a.at < b.at || (a.at == b.at && a.seq < b.seq)) best = runs_[i];
    }
    return best;
  }

  void fireHead(EventRun& run) {
    const EventRun::Item item = run.items_[run.next_++];
    MESH_ASSERT(item.at >= now_);
    now_ = item.at;
    currentSeq_ = item.seq;
    run.fire(item.index);
    if (run.next_ < run.items_.size()) return;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      if (runs_[i] == &run) {
        runs_[i] = runs_.back();
        runs_.pop_back();
        break;
      }
    }
    run.finished();
  }

  EventQueue queue_;
  std::vector<EventRun*> runs_;
  SimTime now_{SimTime::zero()};
  std::uint64_t currentSeq_{kOutsideRun};
  bool running_{false};
  std::uint64_t eventsExecuted_{0};
  std::function<void()> runEnter_;
  std::function<void()> runLeave_;
};

}  // namespace mesh::sim
