#pragma once
// Pending-event set for the discrete-event engine.
//
// Layout: a flat 4-ary min-heap of 16-byte nodes (time, packed
// seq-and-slot) over chunked slot storage holding the callbacks. The
// insertion seq (the high bits of the packed word) makes event ordering
// fully deterministic: two events scheduled for the same instant fire in
// the order they were scheduled — the exact (time, seq) contract of the
// original binary-heap implementation, so pop sequences are bit-identical
// across designs. 16-byte nodes put a full sibling group of four on one
// cache line, which is what the sift loops are bound by.
//
// Callbacks are SmallCallbacks: captures of up to 48 bytes (every hot-path
// capture in the simulator) live inline in the slot, so the steady-state
// push/pop cycle performs zero heap allocations. Slots live in fixed-size
// chunks — never reallocated — so the run loop (runEarliest) can invoke a
// popped callback in place instead of relocating it out first; a push from
// inside the running callback can grow the slot pool without moving it.
// A 4-ary heap halves the tree depth of a binary heap, which is where the
// win comes from at 10⁷+ events per run.
//
// Cancellation is an O(1) tombstone: each slot carries a generation that
// is bumped when the slot is freed, and EventIds embed (generation, slot).
// cancel() therefore rejects fired, cancelled, and stale handles in O(1)
// without any side bookkeeping — no cancelled-id set to leak, no live
// counter to corrupt (the cancel-after-fire bug of the lazy-set design).
// Tombstoned heap nodes are discarded when they surface at the top; the
// cancelled callback itself is destroyed eagerly so captured resources
// (frames, buffers) are released at cancel time.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mesh/common/assert.hpp"
#include "mesh/common/simtime.hpp"
#include "mesh/sim/small_callback.hpp"

namespace mesh::sim {

// Opaque handle to a scheduled event. Default-constructed handles are null.
// Encodes (slot generation, slot index + 1); a handle can only ever cancel
// the exact scheduling it came from.
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return id_ != 0; }
  constexpr std::uint64_t raw() const { return id_; }
  friend constexpr bool operator==(EventId, EventId) = default;

 private:
  friend class EventQueue;
  constexpr explicit EventId(std::uint64_t id) : id_{id} {}
  std::uint64_t id_{0};
};

class EventQueue {
 public:
  using Callback = SmallCallback;

  // `cb` may be any void() callable; non-SmallCallback arguments are
  // constructed directly in the slot (no intermediate SmallCallback, no
  // relocation of the capture).
  template <typename F>
  EventId push(SimTime time, F&& cb) {
    return pushReserved(time, reserveSeq(), std::forward<F>(cb));
  }

  // Takes the next `count` insertion seqs without pushing anything and
  // returns the first. A reservation advances the counter exactly as
  // `count` pushes would, so an event later pushed with a reserved seq
  // (pushReserved) — or replayed outside the heap at it — keeps the
  // (time, seq) place it would have had if pushed at reservation time.
  std::uint64_t reserveSeqs(std::uint64_t count) {
    // The 40-bit seq wraps after 10¹² pushes — far beyond any run.
    MESH_ASSERT(nextSeq_ + count < (std::uint64_t{1} << kSeqBits));
    const std::uint64_t first = nextSeq_ + 1;
    nextSeq_ += count;
    return first;
  }
  std::uint64_t reserveSeq() { return reserveSeqs(1); }

  // Pushes with a seq taken earlier by reserveSeq(s). Each reserved seq
  // may be live in the heap at most once at a time (a cancelled push may
  // be re-pushed with the same seq).
  template <typename F>
  EventId pushReserved(SimTime time, std::uint64_t seq, F&& cb) {
    MESH_ASSERT(seq != 0 && seq <= nextSeq_);
    const std::uint32_t slotIndex = acquireSlot();
    Slot& slot = slotAt(slotIndex);
    slot.callback = std::forward<F>(cb);
    MESH_ASSERT(static_cast<bool>(slot.callback));
    slot.state = SlotState::Pending;
    // The 24-bit slot field caps concurrently-pending events at 16.7M.
    heap_.push_back(HeapNode{time, (seq << kSlotBits) | slotIndex});
    siftUp(heap_.size() - 1);
    ++live_;
    return EventId{(static_cast<std::uint64_t>(slot.generation) << 32) |
                   (slotIndex + 1)};
  }

  // Cancel a pending event in O(1). Returns false if the handle is null,
  // already fired, already cancelled, or from a cleared queue — all of
  // which are detected by the slot's generation tag, so repeated or late
  // cancels can never corrupt the live count.
  bool cancel(EventId id) {
    if (!id.valid()) return false;
    const std::uint32_t slotIndex =
        static_cast<std::uint32_t>(id.raw() & 0xFFFFFFFFu) - 1;
    if (slotIndex >= slotCount_) return false;
    Slot& slot = slotAt(slotIndex);
    if (slot.generation != static_cast<std::uint32_t>(id.raw() >> 32) ||
        slot.state != SlotState::Pending) {
      return false;
    }
    slot.state = SlotState::Cancelled;
    slot.callback.reset();  // release captured resources now, not at pop
    MESH_ASSERT(live_ > 0);
    --live_;
    return true;
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // True when a pending event orders strictly before (time, seq).
  bool precedes(SimTime time, std::uint64_t seq) {
    dropCancelledHead();
    if (heap_.empty()) return false;
    const HeapNode& top = heap_.front();
    return top.time < time ||
           (top.time == time && (top.order >> kSlotBits) < seq);
  }

  // Earliest pending (non-cancelled) event time. Queue must not be empty.
  SimTime nextTime() {
    dropCancelledHead();
    MESH_REQUIRE(!heap_.empty());
    return heap_.front().time;
  }

  // Pop and return the earliest pending event. Queue must not be empty.
  struct Popped {
    SimTime time;
    Callback callback;
  };
  Popped pop() {
    dropCancelledHead();
    MESH_REQUIRE(!heap_.empty());
    const HeapNode top = heap_.front();
    const std::uint32_t slotIndex = slotOf(top);
    Slot& slot = slotAt(slotIndex);
    Popped out{top.time, std::move(slot.callback)};
    releaseSlot(slotIndex);
    popHeapRoot();
    MESH_ASSERT(live_ > 0);
    --live_;
    return out;
  }

  // The run loop's fused nextTime()+pop()+invoke: one cancelled-head sweep
  // per event, and the callback runs in place in its slot — no relocation
  // of the capture. `pre(time, seq)` fires after the pop bookkeeping and
  // before the callback, so the caller can advance its clock. The slot
  // returns to the free list only after the callback finishes (a push from
  // inside it cannot reuse the storage), but its generation is bumped
  // before, so a self-cancel during execution is a detectable no-op. Returns false —
  // running nothing — when the earliest pending event is after `until`.
  // Queue must not be empty.
  template <typename PreFn>
  bool runEarliest(SimTime until, PreFn&& pre) {
    dropCancelledHead();
    MESH_REQUIRE(!heap_.empty());
    const HeapNode top = heap_.front();
    if (top.time > until) return false;
    const std::uint32_t slotIndex = slotOf(top);
    Slot& slot = slotAt(slotIndex);
    slot.state = SlotState::Free;
    ++slot.generation;
    popHeapRoot();
    MESH_ASSERT(live_ > 0);
    --live_;
    pre(top.time, top.order >> kSlotBits);
    slot.callback();
    slot.callback.reset();
    slot.nextFree = freeHead_;
    freeHead_ = slotIndex;
    return true;
  }

  void clear() {
    heap_.clear();
    freeHead_ = kNilSlot;
    for (std::uint32_t i = 0; i < slotCount_; ++i) {
      Slot& slot = slotAt(i);
      if (slot.state != SlotState::Free) {
        slot.callback.reset();
        releaseSlot(i);
      } else {
        // Already free: re-thread onto the rebuilt free list.
        slot.nextFree = freeHead_;
        freeHead_ = i;
      }
    }
    live_ = 0;
  }

 private:
  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSeqBits = 40;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  // 512 slots × ~80 B per chunk; chunks are stable for the life of the
  // queue, so Slot references survive arbitrary pushes.
  static constexpr std::uint32_t kChunkShift = 9;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  enum class SlotState : std::uint8_t { Free, Pending, Cancelled };

  struct Slot {
    Callback callback;
    std::uint32_t generation{0};
    std::uint32_t nextFree{kNilSlot};
    SlotState state{SlotState::Free};
  };

  struct HeapNode {
    SimTime time;
    std::uint64_t order;  // (seq << kSlotBits) | slot: FIFO-unique tiebreak
  };

  static std::uint32_t slotOf(const HeapNode& node) {
    return static_cast<std::uint32_t>(node.order & kSlotMask);
  }

  static bool before(const HeapNode& a, const HeapNode& b) {
    // seq sits in order's high bits, so one integer compare breaks time
    // ties in scheduling order (slot bits can never matter: seq is unique).
    if (a.time != b.time) return a.time < b.time;
    return a.order < b.order;
  }

  Slot& slotAt(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  std::uint32_t acquireSlot() {
    if (freeHead_ != kNilSlot) {
      const std::uint32_t index = freeHead_;
      freeHead_ = slotAt(index).nextFree;
      return index;
    }
    MESH_ASSERT(slotCount_ < (std::uint32_t{1} << kSlotBits));
    if ((slotCount_ >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    return slotCount_++;
  }

  // Frees the slot and bumps its generation so outstanding EventIds go
  // stale. The 32-bit generation wraps after 4×10⁹ reuses of one slot;
  // with slots recycled round-robin through the free list that is far
  // beyond any run length.
  void releaseSlot(std::uint32_t index) {
    Slot& slot = slotAt(index);
    slot.state = SlotState::Free;
    ++slot.generation;
    slot.nextFree = freeHead_;
    freeHead_ = index;
  }

  // Discard tombstoned nodes while they occupy the heap root.
  void dropCancelledHead() {
    while (!heap_.empty() &&
           slotAt(slotOf(heap_.front())).state == SlotState::Cancelled) {
      releaseSlot(slotOf(heap_.front()));
      popHeapRoot();
    }
  }

  void popHeapRoot() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) siftDown(0);
  }

  void siftUp(std::size_t i) {
    const HeapNode node = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(node, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = node;
  }

  void siftDown(std::size_t i) {
    const HeapNode node = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], node)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = node;
  }

  std::vector<HeapNode> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slotCount_{0};
  std::uint32_t freeHead_{kNilSlot};
  std::uint64_t nextSeq_{0};
  std::size_t live_{0};
};

}  // namespace mesh::sim
