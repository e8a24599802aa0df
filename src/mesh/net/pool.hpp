#pragma once
// PacketPool: slab-backed size-class allocator for the frame hot path.
//
// Every steady-state frame (data, probe, ODMRP control, MAC control and the
// PhyFrame wrapper it rides in) is carved out of per-pool slabs and recycled
// through per-size-class free lists, so the tx→MAC→channel→rx→routing round
// trip performs zero heap allocations once the pool is warm (DESIGN §12).
// Objects placed in a slot are intrusively refcounted (RefPtr below) with
// plain non-atomic counters: a pool and everything allocated from it are
// confined to one collision domain, and the DomainScheduler's per-epoch
// fork/join provides the necessary happens-before between epochs.
//
// Lifetime: slots may outlive the PacketPool handle (e.g. a test keeps a
// PacketPtr after the Simulation is torn down). The pool's Impl is therefore
// refcounted by its live-slot count and freed only when both the owner handle
// is gone and the last slot has been released — teardown order never matters.
//
// The pool also owns the deterministic packet-uid sequence: one counter per
// pool (i.e. per collision domain), replacing the old global std::atomic.
// Trace pids are renumbered per collector at record time, so per-domain uid
// sequences that all start at 1 are fine (see trace/trace_collector.cpp).

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "mesh/common/assert.hpp"

namespace mesh::net {

// Intrusive refcounted pointer. T must expose retain()/release() const.
// Non-atomic by design — see the domain-confinement note above.
template <typename T>
class RefPtr {
 public:
  RefPtr() noexcept = default;
  RefPtr(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)
  // Takes ownership of the caller's (single) reference — no retain.
  static RefPtr adopt(T* p) noexcept {
    RefPtr r;
    r.ptr_ = p;
    return r;
  }
  RefPtr(const RefPtr& other) noexcept : ptr_{other.ptr_} {
    if (ptr_ != nullptr) ptr_->retain();
  }
  RefPtr(RefPtr&& other) noexcept : ptr_{other.ptr_} { other.ptr_ = nullptr; }
  RefPtr& operator=(const RefPtr& other) noexcept {
    if (other.ptr_ != nullptr) other.ptr_->retain();
    T* old = ptr_;
    ptr_ = other.ptr_;
    if (old != nullptr) old->release();
    return *this;
  }
  RefPtr& operator=(RefPtr&& other) noexcept {
    if (this != &other) {
      T* old = ptr_;
      ptr_ = other.ptr_;
      other.ptr_ = nullptr;
      if (old != nullptr) old->release();
    }
    return *this;
  }
  RefPtr& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  ~RefPtr() {
    if (ptr_ != nullptr) ptr_->release();
  }

  void reset() noexcept {
    if (ptr_ != nullptr) {
      ptr_->release();
      ptr_ = nullptr;
    }
  }
  T* get() const noexcept { return ptr_; }
  T& operator*() const noexcept { return *ptr_; }
  T* operator->() const noexcept { return ptr_; }
  explicit operator bool() const noexcept { return ptr_ != nullptr; }
  friend bool operator==(const RefPtr& a, const RefPtr& b) noexcept {
    return a.ptr_ == b.ptr_;
  }
  friend bool operator==(const RefPtr& a, std::nullptr_t) noexcept {
    return a.ptr_ == nullptr;
  }

 private:
  T* ptr_{nullptr};
};

class PacketPool {
 public:
  // Object-area bytes per size class (the 16-byte slot header is extra).
  // Sized so one class each catches PhyFrames (~64 B), control packets
  // (JoinQuery/ACK ~200 B), probes (~300 B), 512 B CBR data (~700 B) and
  // packet-pair probes (~1.3 KiB); anything larger goes to operator new.
  static constexpr std::size_t kClassBytes[] = {128, 320, 768, 1536, 2560};
  static constexpr std::size_t kClassCount = 5;
  static constexpr std::size_t kSlabBytes = 32 * 1024;

  struct Stats {
    std::uint64_t liveSlots;    // pooled slots currently handed out
    std::uint64_t slotsCarved;  // pooled slots ever carved from slabs
    std::uint64_t slabBytes;    // total slab memory reserved
    std::uint64_t oversized;    // allocations above the largest class
  };

  PacketPool() : impl_{new Impl} {}
  ~PacketPool() {
    Impl* impl = impl_;
    impl->ownerAlive = false;
    if (impl->liveSlots == 0) delete impl;
  }
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Returns storage for `bytes` payload bytes, 16-byte aligned. The object
  // constructed there must expose retain()/release() driving
  // PacketPool::release(ptr) when the count hits zero.
  void* allocate(std::size_t bytes) {
    Impl& im = *impl_;
    const std::uint32_t cls = classFor(bytes);
    if (cls == kDirectClass) {
      auto* h = static_cast<SlotHeader*>(
          ::operator new(sizeof(SlotHeader) + bytes));
      h->impl = nullptr;
      h->cls = kDirectClass;
      ++im.oversized;
      return h + 1;
    }
    void*& head = im.freeHead[cls];
    if (head == nullptr) refill(im, cls);
    void* slot = head;
    head = *static_cast<void**>(slot);
    ++im.liveSlots;
    return slot;
  }

  // Returns a slot obtained from allocate() (any pool; the owning Impl is
  // found through the slot header). Safe after the owning pool is gone.
  static void release(void* obj) noexcept {
    auto* h = static_cast<SlotHeader*>(obj) - 1;
    Impl* im = h->impl;
    if (im == nullptr) {
      ::operator delete(h);
      return;
    }
    *static_cast<void**>(obj) = im->freeHead[h->cls];
    im->freeHead[h->cls] = obj;
    if (--im->liveSlots == 0 && !im->ownerAlive) delete im;
  }

  // Deterministic per-pool (== per collision domain) uid sequence.
  std::uint64_t nextUid() { return ++impl_->uidCounter; }

  Stats stats() const {
    return {impl_->liveSlots, impl_->slotsCarved, impl_->slabBytes,
            impl_->oversized};
  }

  // The pool new packets come from on this thread. Harness run scopes
  // (Simulator::setRunScope) install the owning Simulation's pool around
  // run(); bare tests and micro-benches fall back to a per-thread pool.
  static PacketPool& active() {
    PacketPool* cur = currentRef();
    return cur != nullptr ? *cur : fallbackPool();
  }
  // Installs `pool` (nullptr = fall back) and returns the previous value so
  // scopes can nest.
  static PacketPool* setCurrent(PacketPool* pool) noexcept {
    PacketPool*& slot = currentRef();
    PacketPool* prev = slot;
    slot = pool;
    return prev;
  }

 private:
  struct Impl;
  // Precedes every object area; 16 bytes so the area stays 16-aligned.
  struct SlotHeader {
    Impl* impl;         // nullptr: direct operator new allocation
    std::uint32_t cls;  // size class index (kDirectClass when direct)
    std::uint32_t pad;
  };
  static_assert(sizeof(SlotHeader) == 16);

  struct Impl {
    void* freeHead[kClassCount] = {};
    std::vector<void*> slabs;
    std::uint64_t uidCounter{0};
    std::uint64_t liveSlots{0};
    std::uint64_t slotsCarved{0};
    std::uint64_t slabBytes{0};
    std::uint64_t oversized{0};
    bool ownerAlive{true};
    ~Impl() {
      for (void* s : slabs) ::operator delete(s);
    }
  };

  static constexpr std::uint32_t kDirectClass = 0xffffffffu;

  static std::uint32_t classFor(std::size_t bytes) {
    for (std::uint32_t c = 0; c < kClassCount; ++c) {
      if (bytes <= kClassBytes[c]) return c;
    }
    return kDirectClass;
  }

  // Carves a fresh slab into free-list slots for `cls`. Out-of-line: cold.
  static void refill(Impl& im, std::uint32_t cls);

  static PacketPool*& currentRef() noexcept {
    thread_local PacketPool* current = nullptr;
    return current;
  }
  static PacketPool& fallbackPool();

  Impl* impl_;
};

}  // namespace mesh::net
