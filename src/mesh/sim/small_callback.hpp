#pragma once
// SmallCallback: a move-only `void()` callable with small-buffer storage.
//
// The event queue runs tens of millions of callbacks per simulation; with
// std::function every scheduled event whose capture exceeds libstdc++'s
// 16-byte inline buffer costs a heap round trip on the hottest path in the
// system. SmallCallback stores captures of up to kInlineBytes (48 — room
// for the MAC's Frame-carrying response timers, the largest hot-path
// capture) inline in the event slab; only oversized or throwing-move captures fall back to
// a single heap allocation. Unlike std::function it also accepts move-only
// captures (e.g. a unique_ptr riding along in a deferred action).

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace mesh::sim {

class SmallCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  // True when F is stored in the inline buffer (no heap allocation).
  // Exposed so tests can pin the inline/heap split per capture size.
  template <typename F>
  static constexpr bool storedInline() {
    using Fn = std::decay_t<F>;
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  SmallCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallCallback(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    emplace(std::forward<F>(f));
  }

  // Assign a new callable directly into this object's storage — one
  // construction of the capture instead of the construct-then-relocate a
  // temporary SmallCallback would cost. The event queue's push path builds
  // every hot callback in its slot through this.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallCallback& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

 private:
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (storedInline<F>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); };
      manage_ = [](Op op, void* self, void* other) {
        Fn* fn = std::launder(reinterpret_cast<Fn*>(self));
        if (op == Op::RelocateTo) ::new (other) Fn(std::move(*fn));
        fn->~Fn();
      };
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); };
      manage_ = [](Op op, void* self, void* other) {
        Fn** slot = std::launder(reinterpret_cast<Fn**>(self));
        if (op == Op::RelocateTo) {
          ::new (other) Fn*(*slot);  // steal the pointer, nothing to free
        } else {
          delete *slot;
        }
      };
    }
  }

 public:
  SmallCallback(SmallCallback&& o) noexcept
      : invoke_{o.invoke_}, manage_{o.manage_} {
    if (manage_ != nullptr) o.manage_(Op::RelocateTo, o.storage_, storage_);
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  SmallCallback& operator=(SmallCallback&& o) noexcept {
    if (this != &o) {
      reset();
      invoke_ = o.invoke_;
      manage_ = o.manage_;
      if (manage_ != nullptr) o.manage_(Op::RelocateTo, o.storage_, storage_);
      o.invoke_ = nullptr;
      o.manage_ = nullptr;
    }
    return *this;
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;

  ~SmallCallback() { reset(); }

  void reset() {
    if (manage_ != nullptr) {
      manage_(Op::Destroy, storage_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  void operator()() { invoke_(storage_); }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  enum class Op : std::uint8_t { RelocateTo, Destroy };
  using InvokeFn = void (*)(void*);
  using ManageFn = void (*)(Op, void* self, void* other);

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  InvokeFn invoke_{nullptr};
  ManageFn manage_{nullptr};
};

}  // namespace mesh::sim
