// Small-buffer-optimized event callback.
//
// The scheduler fires tens of millions of callbacks per simulated day;
// `std::function` heap-allocates for captures beyond its tiny internal
// buffer (16 bytes on libstdc++), which made allocation the dominant cost
// of the event loop. `Callback` stores captures up to kInlineBytes inline
// — large enough for every hot-path lambda in the protocols (a `this`
// pointer plus a handful of ids) — and only falls back to the heap for
// oversized or throwing-move captures. Move-only: events fire once and are
// never copied, so requiring copyability would only force std::function's
// copy machinery back in.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace st::sim {

class Callback {
 public:
  // Fits SystemContext::wrapStage's delivery guard around a [this, tag]
  // action (this, receiver id, and the 48-byte action: 64 bytes), so a
  // delivered protocol message allocates nothing.
  static constexpr std::size_t kInlineBytes = 64;

  Callback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function.
  Callback(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  Callback(Callback&& other) noexcept { moveFrom(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs into `to` and destroys the source representation.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* get(void* p) noexcept {
      return std::launder(reinterpret_cast<Fn*>(p));
    }
    static void invoke(void* p) { (*get(p))(); }
    static void relocate(void* from, void* to) noexcept {
      Fn* src = get(from);
      ::new (to) Fn(std::move(*src));
      src->~Fn();
    }
    static void destroy(void* p) noexcept { get(p)->~Fn(); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* get(void* p) noexcept {
      return *std::launder(reinterpret_cast<Fn**>(p));
    }
    static void invoke(void* p) { (*get(p))(); }
    static void relocate(void* from, void* to) noexcept {
      ::new (to) Fn*(get(from));
    }
    static void destroy(void* p) noexcept { delete get(p); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy};
  };

  void moveFrom(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace st::sim
