// Small-buffer-optimized move-only callable — the event-slab counterpart of
// std::function.
//
// The discrete-event hot path schedules millions of short-lived closures
// (device member calls capturing `this` plus a couple of ids, or a Packet
// by value). std::function heap-allocates most of them and drags two
// pointers of indirection through every heap sift. InplaceFn stores any
// callable up to N bytes directly inside the object — the simulator's event
// slab therefore holds the closure bytes inline, and steady-state
// scheduling never touches the allocator. Oversized captures (cold control
// paths only) fall back to a single heap cell so the API stays total.
//
// Relocation rule: a trivially copyable inline closure — every device
// closure, which captures pointers, ids and Packets by value — has no
// manager; moving it copies the whole N-byte buffer (a fixed-size copy
// the compiler unrolls) and destroying it does nothing. Only closures
// with non-trivial members pay an indirect manager call per move.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dcdl {

template <typename Sig, std::size_t N = 64>
class InplaceFn;

template <typename R, typename... Args, std::size_t N>
class InplaceFn<R(Args...), N> {
 public:
  InplaceFn() = default;
  InplaceFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InplaceFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= N && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p, Args&&... args) -> R {
        return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
      };
      if constexpr (std::is_trivially_copyable_v<Fn>) {
        // The relocation copy reads all N bytes: define the unused tail.
        if constexpr (sizeof(Fn) < N) {
          std::memset(buf_ + sizeof(Fn), 0, N - sizeof(Fn));
        }
      } else {
        manage_ = [](void* dst, void* src) {
          if (src != nullptr) {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
          } else {
            static_cast<Fn*>(dst)->~Fn();
          }
        };
      }
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* p, Args&&... args) -> R {
        return (**static_cast<Fn**>(p))(std::forward<Args>(args)...);
      };
      manage_ = [](void* dst, void* src) {
        if (src != nullptr) {
          ::new (dst) Fn*(*static_cast<Fn**>(src));
        } else {
          delete *static_cast<Fn**>(dst);
        }
      };
    }
  }

  InplaceFn(InplaceFn&& o) noexcept { move_from(o); }
  InplaceFn& operator=(InplaceFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  InplaceFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  InplaceFn(const InplaceFn&) = delete;
  InplaceFn& operator=(const InplaceFn&) = delete;
  ~InplaceFn() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

  void reset() {
    if (manage_ != nullptr) manage_(buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  /// manage_(dst, src): src != nullptr relocates *src into dst (raw
  /// storage) and destroys src; src == nullptr destroys dst. Null for a
  /// trivially copyable inline closure (see the relocation rule above).
  using Invoke = R (*)(void*, Args&&...);
  using Manage = void (*)(void*, void*);

  void move_from(InplaceFn& o) noexcept {
    if (o.invoke_ == nullptr) return;
    if (o.manage_ != nullptr) {
      o.manage_(buf_, o.buf_);
    } else {
      std::memcpy(buf_, o.buf_, N);
    }
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  alignas(std::max_align_t) std::byte buf_[N];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace dcdl
