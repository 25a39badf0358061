// Small-buffer-optimized move-only callable for simulator events.
//
// std::function heap-allocates for any capture larger than two pointers and
// double-dispatches through its manager function; on the simulator hot path
// (tens of millions of Schedule() calls per experiment) that malloc/free per
// event dominates. InlineCallback stores captures up to kInlineSize bytes
// directly inside the event slot — completion lambdas in this codebase
// capture a handful of pointers and integers and fit comfortably — and only
// falls back to the heap for oversized or throwing-move functors.
#ifndef BIZA_SRC_SIM_CALLBACK_H_
#define BIZA_SRC_SIM_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace biza {

class InlineCallback {
 public:
  // Sized so an InlineCallback is one cache line together with its ops
  // pointer. Covers captures of 7 pointers/words: a device read's
  // completion (a std::function callback plus the result vector) fits.
  static constexpr size_t kInlineSize = 56;

  // Whether a callable of type D is stored inline (no heap allocation).
  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineCallback() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(fn));
  }

  // Destroys the current callable (if any) and constructs `fn` in place —
  // the zero-copy path Simulator::ScheduleAt uses to build a callback
  // directly inside its event slot.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void Emplace(F&& fn) {
    Reset();
    Construct(std::forward<F>(fn));
  }

  // Invokes the callable and destroys it in one vtable hop, leaving *this
  // empty. The caller guarantees the storage stays valid for the duration
  // of the call (the simulator parks callbacks at stable slab addresses).
  void ConsumeInvoke() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->consume(storage_);
  }

  InlineCallback(InlineCallback&& other) noexcept { MoveFrom(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs the callable into `dst` and destroys the `src` copy.
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void* storage);
    // Fused invoke + destroy: one indirect call on the event-fire path.
    void (*consume)(void* storage);
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* storage) { (*std::launder(reinterpret_cast<D*>(storage)))(); },
      [](void* src, void* dst) {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* storage) { std::launder(reinterpret_cast<D*>(storage))->~D(); },
      [](void* storage) {
        D* fn = std::launder(reinterpret_cast<D*>(storage));
        (*fn)();
        fn->~D();
      },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* storage) { (**reinterpret_cast<D**>(storage))(); },
      [](void* src, void* dst) {
        *reinterpret_cast<D**>(dst) = *reinterpret_cast<D**>(src);
      },
      [](void* storage) { delete *reinterpret_cast<D**>(storage); },
      [](void* storage) {
        D* fn = *reinterpret_cast<D**>(storage);
        (*fn)();
        delete fn;
      },
  };

  template <typename F, typename D = std::decay_t<F>>
  void Construct(F&& fn) {
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(fn));
      ops_ = &kHeapOps<D>;
    }
  }

  void MoveFrom(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(InlineCallback) == 64,
              "an InlineCallback is one cache line: storage plus ops pointer");

}  // namespace biza

#endif  // BIZA_SRC_SIM_CALLBACK_H_
