#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace bamboo::sim {

/// Move-only `void()` callable with small-buffer storage: captures up to
/// `Capacity` bytes live inline, so scheduling an event allocates nothing.
///
/// `std::function` heap-allocates any capture larger than its tiny
/// implementation-defined SBO (16 bytes under libstdc++) and drags in
/// copy-ability machinery the event queue never uses — every scheduled
/// event paid an allocation. The simulator's delivery/timer lambdas capture
/// 16-64 bytes (`[this, slot]`, `[this, session, tx]`, churn closures), so a
/// 64-byte buffer keeps all hot-path captures inline; oversized or
/// over-aligned or throwing-move captures transparently fall back to one
/// heap cell, preserving `std::function`'s universality.
///
/// Dispatch is a single shared vtable pointer per callable type:
///   - invoke: call the capture
///   - relocate: move into a new buffer + destroy the source
///               (null => the capture is trivially relocatable: memcpy)
///   - destroy: destructor (null => trivial)
/// Null entries let moves of trivially-copyable captures compile down to a
/// memcpy with no indirect call.
template <std::size_t Capacity = 64>
class InlineFunction {
  static_assert(Capacity >= sizeof(void*), "buffer must fit a pointer");

  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* dst, void* src) noexcept;  ///< null => memcpy
    void (*destroy)(void* storage) noexcept;          ///< null => trivial
  };

  /// A capture is stored inline iff it fits, is not over-aligned, and can
  /// be relocated without throwing (moves must be noexcept: the event
  /// queue relocates pending callbacks when its slot table grows).
  template <typename D>
  static constexpr bool kInline = sizeof(D) <= Capacity &&
                                  alignof(D) <= alignof(std::max_align_t) &&
                                  std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  struct InlineOps {
    static void invoke(void* s) { (*std::launder(static_cast<D*>(s)))(); }
    static void relocate(void* dst, void* src) noexcept {
      D* from = std::launder(static_cast<D*>(src));
      ::new (dst) D(std::move(*from));
      from->~D();
    }
    static void destroy(void* s) noexcept {
      std::launder(static_cast<D*>(s))->~D();
    }
    static constexpr Ops value{
        &invoke,
        std::is_trivially_copyable_v<D> ? nullptr : &relocate,
        std::is_trivially_destructible_v<D> ? nullptr : &destroy};
  };

  /// Heap fallback: the buffer holds one `D*`. The pointer itself is
  /// trivially relocatable, so relocate stays null (ownership moves with
  /// the bytes) and only destroy pays an indirect call.
  template <typename D>
  struct HeapOps {
    static D*& cell(void* s) { return *std::launder(static_cast<D**>(s)); }
    static void invoke(void* s) { (*cell(s))(); }
    static void destroy(void* s) noexcept { delete cell(s); }
    static constexpr Ops value{&invoke, nullptr, &destroy};
  };

 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { steal(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  /// Replace the held capture with `f`, constructed directly in this
  /// buffer (or its heap cell): a forwarding caller such as
  /// EventQueue::schedule builds the capture once where it will live, with
  /// no temporary InlineFunction to relocate. An InlineFunction argument
  /// must be an rvalue; its capture is relocated in, as by move assignment.
  /// If constructing the capture throws, *this is left empty.
  template <typename F>
    requires std::is_invocable_v<std::remove_cvref_t<F>&>
  void emplace(F&& f) {
    using D = std::remove_cvref_t<F>;
    if constexpr (std::is_same_v<D, InlineFunction>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "InlineFunction is move-only: emplace(std::move(fn))");
      *this = std::move(f);
    } else {
      reset();
      if constexpr (kInline<D>) {
        ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
        ops_ = &InlineOps<D>::value;
      } else {
        ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
        ops_ = &HeapOps<D>::value;
      }
    }
  }

  /// Destroy the held capture (heap cell included); *this becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr);
    ops_->invoke(buf_);
  }

  /// Capacity in bytes of the inline buffer (for tests / sizing asserts).
  static constexpr std::size_t capacity() { return Capacity; }

  /// Whether a capture of type D would be stored inline (no allocation).
  template <typename D>
  static constexpr bool stores_inline() {
    return kInline<std::remove_cvref_t<D>>;
  }

 private:
  void steal(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, Capacity);
    }
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace bamboo::sim
