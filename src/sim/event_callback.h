// Small-buffer callable storage for pooled simulation events.
//
// The seed engine stored every event callback in a std::function, which
// heap-allocates for any capture larger than the library's tiny inline
// buffer — one malloc/free per simulated event on the hottest path in the
// repo. Every callback the hypervisor, schedulers, and workloads schedule
// captures a pointer plus at most a couple of scalars, so EventCallback
// keeps a 48-byte inline buffer and *no* heap fallback: an oversized
// capture is a compile error at the Set() call site, which keeps the
// schedule path allocation-free by construction (asserted end to end by
// tests/alloc_steady_state_test.cc). Trivially destructible captures —
// all of them in practice — skip the destructor thunk entirely, saving an
// indirect call per freed event.
//
// EventCallback lives inside a pooled EventNode that never moves (the pool
// is chunked), so it is deliberately neither copyable nor movable: Set()
// constructs in place, Reset() destroys in place.
#ifndef SRC_SIM_EVENT_CALLBACK_H_
#define SRC_SIM_EVENT_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tableau {

class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventCallback() = default;
  ~EventCallback() { Reset(); }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  bool has_value() const { return invoke_ != nullptr; }

  // Stores `fn`; the callback must be empty (fresh, or Reset()).
  template <typename F>
  void Set(F&& fn) {
    using T = std::decay_t<F>;
    static_assert(sizeof(T) <= kInlineBytes,
                  "event callback capture exceeds the inline buffer; shrink the "
                  "capture (capture pointers, not values) instead of boxing it");
    static_assert(alignof(T) <= 8, "event callback capture is over-aligned");
    ::new (static_cast<void*>(inline_)) T(std::forward<F>(fn));
    invoke_ = [](void* target) { (*static_cast<T*>(target))(); };
    if constexpr (!std::is_trivially_destructible_v<T>) {
      destroy_ = [](void* target) { static_cast<T*>(target)->~T(); };
    }
  }

  // Invokes the stored callable. The callable may re-arm or cancel its own
  // event, but the node (and therefore this storage) stays alive for the
  // duration of the call — the pool defers reclamation of an active node.
  void Invoke() { invoke_(static_cast<void*>(inline_)); }

  void Reset() {
    if (destroy_ != nullptr) {
      destroy_(static_cast<void*>(inline_));
      destroy_ = nullptr;
    }
    invoke_ = nullptr;
  }

 private:
  // The invoke pointer and the first capture bytes come first, so that they
  // share a cache line with the owning EventNode's header fields; the
  // destroy pointer, read only when a node is freed (never when a timer
  // fires), goes after the buffer. destroy_ is null whenever the callback
  // is empty, which is why Set() need not reset it.
  void (*invoke_)(void*) = nullptr;
  alignas(8) unsigned char inline_[kInlineBytes];
  void (*destroy_)(void*) = nullptr;
};

}  // namespace tableau

#endif  // SRC_SIM_EVENT_CALLBACK_H_
