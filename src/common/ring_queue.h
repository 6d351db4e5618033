// RingQueue: a FIFO over one power-of-two array that doubles when full.
//
// Unlike std::deque, which allocates and frees a block every few hundred
// bytes of push/pop churn, a RingQueue that has reached its high-water mark
// never allocates again. Hot paths that queue per-request state (guest work
// items, a stream's in-flight requests) use it to stay allocation-free.
#ifndef SRC_COMMON_RING_QUEUE_H_
#define SRC_COMMON_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace tableau {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Element `i` counted from the front (0 = front).
  T& operator[](std::size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }
  T& front() { return (*this)[0]; }

  void PushBack(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    ++size_;
    (*this)[size_ - 1] = std::move(value);
  }

  // Inserts `value` so that it becomes element `index`, shifting the
  // elements from `index` on one place back.
  void Insert(std::size_t index, T value) {
    TABLEAU_CHECK(index <= size_);
    PushBack(std::move(value));
    for (std::size_t i = size_ - 1; i > index; --i) {
      std::swap((*this)[i], (*this)[i - 1]);
    }
  }

  // Removes and returns the front element; its slot is reset so the queue
  // holds nothing (captured state, say) on behalf of a popped element.
  T PopFront() {
    TABLEAU_CHECK(size_ > 0);
    T value = std::exchange(front(), T{});
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return value;
  }

 private:
  void Grow() {
    std::vector<T> grown(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move((*this)[i]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;  // Size is zero or a power of two.
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tableau

#endif  // SRC_COMMON_RING_QUEUE_H_
