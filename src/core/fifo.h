#pragma once
// Fifo: the single-threaded queue both engines keep items in — a kernel's
// emissions not yet on a channel (output back-pressure, Fig. 9(b)) and the
// simulator's channels (DESIGN.md §4.6).
//
// A growable power-of-two ring. Unlike std::deque, which frees and
// re-allocates a block every few items cycled through it (every item, once
// items carry inline tile storage), it stops allocating once its capacity
// covers the longest backlog, and it never moves an item except when it
// grows.

#include <cstddef>
#include <utility>
#include <vector>

namespace bpp {

template <class T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  /// The item `i` places behind the front (0 is the front, size()-1 the
  /// back); for walks from the back over the items pushed last.
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask()]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask()];
  }

  void push_back(T&& v) { emplace_back() = std::move(v); }
  /// Appends the slot past the back, still in the reset state pop_front
  /// leaves, and returns it for the caller to fill in place: an item moves
  /// once into its slot, with no temporary on the way.
  T& emplace_back() {
    if (size_ == slots_.size()) grow();
    return slots_[(head_ + size_++) & mask()];
  }
  /// Resets the slot, so the popped item's storage is released now.
  void pop_front() {
    slots_[head_] = T();
    head_ = (head_ + 1) & mask();
    --size_;
  }

 private:
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    std::vector<T> next(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< power-of-two count, or empty
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace bpp
