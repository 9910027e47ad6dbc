#pragma once
// Lock-free single-producer/single-consumer ring buffer.
//
// The host runtime's channel substrate: every graph channel has exactly one
// producer kernel and one consumer kernel, and each kernel is owned by
// exactly one worker thread, so SPSC is valid by construction. The ring
// replaces the seed's mutex-per-channel deque, making peek/pop (consumer
// side) and push/space-probe (producer side) wait-free.
//
// Memory layout and ordering (Lamport queue with cached indices, see
// DESIGN.md "Host runtime architecture"):
//  * `tail_` is written only by the producer (release), read by the
//    consumer (acquire); `head_` is the mirror image. The acquire/release
//    pair is what publishes the slot contents across threads.
//  * Each index lives on its own cache line, next to the *other* side's
//    cached copy of it, so the hot path of either thread touches a single
//    line and only refreshes the shared one when it would have to block
//    (empty for the consumer, full for the producer).
//  * Indices are monotonically increasing 64-bit counters masked into a
//    power-of-two slot array; `size == tail - head` never wraps in
//    practice (2^64 items).
//
// The consumer may hold the pointer returned by front()/front_mut() until
// it calls pop(): the producer never writes an occupied slot.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace bpp {

/// Separation used to keep producer- and consumer-owned data off each
/// other's cache lines (64 bytes covers x86 and most ARM cores).
inline constexpr std::size_t kCacheLineSize = 64;

template <class T>
class SpscRing {
 public:
  /// A ring holding at most `capacity` items (>= 1). Slot storage is the
  /// next power of two, but `capacity` is the back-pressure limit.
  explicit SpscRing(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    std::size_t slots = 1;
    while (slots < capacity_) slots <<= 1;
    mask_ = slots - 1;
    buf_ = std::make_unique<T[]>(slots);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  // ---- Producer side ----

  /// True when the ring is at capacity. Refreshes the cached head index
  /// whenever the cached view looks full, so a false return is definitive
  /// and a repeated call observes consumer pops (used by the blocked-
  /// producer re-check protocol in the runtime).
  [[nodiscard]] bool full() {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_cache_ < capacity_) return false;
    head_cache_ = head_.load(std::memory_order_acquire);
    return t - head_cache_ >= capacity_;
  }

  /// Producer: append an item. Fails (without effect) when full.
  bool try_push(T&& v) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (t - head_cache_ >= capacity_) return false;
    }
    buf_[t & mask_] = std::move(v);
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }
  bool try_push(const T& v) {
    T copy = v;
    return try_push(std::move(copy));
  }

  /// Raise `peak` to the occupancy after the last push if that is higher.
  /// `tail - head_cache_` bounds the occupancy from above (the cached head
  /// only lags), so the consumer's line is read only when the bound could
  /// set a new peak; the refreshed occupancy is the exact one as of that
  /// read, the same value a fresh read after every push would record.
  void update_peak(std::size_t& peak) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_cache_ <= peak) return;
    head_cache_ = head_.load(std::memory_order_acquire);
    const auto occ = static_cast<std::size_t>(t - head_cache_);
    if (occ > peak) peak = occ;
  }

  // ---- Consumer side ----

  /// Head item, or nullptr when empty. The pointer stays valid until
  /// pop(); the producer cannot recycle an occupied slot.
  [[nodiscard]] const T* front() { return front_mut(); }
  [[nodiscard]] T* front_mut() {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (h == tail_cache_) return nullptr;
    }
    return &buf_[h & mask_];
  }

  [[nodiscard]] bool empty() { return front() == nullptr; }

  /// Consumer: discard the head item (must exist). Clears the slot before
  /// publishing it so payload memory (tiles) is released promptly. T() is
  /// cheap for Items: Tile's default constructor leaves its inline buffer
  /// unwritten, here and in the slot array the constructor allocates.
  void pop() {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    buf_[h & mask_] = T();
    head_.store(h + 1, std::memory_order_release);
  }

  /// Racy size estimate (exact when called from either endpoint's thread
  /// while the other is quiescent). For stats and tests only.
  [[nodiscard]] std::size_t size_approx() const {
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(t >= h ? t - h : 0);
  }

 private:
  std::size_t capacity_;
  std::size_t mask_;
  std::unique_ptr<T[]> buf_;
  /// Producer-owned line: write index plus its cached view of `head_`.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  /// Consumer-owned line: read index plus its cached view of `tail_`.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
  char pad_end_[kCacheLineSize]{};  // keep tail_cache_ off neighboring objects
};

}  // namespace bpp
