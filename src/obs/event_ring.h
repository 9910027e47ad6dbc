#pragma once
// Per-thread lock-free trace-event ring.
//
// The same Lamport SPSC design as the runtime's channels (core/spsc_ring.h)
// carrying fixed-size TraceEvent records: the owning worker thread is the
// single producer, the collector draining after (or concurrently with) the
// run is the single consumer. A full ring never blocks the producer —
// emit() drops the event and counts it, so tracing shears accuracy under
// overload instead of perturbing the schedule it is observing. The oldest
// events are the ones kept (first-N semantics).

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/spsc_ring.h"
#include "obs/trace.h"

namespace bpp::obs {

class EventRing {
 public:
  explicit EventRing(std::size_t capacity) : ring_(capacity) {}

  /// Producer: record one event; drops (and counts) when full.
  void emit(const TraceEvent& e) {
    if (!ring_.try_push(e))
      dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Consumer: append everything currently in the ring to `out`.
  void drain_into(std::vector<TraceEvent>& out) {
    while (const TraceEvent* e = ring_.front()) {
      out.push_back(*e);
      ring_.pop();
    }
  }

  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }

 private:
  SpscRing<TraceEvent> ring_;
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace bpp::obs
