#pragma once
// Observability event model (DESIGN.md "Observability").
//
// Both execution engines emit the same fixed-size TraceEvent records: the
// timing simulator stamps them with modeled seconds and cycle breakdowns,
// the host runtime with wall-clock seconds measured around the same
// phases. A drained, time-sorted collection of events plus its metadata is
// a Trace — the machine-readable timeline behind the paper's Fig. 13
// per-core utilization breakdown, exportable as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing).
//
// Observability is always compiled in; an engine records only when given a
// recorder, so the cost with none is one branch on a null recorder/ring
// pointer per instrumentation site.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace bpp::obs {

/// Which clock the event timestamps live on.
enum class TraceClock : std::uint8_t {
  kModeled,  ///< simulator seconds; aux fields carry cycles
  kWall,     ///< host steady-clock seconds since run start; aux in seconds
};

enum class EventKind : std::uint8_t {
  /// Span: one kernel firing (input pop + method/forward). aux0/1/2 are the
  /// run/read/write components — cycles on the modeled clock, seconds on
  /// the wall clock (wall firings carry their write cost in separate
  /// kWrite spans, so aux2 is 0 there).
  kFiring = 0,
  /// Span: draining back-pressured pending emissions to channels (the
  /// write phase when it happens outside a firing). aux2 = write cost.
  kWrite,
  /// Span: a worker parked idle on its eventcount (wall clock only).
  /// t0 = park, t1 = wakeup; kernel is -1.
  kPark,
  /// Instant: an application input released one item. aux0 = release lag in
  /// seconds (0 when on time), aux1 = 1 when the lag exceeded the engine's
  /// configured tolerance (a counted deadline miss).
  kSourceRelease,
  /// Instant: an item was pushed to / popped from channel `channel`;
  /// aux0 = occupancy just after the operation.
  kChannelPush,
  kChannelPop,
  /// Instant: an application input released the first pixel of a frame.
  /// `kernel` is the source, `method` carries the frame index (the field is
  /// otherwise unused for instants).
  kFrameStart,
  /// Instant: a sink kernel finished consuming a frame's end-of-frame
  /// token. `kernel` is the sink, `method` carries the frame index.
  kFrameEnd,
  /// Instant: the fault injector perturbed this firing. `kernel` is the
  /// perturbed kernel, aux0 = time scale, aux1 = stall seconds,
  /// aux2 = delivery delay seconds.
  kFaultInject,
  /// Instant: a source started dropping a whole frame (graceful
  /// degradation). `kernel` is the source, `method` the shed frame index.
  kFrameShed,
  /// Instant: the shed finished — the frame's end-of-frame token was
  /// dropped and the source is back at a frame boundary. `kernel` is the
  /// source, `method` the shed frame index.
  kShedRecover,
};

[[nodiscard]] const char* event_kind_name(EventKind k);

/// One fixed-size, trivially-copyable record; spans use [t0, t1], instants
/// carry t0 == t1. Meaning of aux0..2 depends on `kind` (see EventKind).
struct TraceEvent {
  double t0 = 0.0;
  double t1 = 0.0;
  float aux0 = 0.0f;
  float aux1 = 0.0f;
  float aux2 = 0.0f;
  std::int32_t kernel = -1;
  std::int32_t core = -1;
  std::int32_t method = -1;
  std::int32_t channel = -1;
  EventKind kind = EventKind::kFiring;
};

// Record builders for the shapes both engines emit. Each site is
// `if (ring) ring->emit(obs::...(...))`, so the builder runs only when
// tracing.

/// kFiring span; `run`/`read`/`write` fill aux0..2 (see kFiring).
inline TraceEvent firing_span(double t0, double t1, std::int32_t kernel,
                              std::int32_t core, std::int32_t method,
                              double run, double read, double write = 0.0) {
  return {.t0 = t0, .t1 = t1, .aux0 = static_cast<float>(run),
          .aux1 = static_cast<float>(read), .aux2 = static_cast<float>(write),
          .kernel = kernel, .core = core, .method = method};
}

/// kWrite span: a drain of back-pressured emissions costing `write`.
inline TraceEvent write_span(double t0, double t1, std::int32_t kernel,
                             std::int32_t core, double write) {
  return {.t0 = t0, .t1 = t1, .aux2 = static_cast<float>(write),
          .kernel = kernel, .core = core, .kind = EventKind::kWrite};
}

/// kChannelPush/kChannelPop: `occupancy` of `channel` just after the
/// operation.
inline TraceEvent channel_sample(EventKind kind, double t, std::int32_t channel,
                                 std::int32_t core, double occupancy) {
  return {.t0 = t, .t1 = t, .aux0 = static_cast<float>(occupancy),
          .core = core, .channel = channel, .kind = kind};
}

/// kFaultInject instant for a perturbed firing or release.
inline TraceEvent fault_instant(double t, std::int32_t kernel,
                                std::int32_t core, double time_scale,
                                double stall_seconds, double delay_seconds) {
  return {.t0 = t, .t1 = t, .aux0 = static_cast<float>(time_scale),
          .aux1 = static_cast<float>(stall_seconds),
          .aux2 = static_cast<float>(delay_seconds), .kernel = kernel,
          .core = core, .kind = EventKind::kFaultInject};
}

/// kFrameStart/kFrameEnd/kFrameShed/kShedRecover instant for `frame`.
inline TraceEvent frame_instant(EventKind kind, double t, std::int32_t kernel,
                                std::int32_t core, std::int64_t frame) {
  return {.t0 = t, .t1 = t, .kernel = kernel, .core = core,
          .method = static_cast<std::int32_t>(frame), .kind = kind};
}

/// kSourceRelease instant; `late` marks a lag past the engine's tolerance.
inline TraceEvent source_release(double t, std::int32_t kernel,
                                 std::int32_t core, double lag, bool late) {
  return {.t0 = t, .t1 = t, .aux0 = static_cast<float>(lag > 0.0 ? lag : 0.0),
          .aux1 = late ? 1.0f : 0.0f, .kernel = kernel, .core = core,
          .kind = EventKind::kSourceRelease};
}

/// A drained, time-sorted event collection plus the metadata needed to
/// interpret and export it.
struct Trace {
  TraceClock clock = TraceClock::kWall;
  /// Cycles per second of the modeled machine (converts the cycle-valued
  /// aux fields to seconds); 0 on the wall clock.
  double cycles_per_second = 0.0;
  int cores = 0;
  double duration_seconds = 0.0;
  std::vector<std::string> kernel_names;
  std::vector<TraceEvent> events;  ///< sorted by t0 (stable)
  /// Events lost to ring overflow (the rings keep the oldest events).
  std::uint64_t dropped_events = 0;

  [[nodiscard]] const std::string& kernel_name(std::int32_t k) const;
};

/// The first `n` firing spans of `t`, in trace order (`bpc --firings N`).
[[nodiscard]] std::vector<TraceEvent> first_firings(const Trace& t,
                                                    std::size_t n);

/// Write `t` as Chrome trace-event JSON ({"traceEvents": [...]}), loadable
/// in Perfetto or chrome://tracing. Firing/write/park events become "X"
/// complete events on one track per core (sources on an extra track),
/// releases become instants, channel occupancies become "C" counters.
void write_chrome_trace(const Trace& t, std::ostream& os);

}  // namespace bpp::obs
