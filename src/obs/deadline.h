#pragma once
// Deadline monitor: classify tracked frames against the graph's declared
// rate.
//
// The compiler's rate analysis (§III-A, §III-E) statically promises that
// the application keeps up with the input frame rate; this is the runtime
// check of that promise. Given the declared rate R, frame N's completion
// deadline is anchored at the first observed completion — pipelining means
// end-to-end latency legitimately exceeds one period, but in the steady
// state completions must arrive one period 1/R apart (§IV-D):
//
//   deadline(N) = end(first) + (N - first) / R + slack
//
// A frame misses past its deadline plus the lateness tolerance, the one
// input pixel period its last pixel may lag by phase alone. A feasible
// graph holds the schedule; an over-rated one drifts later every frame and
// accumulates misses. `slack` absorbs host-scheduler jitter on wall-clock
// traces (simulated traces can run with slack 0).
//
// Misses feed counters/gauges in a MetricsRegistry and optionally invoke a
// user callback — the hook a graceful-degradation policy would attach to.
// It classifies the frame boundaries an engine records, so it sees frames
// only from a run given a recorder.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/graph.h"
#include "obs/frames.h"
#include "obs/metrics.h"

namespace bpp::obs {

/// The one lateness rule, for releases and frames in both engines: late
/// means more than the tolerance behind schedule (1e-12 absorbs fuzz).
[[nodiscard]] inline bool is_late(double lag, double tolerance) {
  return lag > tolerance + 1e-12;
}

/// The tolerance: one input pixel period of the fastest rate-driven source
/// of `g`, times a paced run's `slowdown`; infinite with no such source.
[[nodiscard]] double lateness_tolerance(const Graph& g, double slowdown = 1.0);

/// When frame `frame` closes on the paced schedule: the latest due time,
/// in seconds from the first release, of the frame's last input pixel
/// (and of the end-of-frame token riding on it) over the rate-driven
/// finite sources of `g`, times `slowdown`. +inf past any such source's
/// last frame, and with no such source.
[[nodiscard]] double frame_close_seconds(const Graph& g, std::int64_t frame,
                                         double slowdown = 1.0);

/// Verdict for one frame.
struct FrameVerdict {
  std::int64_t frame = -1;
  double completed_seconds = 0.0;
  double deadline_seconds = 0.0;  ///< includes slack
  /// completed - (anchored schedule), before slack; negative = early.
  double lateness_seconds = 0.0;
  bool missed = false;
};

struct DeadlineOptions {
  /// Declared frame rate the schedule is derived from (frames/second).
  double rate_hz = 0.0;
  /// Grace added to every deadline (absorbs wall-clock scheduler jitter).
  double slack_seconds = 0.0;
  double tolerance_seconds = 0.0;  ///< see lateness_tolerance
};

class DeadlineMonitor {
 public:
  using MissCallback = std::function<void(const FrameVerdict&)>;

  /// `metrics` (optional) receives deadline.frames / deadline.misses
  /// counters, a deadline.max_lateness_seconds high-water mark, and a
  /// deadline.lateness_seconds histogram. `on_miss` (optional) runs
  /// synchronously for every missed frame.
  explicit DeadlineMonitor(DeadlineOptions opt,
                           MetricsRegistry* metrics = nullptr,
                           MissCallback on_miss = {});

  /// Feed one completed frame (monotonically increasing indices expected;
  /// the first observation anchors the schedule). Returns its verdict.
  const FrameVerdict& observe_frame(std::int64_t frame, double end_seconds);

  /// Feed a whole post-run frame report.
  void observe(const FrameReport& report);

  [[nodiscard]] long frames() const {
    return static_cast<long>(verdicts_.size());
  }
  [[nodiscard]] long misses() const { return misses_; }
  [[nodiscard]] double max_lateness_seconds() const { return max_lateness_; }
  [[nodiscard]] double period_seconds() const {
    return opt_.rate_hz > 0.0 ? 1.0 / opt_.rate_hz : 0.0;
  }
  [[nodiscard]] const std::vector<FrameVerdict>& verdicts() const {
    return verdicts_;
  }
  /// Set the lateness tolerance; call before the first observation.
  void set_tolerance(double seconds) { opt_.tolerance_seconds = seconds; }

 private:
  DeadlineOptions opt_;
  MetricsRegistry* metrics_ = nullptr;
  MissCallback on_miss_;
  bool anchored_ = false;
  std::int64_t anchor_frame_ = 0;
  double anchor_seconds_ = 0.0;
  long misses_ = 0;
  double max_lateness_ = 0.0;
  std::vector<FrameVerdict> verdicts_;
};

}  // namespace bpp::obs
