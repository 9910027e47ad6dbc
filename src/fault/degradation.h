#pragma once
// Graceful degradation: frame shedding driven by deadline-miss feedback.
//
// The paper promises hard real-time from static analysis; when a fault
// plan (or reality) breaks the model, the runtime can degrade instead of
// drifting arbitrarily late. Policy: when a sink completes a frame past
// its anchored deadline (obs::DeadlineMonitor schedule), the controller
// arms a shed request; the *source* claims it at its next frame boundary
// and drops that entire upcoming frame — data, end-of-line and
// end-of-frame tokens — never mid-frame, so every downstream kernel still
// sees scan-line-consistent streams and surviving frames are bit-exact.
// Catch-up is bounded: at most `max_pending_sheds` sheds may be armed at
// once, and after claiming one the controller ignores further misses for
// `cooldown_frames` completions, giving the pipeline time to drain.
//
// The controller is shared by sink workers (miss feedback) and source
// workers (shed claims); calls are frame-granularity, so a plain mutex is
// fine. The DegradationReport rolls its accounting together with the
// critical-path walk ("which kernel's overruns cost you those frames").

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "obs/deadline.h"

namespace bpp::fault {

struct DegradationPolicy {
  /// Master switch: arm shedding (off = observe misses only).
  bool shed = false;
  /// Declared frame rate the deadline schedule derives from.
  double rate_hz = 0.0;
  /// Grace added to every deadline (wall-clock scheduler jitter).
  double slack_seconds = 0.0;
  /// Bound on armed-but-unclaimed shed requests.
  int max_pending_sheds = 1;
  /// Completed frames to ignore misses for after claiming a shed.
  int cooldown_frames = 2;
};

/// Shared shed/recovery state machine. Sinks feed frame completions in,
/// sources claim shed requests out; everything is mutex-guarded (calls
/// happen once per frame, not per pixel).
class DegradationController {
 public:
  explicit DegradationController(DegradationPolicy policy,
                                 obs::MetricsRegistry* metrics = nullptr);

  /// A frame is complete once `sinks` sinks consumed its end-of-frame
  /// token, and misses past `tolerance_seconds`. Call before the run starts.
  void attach_sinks(int sinks, double tolerance_seconds);

  struct Completion {
    bool completed = false;      ///< all sinks have now seen this frame
    bool missed = false;         ///< completed past its deadline
    bool shed_requested = false;  ///< this miss armed a new shed request
  };

  /// Sink side: one sink consumed frame `frame`'s end-of-frame token at
  /// `t_seconds` (wall seconds since run start).
  Completion on_frame_end(std::int64_t frame, double t_seconds);

  /// Source side: claim an armed shed request at a frame boundary.
  /// Returns true at most `max_pending_sheds` times per arming window;
  /// the caller must then drop the whole upcoming frame.
  [[nodiscard]] bool should_shed();

  /// Source side: the claimed shed of `frame` finished (its end-of-frame
  /// token was dropped; the source is back at a frame boundary).
  void on_shed_complete(std::int64_t frame);

  [[nodiscard]] const DegradationPolicy& policy() const { return policy_; }
  [[nodiscard]] long frames_completed() const;
  [[nodiscard]] long misses() const;
  [[nodiscard]] long frames_shed() const;
  [[nodiscard]] long pending_sheds() const;
  [[nodiscard]] std::vector<std::int64_t> shed_frames() const;
  [[nodiscard]] std::vector<obs::FrameVerdict> verdicts() const;

 private:
  mutable std::mutex mu_;
  DegradationPolicy policy_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::DeadlineMonitor monitor_;
  int sinks_needed_ = 1;
  std::map<std::int64_t, int> eof_counts_;  ///< partial sink completions
  int pending_sheds_ = 0;
  int cooldown_left_ = 0;
  std::vector<std::int64_t> shed_frames_;
};

/// Frames shed vs. late vs. on-time, plus per-kernel overrun attribution
/// from the critical-path walk.
struct DegradationReport {
  long frames_on_time = 0;
  long frames_late = 0;
  long frames_shed = 0;
  double rate_hz = 0.0;
  double slack_seconds = 0.0;
  double max_lateness_seconds = 0.0;
  std::vector<std::int64_t> shed_frames;

  struct Attribution {
    std::string kernel;
    double busy_seconds = 0.0;
    double wait_seconds = 0.0;
    double share = 0.0;  ///< of the summed critical-chain latency
  };
  /// Ranked by descending share; empty when no critical path was run.
  std::vector<Attribution> attribution;
  std::string bottleneck;  ///< empty when unattributed
};

/// Build from raw verdicts + sheds (the simulator path: no controller,
/// sheds empty). `cp`/`trace` optional — they add the attribution table.
[[nodiscard]] DegradationReport build_degradation_report(
    const std::vector<obs::FrameVerdict>& verdicts,
    const std::vector<std::int64_t>& shed_frames, double rate_hz,
    double slack_seconds, const obs::CriticalPathReport* cp = nullptr,
    const obs::Trace* trace = nullptr);

/// Build from a live controller (the runtime path).
[[nodiscard]] DegradationReport build_degradation_report(
    const DegradationController& c, const obs::CriticalPathReport* cp = nullptr,
    const obs::Trace* trace = nullptr);

/// Human-readable summary (bpc --analyze).
void write_degradation(const DegradationReport& r, std::ostream& os);

/// JSON form (deterministic key order).
[[nodiscard]] std::string write_degradation_json(const DegradationReport& r);

}  // namespace bpp::fault
