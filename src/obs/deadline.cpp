#include "obs/deadline.h"

#include <algorithm>
#include <limits>

namespace bpp::obs {

double lateness_tolerance(const Graph& g, double slowdown) {
  double period = std::numeric_limits<double>::infinity();
  for (KernelId k = 0; k < g.kernel_count(); ++k) {
    const Kernel& kn = g.kernel(k);
    if (!kn.is_source()) continue;
    const auto spec = kn.source_spec(0);
    if (spec && spec->rate_hz > 0.0)
      period = std::min(period, 1.0 / (spec->rate_hz * spec->frame.area()));
  }
  return period * slowdown;
}

double frame_close_seconds(const Graph& g, std::int64_t frame,
                           double slowdown) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  double due = -kNever;
  for (KernelId k = 0; k < g.kernel_count(); ++k) {
    const Kernel& kn = g.kernel(k);
    if (!kn.is_source()) continue;
    const auto spec = kn.source_spec(0);
    if (!spec || spec->rate_hz <= 0.0 || spec->frames <= 0) continue;
    if (frame < 0 || frame >= spec->frames) return kNever;
    const auto area = static_cast<std::int64_t>(spec->frame.area());
    const double pixel_period =
        1.0 / (spec->rate_hz * static_cast<double>(area));
    due = std::max(due,
                   static_cast<double>((frame + 1) * area - 1) * pixel_period);
  }
  return due == -kNever ? kNever : due * slowdown;
}

DeadlineMonitor::DeadlineMonitor(DeadlineOptions opt, MetricsRegistry* metrics,
                                 MissCallback on_miss)
    : opt_(opt), metrics_(metrics), on_miss_(std::move(on_miss)) {
  if (metrics_ && opt_.rate_hz > 0.0)
    metrics_->gauge("deadline.period_seconds").set(period_seconds());
}

const FrameVerdict& DeadlineMonitor::observe_frame(std::int64_t frame,
                                                   double end_seconds) {
  if (!anchored_) {
    anchored_ = true;
    anchor_frame_ = frame;
    anchor_seconds_ = end_seconds;
  }
  FrameVerdict v;
  v.frame = frame;
  v.completed_seconds = end_seconds;
  const double scheduled =
      anchor_seconds_ +
      static_cast<double>(frame - anchor_frame_) * period_seconds();
  v.deadline_seconds = scheduled + opt_.slack_seconds;
  v.lateness_seconds = end_seconds - scheduled;
  v.missed = opt_.rate_hz > 0.0 &&
             is_late(end_seconds - v.deadline_seconds, opt_.tolerance_seconds);
  if (v.missed) ++misses_;
  max_lateness_ = std::max(max_lateness_, v.lateness_seconds);

  if (metrics_) {
    metrics_->counter("deadline.frames").add(1);
    if (v.missed) metrics_->counter("deadline.misses").add(1);
    metrics_->high_water("deadline.max_lateness_seconds")
        .update(v.lateness_seconds);
    metrics_->histogram("deadline.lateness_seconds")
        .observe(std::max(0.0, v.lateness_seconds));
  }
  verdicts_.push_back(v);
  if (v.missed && on_miss_) on_miss_(verdicts_.back());
  return verdicts_.back();
}

void DeadlineMonitor::observe(const FrameReport& report) {
  for (const FrameRecord& f : report.frames)
    observe_frame(f.frame, f.end_seconds);
}

}  // namespace bpp::obs
