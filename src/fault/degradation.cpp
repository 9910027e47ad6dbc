#include "fault/degradation.h"

#include <algorithm>
#include <ostream>

#include "serialize/json.h"

namespace bpp::fault {

DegradationController::DegradationController(DegradationPolicy policy,
                                             obs::MetricsRegistry* metrics)
    : policy_(policy),
      metrics_(metrics),
      monitor_(obs::DeadlineOptions{policy.rate_hz, policy.slack_seconds},
               metrics) {}

void DegradationController::attach_sinks(int sinks, double tolerance_seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  sinks_needed_ = sinks > 0 ? sinks : 1;
  monitor_.set_tolerance(tolerance_seconds);
}

DegradationController::Completion DegradationController::on_frame_end(
    std::int64_t frame, double t_seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  Completion out;
  if (++eof_counts_[frame] < sinks_needed_) return out;  // partial
  eof_counts_.erase(frame);
  out.completed = true;
  const obs::FrameVerdict& v = monitor_.observe_frame(frame, t_seconds);
  out.missed = v.missed;
  const bool cooling = cooldown_left_ > 0;
  if (cooling) --cooldown_left_;
  if (out.missed && policy_.shed && !cooling &&
      pending_sheds_ < policy_.max_pending_sheds) {
    ++pending_sheds_;
    out.shed_requested = true;
  }
  return out;
}

bool DegradationController::should_shed() {
  std::lock_guard<std::mutex> lk(mu_);
  if (pending_sheds_ == 0) return false;
  --pending_sheds_;
  cooldown_left_ = policy_.cooldown_frames;
  return true;
}

void DegradationController::on_shed_complete(std::int64_t frame) {
  std::lock_guard<std::mutex> lk(mu_);
  shed_frames_.push_back(frame);
  if (metrics_ != nullptr)
    metrics_->counter("degradation.frames_shed").add(1);
}

long DegradationController::frames_completed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return monitor_.frames();
}

long DegradationController::misses() const {
  std::lock_guard<std::mutex> lk(mu_);
  return monitor_.misses();
}

long DegradationController::frames_shed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<long>(shed_frames_.size());
}

long DegradationController::pending_sheds() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_sheds_;
}

std::vector<std::int64_t> DegradationController::shed_frames() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shed_frames_;
}

std::vector<obs::FrameVerdict> DegradationController::verdicts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return monitor_.verdicts();
}

DegradationReport build_degradation_report(
    const std::vector<obs::FrameVerdict>& verdicts,
    const std::vector<std::int64_t>& shed_frames, double rate_hz,
    double slack_seconds, const obs::CriticalPathReport* cp,
    const obs::Trace* trace) {
  DegradationReport r;
  r.rate_hz = rate_hz;
  r.slack_seconds = slack_seconds;
  r.shed_frames = shed_frames;
  std::sort(r.shed_frames.begin(), r.shed_frames.end());
  r.frames_shed = static_cast<long>(r.shed_frames.size());
  for (const obs::FrameVerdict& v : verdicts) {
    if (v.missed)
      ++r.frames_late;
    else
      ++r.frames_on_time;
    r.max_lateness_seconds = std::max(r.max_lateness_seconds,
                                      v.lateness_seconds);
  }
  if (cp != nullptr && trace != nullptr && cp->latency_seconds > 0.0) {
    for (const obs::PathContribution& c : cp->ranked()) {
      DegradationReport::Attribution a;
      a.kernel = trace->kernel_name(c.kernel);
      a.busy_seconds = c.busy_seconds;
      a.wait_seconds = c.wait_seconds;
      a.share = c.total_seconds() / cp->latency_seconds;
      r.attribution.push_back(std::move(a));
    }
    if (cp->bottleneck >= 0) r.bottleneck = trace->kernel_name(cp->bottleneck);
  }
  return r;
}

DegradationReport build_degradation_report(const DegradationController& c,
                                           const obs::CriticalPathReport* cp,
                                           const obs::Trace* trace) {
  return build_degradation_report(c.verdicts(), c.shed_frames(),
                                  c.policy().rate_hz,
                                  c.policy().slack_seconds, cp, trace);
}

void write_degradation(const DegradationReport& r, std::ostream& os) {
  const long delivered = r.frames_on_time + r.frames_late;
  os << "degradation: " << r.frames_on_time << " on-time, " << r.frames_late
     << " late, " << r.frames_shed << " shed ("
     << (delivered + r.frames_shed) << " frames offered";
  if (r.rate_hz > 0.0) os << " @ " << r.rate_hz << " Hz";
  os << ")\n";
  if (r.max_lateness_seconds > 0.0)
    os << "  max lateness: " << r.max_lateness_seconds * 1e3 << " ms (slack "
       << r.slack_seconds * 1e3 << " ms)\n";
  if (!r.shed_frames.empty()) {
    os << "  shed frames:";
    for (std::int64_t f : r.shed_frames) os << ' ' << f;
    os << '\n';
  }
  if (!r.attribution.empty()) {
    os << "  overrun attribution (critical-chain share):\n";
    for (const auto& a : r.attribution)
      os << "    " << a.kernel << ": " << a.share * 100.0 << "% (busy "
         << a.busy_seconds * 1e3 << " ms, wait " << a.wait_seconds * 1e3
         << " ms)" << (a.kernel == r.bottleneck ? "  <- bottleneck" : "")
         << '\n';
  }
}

std::string write_degradation_json(const DegradationReport& r) {
  json::Object doc;
  doc["frames_on_time"] = static_cast<double>(r.frames_on_time);
  doc["frames_late"] = static_cast<double>(r.frames_late);
  doc["frames_shed"] = static_cast<double>(r.frames_shed);
  doc["rate_hz"] = r.rate_hz;
  doc["slack_seconds"] = r.slack_seconds;
  doc["max_lateness_seconds"] = r.max_lateness_seconds;
  json::Array shed;
  for (std::int64_t f : r.shed_frames) shed.emplace_back(static_cast<double>(f));
  doc["shed_frames"] = std::move(shed);
  json::Array attribution;
  for (const auto& a : r.attribution) {
    json::Object o;
    o["kernel"] = a.kernel;
    o["busy_seconds"] = a.busy_seconds;
    o["wait_seconds"] = a.wait_seconds;
    o["share"] = a.share;
    attribution.emplace_back(std::move(o));
  }
  doc["attribution"] = std::move(attribution);
  doc["bottleneck"] = r.bottleneck;
  return json::write(json::Value(std::move(doc)));
}

}  // namespace bpp::fault
