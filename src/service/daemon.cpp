#include "service/daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "apps/pipelines.h"
#include "compiler/pipeline.h"
#include "core/error.h"
#include "fault/degradation.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/frames.h"
#include "obs/recorder.h"
#include "predict/predict.h"
#include "runtime/machine.h"
#include "runtime/program.h"
#include "runtime/runtime.h"
#include "serialize/json.h"
#include "serialize/serialize.h"
#include "service/journal.h"
#include "service/protocol.h"

namespace bpp::service {

const char* state_name(TenantState s) {
  switch (s) {
    case TenantState::kPending: return "pending";
    case TenantState::kRunning: return "running";
    case TenantState::kCompleted: return "completed";
    case TenantState::kDrained: return "drained";
    case TenantState::kEvicted: return "evicted";
    case TenantState::kQuarantined: return "quarantined";
    case TenantState::kRejected: return "rejected";
    case TenantState::kFailed: return "failed";
  }
  return "?";
}

TenantState state_from_name(const std::string& name) {
  for (TenantState s :
       {TenantState::kPending, TenantState::kRunning, TenantState::kCompleted,
        TenantState::kDrained, TenantState::kEvicted,
        TenantState::kQuarantined, TenantState::kRejected,
        TenantState::kFailed})
    if (name == state_name(s)) return s;
  throw Error("unknown tenant state \"" + name + "\"");
}

namespace {

Verdict verdict_from_name(const std::string& name) {
  if (name == "admitted") return Verdict::kAdmitted;
  if (name == "degraded") return Verdict::kDegraded;
  return Verdict::kRejected;
}

}  // namespace

/// Everything one submission owns. Destruction order matters: `program`
/// is declared last so it detaches from the machine (and stops touching
/// the graph, recorder, injector, and controller) before they go away.
struct Daemon::Tenant {
  int id = -1;
  TenantSpec spec;
  std::string app_label;
  TenantState state = TenantState::kPending;
  Placement placement;
  std::vector<double> vcore_util;
  double predicted_period_seconds = 0.0;  ///< standalone steady period
  std::string reason;
  double rate_hz = 0.0;  ///< deadline-schedule rate (post-slowdown)
  bool evicting = false;

  // ---- supervisor state (monitor thread, under the daemon lock) ----
  int restarts = 0;             ///< restart attempts performed so far
  double backoff_until = -1.0;  ///< machine time to retry at; <0 = none
  std::string last_error;       ///< most recent failure message
  long last_firings = 0;        ///< progress watchdog cursor ...
  double last_progress = 0.0;   ///< ... and when it last advanced
  bool drain_requested = false;
  long drain_firings = -1;        ///< drain-completion stability cursor
  double drain_stable_since = 0.0;
  /// Stats accumulated across failed attempts; the live attempt's counts
  /// are added on top at conclude() / in snapshots.
  long acc_firings = 0;
  long acc_faults = 0;
  long acc_shed = 0;
  long acc_frames = 0;
  long acc_misses = 0;
  double acc_wall = 0.0;

  std::optional<CompiledApp> app;  ///< graph lives in here
  std::optional<fault::Injector> injector;
  std::unique_ptr<obs::Recorder> recorder;
  std::unique_ptr<fault::DegradationController> ctrl;
  Mapping pool_mapping;
  std::unique_ptr<GraphProgram> program;

  /// Stats frozen at finalize; live snapshots are built on demand.
  TenantStatus final_status;
  bool finalized = false;
};

struct Daemon::Impl {
  explicit Impl(DaemonOptions o)
      : opt(o),
        machine(o.cores),
        admission(o.cores, o.admission),
        journal(o.journal_path) {  // empty path = journaling disabled
    monitor = std::thread([this] { monitor_loop(); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    monitor.join();
    // Stop anything still running on this thread; Tenant destruction then
    // detaches programs while the machine is still alive (member order:
    // machine outlives tenants). Teardown stops are journaled as drained
    // — the daemon going away is not the tenant's fault, so a recover()
    // resumes them (same rule as a crash, where the journal still says
    // "running").
    for (auto& t : tenants)
      if (t->state == TenantState::kRunning) {
        t->reason = "daemon shutdown";
        conclude(*t, TenantState::kDrained);
      }
  }

  // ---- submission --------------------------------------------------------

  int submit(const TenantSpec& spec) {
    std::lock_guard<std::mutex> lk(mu);
    auto t = std::make_unique<Tenant>();
    t->id = static_cast<int>(tenants.size());
    t->spec = spec;
    t->app_label = spec.app.empty() ? "(graph)" : spec.app;
    const int id = t->id;

    if (draining) {
      t->state = TenantState::kRejected;
      t->reason = "daemon draining; admission stopped";
    } else if (opt.max_tenants > 0 &&
               static_cast<int>(tenants.size()) >= opt.max_tenants) {
      t->state = TenantState::kRejected;
      t->reason = "tenant limit " + std::to_string(opt.max_tenants) + " reached";
    } else {
      try {
        start_tenant(*t);
      } catch (const Error& e) {
        t->state = TenantState::kFailed;
        t->reason = e.what();
        t->program.reset();
      }
    }
    if (t->state == TenantState::kRunning) ++running;
    journal.record_submission(t->id, &t->spec, t->spec.name,
                              verdict_name(t->placement.verdict),
                              state_name(t->state), t->reason, t->restarts);
    tenants.push_back(std::move(t));
    return id;
  }

  /// Compile, admit, start. Throws bpp::Error on build/compile failure.
  void start_tenant(Tenant& t) {
    const TenantSpec& spec = t.spec;
    Graph source = spec.app.empty()
                       ? graph_from_text(spec.graph_text)
                       : apps::named_app(spec.app, spec.frame, spec.rate_hz,
                                         spec.frames, spec.bins);
    CompileOptions copt;
    copt.machine = opt.machine;
    t.app.emplace(compile(std::move(source), copt));
    CompiledApp& app = *t.app;

    t.vcore_util =
        per_core_utilization(app.graph, app.loads, opt.machine, app.mapping);
    t.predicted_period_seconds = predict::predict(app).steady_period_seconds;
    t.placement = admission.admit(t.vcore_util);
    t.reason = t.placement.reason;
    if (t.placement.verdict == Verdict::kDegraded && !spec.allow_degraded) {
      // The submitter refused degraded service; undo the commit.
      admission.release(t.placement, t.vcore_util);
      t.placement.verdict = Verdict::kRejected;
      t.placement.pool_core_of_vcore.clear();
      t.reason += "; tenant disallows degraded admission";
    }
    if (t.placement.verdict == Verdict::kRejected) {
      t.state = TenantState::kRejected;
      return;
    }

    t.rate_hz =
        declared_schedule(app, opt.pace ? spec.pace_slowdown : 1.0).rate_hz;
    fault::DegradationPolicy pol;
    pol.shed = t.placement.verdict == Verdict::kDegraded;
    pol.rate_hz = t.rate_hz;
    pol.slack_seconds = spec.slack_seconds;
    t.recorder = std::make_unique<obs::Recorder>();
    t.ctrl = std::make_unique<fault::DegradationController>(
        pol, &t.recorder->metrics());

    if (!spec.fault_plan_json.empty()) {
      const fault::FaultPlan plan = fault::parse_plan(spec.fault_plan_json);
      // Offset the seed per attempt: a tenant that failed on a
      // probabilistic fault gets a different draw after restart (a
      // deterministic throw_prob=1.0 plan still fails every attempt and
      // exhausts the budget, which is what its tests want).
      const std::uint64_t base =
          spec.fault_seed_set ? spec.fault_seed : plan.seed;
      t.injector.emplace(plan, base + static_cast<std::uint64_t>(t.restarts));
    }

    // Translate the compiled mapping's virtual cores onto pool cores.
    t.pool_mapping.cores = machine.cores();
    t.pool_mapping.core_of.resize(app.mapping.core_of.size());
    for (size_t k = 0; k < app.mapping.core_of.size(); ++k)
      t.pool_mapping.core_of[k] =
          t.placement.pool_core_of_vcore[static_cast<size_t>(
              app.mapping.core_of[k])];

    RuntimeOptions ropt;
    ropt.pace_inputs = opt.pace;
    ropt.pace_slowdown = spec.pace_slowdown;
    ropt.recorder = t.recorder.get();
    ropt.injector = t.injector ? &*t.injector : nullptr;
    ropt.degradation = t.ctrl.get();
    t.program = std::make_unique<GraphProgram>(app.graph, t.pool_mapping, ropt,
                                               machine);
    t.program->start();
    t.state = TenantState::kRunning;
    t.last_firings = 0;
    t.last_progress = machine.now();
  }

  // ---- monitor -----------------------------------------------------------

  void monitor_loop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu);
        if (stop) return;
        bool changed = false;
        const double now = machine.now();
        for (auto& t : tenants) {
          if (t->state != TenantState::kRunning) continue;

          // Restart backoff: the tenant holds no program (and no pool
          // capacity) while waiting for its retry time.
          if (t->backoff_until >= 0.0) {
            if (now >= t->backoff_until) {
              t->backoff_until = -1.0;
              attempt_restart(*t);
              if (t->state != TenantState::kRunning) changed = true;
            }
            continue;
          }

          t->program->poll_recorder();
          if (t->program->failed()) {
            handle_failure(*t, "kernel fault: " + t->program->error());
            changed = true;
          } else if (t->program->done()) {
            conclude(*t, TenantState::kCompleted);
            changed = true;
          } else if (t->drain_requested) {
            // Draining: wait for every source to retire at its frame
            // boundary, then for in-flight firings to settle.
            if (t->program->sources_drained()) {
              const long f = t->program->firings();
              if (f != t->drain_firings) {
                t->drain_firings = f;
                t->drain_stable_since = now;
              } else if (now - t->drain_stable_since >= 0.05) {
                t->reason = "drained at frame boundary (daemon shutdown)";
                conclude(*t, TenantState::kDrained);
                changed = true;
              }
            }
          } else if (should_evict(*t)) {
            t->reason = "evicted: " + std::to_string(t->ctrl->misses()) +
                        " deadline misses (limit " +
                        std::to_string(evict_limit(*t)) + ")";
            conclude(*t, TenantState::kEvicted);
            changed = true;
          } else if (stalled(*t, now)) {
            char why[96];
            std::snprintf(why, sizeof why,
                          "stalled: no progress for %.2fs (window %.2fs)",
                          now - t->last_progress, stall_window(*t));
            handle_failure(*t, why);
            changed = true;
          }
        }
        if (changed) cv.notify_all();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // ---- supervisor --------------------------------------------------------

  [[nodiscard]] double stall_window(const Tenant& t) const {
    const double period = t.rate_hz > 0.0 ? 1.0 / t.rate_hz : 0.0;
    return std::max(opt.stall_grace_seconds, opt.stall_factor * period);
  }

  /// Progress watchdog: true when the firing counter has not advanced for
  /// a full stall window. Updates the progress cursor as a side effect.
  [[nodiscard]] bool stalled(Tenant& t, double now) const {
    const long f = t.program->firings();
    if (f != t.last_firings) {
      t.last_firings = f;
      t.last_progress = now;
      return false;
    }
    return now - t.last_progress >= stall_window(t);
  }

  /// Tear down the live attempt, return its pool capacity, and fold its
  /// statistics into the across-attempt accumulators. The tenant keeps
  /// its spec/placement metadata so a restart can recompile from scratch.
  void stop_attempt(Tenant& t) {
    const RuntimeResult r = t.program->finish();
    admission.release(t.placement, t.vcore_util);
    t.acc_firings += r.total_firings;
    t.acc_faults += r.faults_injected;
    t.acc_shed += r.frames_shed;
    t.acc_wall += r.wall_seconds;
    if (t.ctrl) {
      t.acc_frames += t.ctrl->frames_completed();
      t.acc_misses += t.ctrl->misses();
    }
    t.program.reset();
    t.ctrl.reset();
    t.recorder.reset();
    t.injector.reset();
    t.app.reset();
  }

  /// An attempt failed (kernel exception, stall, or a restart that never
  /// produced a program). Restart with exponential backoff until the
  /// budget is spent, then quarantine.
  void handle_failure(Tenant& t, const std::string& why) {
    if (t.program) stop_attempt(t);
    t.last_error = why;
    if (draining || t.drain_requested) {
      // No restarts during shutdown; record the failure and move on.
      t.reason = "failed during drain: " + why;
      conclude(t, TenantState::kEvicted);
      return;
    }
    if (t.restarts >= opt.max_restarts) {
      t.reason = "quarantined after " + std::to_string(t.restarts + 1) +
                 " failed attempts (restart budget " +
                 std::to_string(opt.max_restarts) + "); last: " + why;
      conclude(t, TenantState::kQuarantined);
      return;
    }
    ++t.restarts;
    const double backoff =
        opt.restart_backoff_seconds * std::ldexp(1.0, t.restarts - 1);
    t.backoff_until = machine.now() + backoff;
    char note[160];
    std::snprintf(note, sizeof note, "restarting (attempt %d/%d) in %.0fms",
                  t.restarts, opt.max_restarts, backoff * 1e3);
    t.reason = std::string(note) + " after: " + why;
    journal.record_restart(t.id, t.restarts, why);
  }

  /// Backoff expired: recompile and re-admit. A failure here (compile
  /// error or re-admission refusal) consumes the attempt like any other.
  void attempt_restart(Tenant& t) {
    try {
      start_tenant(t);
    } catch (const Error& e) {
      t.state = TenantState::kRunning;  // stay supervised
      t.program.reset();
      handle_failure(t, std::string("restart failed: ") + e.what());
      return;
    }
    if (t.state == TenantState::kRejected) {
      // The pool filled up while we were away; that will not improve by
      // retrying, so quarantine immediately.
      t.state = TenantState::kRunning;
      t.reason = "quarantined: re-admission rejected: " + t.reason;
      conclude(t, TenantState::kQuarantined);
    }
  }

  [[nodiscard]] long evict_limit(const Tenant& t) const {
    // Degraded tenants shed as their first line of defense; eviction only
    // fires if misses keep accumulating well past the admitted threshold.
    const long base = opt.evict_misses;
    return t.placement.verdict == Verdict::kDegraded ? base * 4 : base;
  }

  [[nodiscard]] bool should_evict(const Tenant& t) const {
    if (opt.evict_misses <= 0 || !t.ctrl) return false;
    return t.ctrl->misses() >= evict_limit(t);
  }

  /// Move a tenant to a terminal (or drained) state: stop any live
  /// attempt, freeze its statistics, and journal the transition. Called
  /// with `mu` held (monitor thread or teardown).
  void conclude(Tenant& t, TenantState end_state) {
    double min_slack = 0.0;
    bool have_slack = false;
    double lat_p50 = 0.0, lat_p95 = 0.0;
    long frames_from_trace = 0;
    if (t.program) {
      if (t.ctrl) {
        for (const obs::FrameVerdict& v : t.ctrl->verdicts()) {
          const double slack = v.deadline_seconds - v.completed_seconds;
          if (!have_slack || slack < min_slack) min_slack = slack;
          have_slack = true;
        }
      }
      if (t.recorder) {
        const obs::FrameReport fr = obs::analyze_frames(t.recorder->trace());
        lat_p50 = fr.latency.p50;
        lat_p95 = fr.latency.p95;
        frames_from_trace = static_cast<long>(fr.frames.size());
      }
      stop_attempt(t);  // folds the live attempt into the accumulators
    }
    t.state = end_state;
    t.backoff_until = -1.0;
    --running;

    TenantStatus& s = t.final_status;
    s = snapshot_common(t);
    s.firings = t.acc_firings;
    s.faults_injected = t.acc_faults;
    s.frames_shed = t.acc_shed;
    s.wall_seconds = t.acc_wall;
    s.frames_completed =
        t.acc_frames > 0 ? t.acc_frames : frames_from_trace;
    s.deadline_misses = t.acc_misses;
    s.min_slack = have_slack ? min_slack : 0.0;
    s.latency_p50 = lat_p50;
    s.latency_p95 = lat_p95;
    t.finalized = true;
    journal.record_state(t.id, state_name(end_state), t.reason, t.restarts);
  }

  // ---- status ------------------------------------------------------------

  [[nodiscard]] TenantStatus snapshot_common(const Tenant& t) const {
    TenantStatus s;
    s.id = t.id;
    s.name = t.spec.name;
    s.app = t.app_label;
    s.state = t.state;
    s.admission = t.placement.verdict;
    s.reason = t.reason;
    s.demand = t.placement.demand;
    s.peak_load = t.placement.peak_load;
    s.rate_hz = t.rate_hz;
    s.restarts = t.restarts;
    s.predicted_period_seconds = t.predicted_period_seconds;
    return s;
  }

  [[nodiscard]] TenantStatus snapshot(const Tenant& t) const {
    if (t.finalized) return t.final_status;
    TenantStatus s = snapshot_common(t);
    // Prior (failed) attempts' counts, plus the live attempt's if one is
    // running (a tenant in restart backoff has no program).
    s.firings = t.acc_firings;
    s.faults_injected = t.acc_faults;
    s.frames_shed = t.acc_shed;
    s.frames_completed = t.acc_frames;
    s.deadline_misses = t.acc_misses;
    s.wall_seconds = t.acc_wall;
    if (t.state == TenantState::kRunning && t.program) {
      s.firings += t.program->firings();
      s.wall_seconds += t.program->elapsed_seconds();
      s.frames_shed += t.program->frames_shed();
      if (t.ctrl) {
        s.frames_completed += t.ctrl->frames_completed();
        s.deadline_misses += t.ctrl->misses();
      }
    }
    return s;
  }

  [[nodiscard]] PoolStatus pool_status() const {
    PoolStatus p;
    p.cores = machine.cores();
    p.load = admission.total_load();
    p.capacity = admission.capacity();
    for (const auto& t : tenants) switch (t->state) {
        case TenantState::kRunning: ++p.running; break;
        case TenantState::kCompleted: ++p.completed; break;
        case TenantState::kDrained: ++p.drained; break;
        case TenantState::kEvicted: ++p.evicted; break;
        case TenantState::kQuarantined: ++p.quarantined; break;
        case TenantState::kRejected: ++p.rejected; break;
        case TenantState::kFailed: ++p.failed; break;
        case TenantState::kPending: break;
      }
    return p;
  }

  /// Record a submission that never parsed/built as a failed roster entry
  /// (so status and the journal still account for it). Returns its id.
  int record_failed(const std::string& name, const std::string& reason) {
    std::lock_guard<std::mutex> lk(mu);
    auto t = std::make_unique<Tenant>();
    t->id = static_cast<int>(tenants.size());
    t->spec.name = name;
    t->app_label = "(invalid)";
    t->state = TenantState::kFailed;
    t->reason = reason;
    const int id = t->id;
    journal.record_submission(id, nullptr, name, "rejected", "failed", reason,
                              0);
    tenants.push_back(std::move(t));
    return id;
  }

  DaemonOptions opt;
  rt::Machine machine;  ///< declared before tenants: outlives every program
  AdmissionController admission;
  mutable std::mutex mu;
  std::condition_variable cv;  ///< signaled when a tenant leaves kRunning
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::set<std::string> spooled;  ///< spool files already submitted
  std::vector<std::string> spool_diag;  ///< per-file spool diagnostics
  Journal journal;
  int running = 0;
  bool stop = false;
  bool draining = false;  ///< admission closed (drain() was called)
  std::thread monitor;
};

Daemon::Daemon(DaemonOptions opt) : impl_(std::make_unique<Impl>(opt)) {}
Daemon::~Daemon() = default;

int Daemon::submit(const TenantSpec& spec) { return impl_->submit(spec); }

int Daemon::submit_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream text;
  text << f.rdbuf();
  TenantSpec spec;
  try {
    if (!f) throw Error("cannot read submission file '" + path + "'");
    spec = parse_submission(text.str());
  } catch (const Error& e) {
    return impl_->record_failed(
        std::filesystem::path(path).filename().string(), e.what());
  }
  return impl_->submit(spec);
}

int Daemon::scan_spool(const std::string& dir) {
  namespace fs = std::filesystem;

  // Enumerate with per-entry error checks: a file that vanishes or turns
  // unreadable mid-scan produces a diagnostic, not a failed scan. Only
  // `*.json` is picked up — a writer's in-flight `foo.json.tmp` (the
  // atomic write-to-tmp-then-rename discipline, protocol.h) is skipped
  // until its rename lands.
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec)
    throw Error("cannot scan spool directory '" + dir + "': " + ec.message());
  std::vector<std::string> files;
  for (const fs::directory_iterator end; it != end;) {
    const fs::path p = it->path();
    std::error_code fec;
    const bool regular = it->is_regular_file(fec);
    if (fec) {
      std::lock_guard<std::mutex> lk(impl_->mu);
      impl_->spool_diag.push_back("spool: cannot stat '" + p.string() +
                                  "': " + fec.message());
    } else if (regular && p.extension() == ".json") {
      files.push_back(p.string());
    }
    it.increment(fec);
    if (fec) {
      std::lock_guard<std::mutex> lk(impl_->mu);
      impl_->spool_diag.push_back("spool: scan of '" + dir +
                                  "' aborted: " + fec.message());
      break;
    }
  }
  std::sort(files.begin(), files.end());

  int submitted = 0;
  for (const std::string& f : files) {
    {
      std::lock_guard<std::mutex> lk(impl_->mu);
      if (impl_->spooled.count(f) != 0) continue;
    }

    // A torn read here means we raced a non-atomic writer; retry briefly
    // before declaring the file malformed for good.
    std::string err;
    TenantSpec spec;
    bool parsed = false;
    for (int attempt = 0; attempt < 3 && !parsed; ++attempt) {
      if (attempt > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(10 << attempt));
      std::ifstream in(f);
      std::ostringstream text;
      text << in.rdbuf();
      if (!in) {
        err = "cannot read file";
        continue;
      }
      try {
        spec = parse_submission(text.str());
        parsed = true;
      } catch (const Error& e) {
        err = e.what();
      }
    }
    {
      std::lock_guard<std::mutex> lk(impl_->mu);
      impl_->spooled.insert(f);
    }
    if (parsed) {
      impl_->submit(spec);
      ++submitted;
      continue;
    }

    // Persistently malformed: quarantine the file under spool/bad/ with a
    // sibling .reason note so it stops being rescanned and the operator
    // can see why, and record it as a failed tenant.
    const fs::path src(f);
    const std::string fname = src.filename().string();
    std::error_code mec;
    if (!fs::exists(src, mec)) {
      std::lock_guard<std::mutex> lk(impl_->mu);
      impl_->spool_diag.push_back("spool: '" + f +
                                  "' vanished during scan; skipped");
      continue;
    }
    const fs::path baddir = src.parent_path() / "bad";
    fs::create_directories(baddir, mec);
    const fs::path dst = baddir / fname;
    if (!mec) fs::rename(src, dst, mec);
    std::string note;
    if (mec) {
      note = "spool: malformed '" + f + "' (" + err +
             "); could not move to bad/: " + mec.message();
    } else {
      std::ofstream reason(dst.string() + ".reason", std::ios::trunc);
      reason << err << '\n';
      note = "spool: malformed '" + f + "' moved to '" + dst.string() +
             "': " + err;
    }
    {
      std::lock_guard<std::mutex> lk(impl_->mu);
      impl_->spool_diag.push_back(note);
    }
    impl_->record_failed(fname, "malformed spool file: " + err);
  }
  return submitted;
}

bool Daemon::drain(double timeout_seconds) {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->draining = true;  // submit() now rejects everything
    for (auto& t : impl_->tenants) {
      if (t->state != TenantState::kRunning) continue;
      if (t->program) {
        t->drain_requested = true;
        t->drain_firings = -1;
        t->drain_stable_since = 0.0;
        t->program->request_drain();
      } else {
        // Restart backoff: there is nothing running to retire.
        t->reason = "drained during restart backoff";
        impl_->conclude(*t, TenantState::kDrained);
      }
    }
    impl_->cv.notify_all();
  }
  const bool idle = wait_idle(timeout_seconds);
  if (!idle) {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (auto& t : impl_->tenants)
      if (t->state == TenantState::kRunning) {
        t->reason = "drain timeout exceeded; stopped mid-frame";
        impl_->conclude(*t, TenantState::kDrained);
      }
    impl_->cv.notify_all();
  }
  return idle;
}

int Daemon::recover(const std::string& journal_path) {
  const std::vector<JournalEntry> entries = replay_journal(journal_path);
  int resumed = 0;
  for (const JournalEntry& e : entries) {
    if (e.resumable() && e.has_spec) {
      submit(e.spec);  // normal admission; journaled like any submission
      ++resumed;
      continue;
    }
    // Terminal (or spec-less) entries are restored as frozen roster
    // entries: quarantine and eviction decisions survive the restart.
    std::lock_guard<std::mutex> lk(impl_->mu);
    auto t = std::make_unique<Tenant>();
    t->id = static_cast<int>(impl_->tenants.size());
    if (e.has_spec) {
      t->spec = e.spec;
      t->app_label = e.spec.app.empty() ? "(graph)" : e.spec.app;
    } else {
      t->spec.name = e.name;
      t->app_label = "(recovered)";
    }
    if (e.resumable()) {
      // Resumable per the journal, but the spec never made it to disk —
      // nothing to restart from.
      t->state = TenantState::kFailed;
      t->reason = "recover: spec unavailable; cannot resume (was " + e.state +
                  ")";
    } else {
      t->state = state_from_name(e.state);
      t->reason = e.reason;
    }
    t->restarts = e.restarts;
    t->placement.verdict = verdict_from_name(e.verdict);
    t->final_status = impl_->snapshot_common(*t);
    t->finalized = true;
    impl_->journal.record_submission(
        t->id, e.has_spec ? &t->spec : nullptr, t->spec.name, e.verdict,
        state_name(t->state), t->reason, t->restarts);
    impl_->tenants.push_back(std::move(t));
  }
  return resumed;
}

std::vector<std::string> Daemon::spool_diagnostics() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::vector<std::string> out;
  out.swap(impl_->spool_diag);
  return out;
}

bool Daemon::wait_idle(double timeout_seconds) {
  std::unique_lock<std::mutex> lk(impl_->mu);
  return impl_->cv.wait_for(
      lk, std::chrono::duration<double>(timeout_seconds),
      [&] { return impl_->running == 0; });
}

TenantStatus Daemon::tenant(int id) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->snapshot(*impl_->tenants.at(static_cast<size_t>(id)));
}

std::vector<TenantStatus> Daemon::tenants() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::vector<TenantStatus> out;
  out.reserve(impl_->tenants.size());
  for (const auto& t : impl_->tenants) out.push_back(impl_->snapshot(*t));
  return out;
}

PoolStatus Daemon::pool() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->pool_status();
}

int Daemon::cores() const { return impl_->machine.cores(); }

void Daemon::write_status(std::ostream& os) const {
  const PoolStatus p = pool();
  const std::vector<TenantStatus> ts = tenants();
  char line[512];
  std::snprintf(line, sizeof line,
                "bpd: pool %d cores, load %.2f/%.2f PE (%.0f%%), tenants: %d "
                "running, %d completed, %d drained, %d evicted, %d "
                "quarantined, %d rejected, %d failed\n",
                p.cores, p.load, p.capacity,
                p.capacity > 0.0 ? 100.0 * p.load / p.capacity : 0.0,
                p.running, p.completed, p.drained, p.evicted, p.quarantined,
                p.rejected, p.failed);
  os << line;
  for (const TenantStatus& s : ts) {
    std::snprintf(line, sizeof line, "tenant %d '%s' app=%s: state=%s admission=%s",
                  s.id, s.name.c_str(), s.app.c_str(), state_name(s.state),
                  verdict_name(s.admission));
    os << line;
    if (s.state == TenantState::kRejected || s.state == TenantState::kFailed) {
      os << " reason=\"" << s.reason << "\"\n";
      continue;
    }
    std::snprintf(line, sizeof line,
                  " demand=%.2f rate=%.1fHz frames=%ld missed=%ld shed=%ld "
                  "firings=%ld",
                  s.demand, s.rate_hz, s.frames_completed, s.deadline_misses,
                  s.frames_shed, s.firings);
    os << line;
    if (s.restarts > 0) {
      std::snprintf(line, sizeof line, " restarts=%d", s.restarts);
      os << line;
    }
    if (s.predicted_period_seconds > 0.0) {
      std::snprintf(line, sizeof line, " predicted_period=%.2fms",
                    s.predicted_period_seconds * 1e3);
      os << line;
    }
    if (s.frames_completed > 0) {
      std::snprintf(line, sizeof line,
                    " latency_p50=%.2fms latency_p95=%.2fms min_slack=%.2fms",
                    s.latency_p50 * 1e3, s.latency_p95 * 1e3,
                    s.min_slack * 1e3);
      os << line;
    }
    if (s.state == TenantState::kEvicted ||
        s.state == TenantState::kQuarantined ||
        s.state == TenantState::kDrained)
      os << " reason=\"" << s.reason << "\"";
    os << '\n';
  }
}

std::string Daemon::status_json() const {
  const PoolStatus p = pool();
  const std::vector<TenantStatus> ts = tenants();
  json::Object pool_o;
  pool_o["cores"] = p.cores;
  pool_o["load_pe"] = p.load;
  pool_o["capacity_pe"] = p.capacity;
  pool_o["running"] = p.running;
  pool_o["completed"] = p.completed;
  pool_o["drained"] = p.drained;
  pool_o["evicted"] = p.evicted;
  pool_o["quarantined"] = p.quarantined;
  pool_o["rejected"] = p.rejected;
  pool_o["failed"] = p.failed;
  json::Array arr;
  for (const TenantStatus& s : ts) {
    json::Object o;
    o["id"] = s.id;
    o["name"] = s.name;
    o["app"] = s.app;
    o["state"] = state_name(s.state);
    o["admission"] = verdict_name(s.admission);
    o["reason"] = s.reason;
    o["demand_pe"] = s.demand;
    o["rate_hz"] = s.rate_hz;
    o["restarts"] = s.restarts;
    o["frames_completed"] = s.frames_completed;
    o["deadline_misses"] = s.deadline_misses;
    o["frames_shed"] = s.frames_shed;
    o["firings"] = s.firings;
    o["faults_injected"] = s.faults_injected;
    o["wall_seconds"] = s.wall_seconds;
    o["latency_p50_seconds"] = s.latency_p50;
    o["latency_p95_seconds"] = s.latency_p95;
    o["min_slack_seconds"] = s.min_slack;
    o["predicted_period_seconds"] = s.predicted_period_seconds;
    arr.push_back(json::Value(std::move(o)));
  }
  json::Object root;
  root["pool"] = json::Value(std::move(pool_o));
  root["tenants"] = json::Value(std::move(arr));
  return json::write(json::Value(std::move(root)));
}

}  // namespace bpp::service
