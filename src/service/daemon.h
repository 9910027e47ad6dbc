#pragma once
// The bpd daemon core: a multi-tenant pipeline service.
//
// One Daemon owns one rt::Machine (the shared worker-core pool) and any
// number of tenants — submitted pipeline instances, each compiled with
// the block-parallel compiler, priced with its LoadMap, admitted (or
// degraded, or rejected) by the AdmissionController, and run as its own
// GraphProgram multiplexed onto the pool. Every tenant gets private
// observability: its own obs::Recorder (trace rings + metrics) and its
// own fault::DegradationController, which doubles as the runtime deadline
// monitor — its verdicts are the per-frame slack the status report dumps,
// and its miss counter drives eviction.
//
// A monitor thread polls running tenants every millisecond: it drains
// their trace rings, finalizes completed programs (releasing pool
// capacity), and evicts persistent deadline missers — a tenant whose
// misses reach evict_misses is quiesced, detached, and its capacity
// returned, protecting the remaining tenants' schedules. Tenants admitted
// in degraded mode shed frames instead (the DegradationController claims
// whole input frames at the source), and are only evicted if they *still*
// accumulate misses past the threshold.
//
// The monitor doubles as the per-tenant supervisor (DESIGN.md §8): a
// tenant whose program failed (a kernel firing raised — contained by the
// machine's worker backstop, so co-tenants never notice) or whose firing
// counter stops advancing for a stall window is torn down, its capacity
// released, and restarted with exponential backoff; after max_restarts
// failed restarts it lands in kQuarantined for good. All decisions are
// journaled (service/journal.h) when DaemonOptions::journal_path is set,
// and recover() replays such a journal after a crash: terminal states are
// restored verbatim (quarantine survives restarts), previously running or
// drained tenants are re-admitted. drain() is the graceful-shutdown path:
// admission stops, every source retires at its next frame boundary, and
// tenants conclude as kDrained (resumable on recover).
//
// Thread model: submit()/status()/wait_idle() may be called from any
// thread (one internal lock); tenant finalization happens on the monitor
// thread; kernel execution on the machine's workers. The destructor
// evicts anything still running, so a Daemon can be torn down at any
// point.

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "compiler/machine.h"
#include "service/admission.h"
#include "service/protocol.h"

namespace bpp::service {

struct DaemonOptions {
  int cores = 4;          ///< worker pool width
  int max_tenants = 64;   ///< lifetime submission cap (0 = unlimited)
  AdmissionPolicy admission;
  /// Runtime deadline misses after which a tenant is evicted (0 = never).
  long evict_misses = 3;
  /// Pace tenant sources on their declared release schedules (the
  /// real-time service mode; off = run-to-completion batch mode).
  bool pace = true;
  /// Compile target for tenant graphs; also prices admission.
  MachineSpec machine;
  /// Restart budget: a failing tenant is restarted this many times (with
  /// exponential backoff) before being quarantined. 0 = quarantine on the
  /// first failure.
  int max_restarts = 3;
  /// First restart delay; doubles per consecutive failure.
  double restart_backoff_seconds = 0.05;
  /// Stall watchdog: a tenant whose firing counter does not advance for
  /// max(stall_grace_seconds, stall_factor / rate_hz) is declared stalled
  /// and treated like a failure (restart, then quarantine).
  double stall_factor = 8.0;
  double stall_grace_seconds = 1.0;
  /// Admission journal path ("" = journaling off). See service/journal.h.
  std::string journal_path;
};

/// Tenant lifecycle, as reported in status:
///   pending -> running -> completed        (all sinks saw end-of-stream)
///                      -> drained          (graceful shutdown; resumable)
///                      -> evicted          (persistent deadline misser)
///                      -> quarantined      (restart budget exhausted)
///   rejected                               (admission said no)
///   failed                                 (submission did not build)
/// A running tenant that fails (kernel exception or stall) is restarted
/// in place — it stays kRunning through the backoff — and only becomes
/// kQuarantined once max_restarts restarts have also failed.
enum class TenantState {
  kPending,
  kRunning,
  kCompleted,
  kDrained,
  kEvicted,
  kQuarantined,
  kRejected,
  kFailed,
};

[[nodiscard]] const char* state_name(TenantState s);
/// Inverse of state_name (used by journal replay). Throws on unknown.
[[nodiscard]] TenantState state_from_name(const std::string& name);

/// Point-in-time snapshot of one tenant (copyable, lock-free to read).
struct TenantStatus {
  int id = -1;
  std::string name;
  std::string app;  ///< bundled app name or "(graph)"
  TenantState state = TenantState::kPending;
  Verdict admission = Verdict::kRejected;
  std::string reason;  ///< admission/eviction/failure justification
  double demand = 0.0;      ///< PE units requested
  double peak_load = 0.0;   ///< pool peak after its placement
  double rate_hz = 0.0;     ///< declared completion rate (post-slowdown)
  int restarts = 0;         ///< supervisor restarts performed
  long frames_completed = 0;
  long deadline_misses = 0;
  long frames_shed = 0;
  long firings = 0;
  long faults_injected = 0;
  double wall_seconds = 0.0;
  /// Frame latency/slack statistics (seconds); valid when frames > 0.
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double min_slack = 0.0;  ///< min(deadline - completion) over frames
  /// The compositional predictor's standalone steady period (src/predict).
  /// Zero when the tenant never compiled.
  double predicted_period_seconds = 0.0;
};

/// Pool-level counters for the status header.
struct PoolStatus {
  int cores = 0;
  double load = 0.0;      ///< committed PE units
  double capacity = 0.0;  ///< cores x core_budget
  int running = 0;
  int completed = 0;
  int drained = 0;
  int evicted = 0;
  int quarantined = 0;
  int rejected = 0;
  int failed = 0;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions opt);
  ~Daemon();  // evicts running tenants, stops the monitor and the pool

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Compile, admit, and (unless rejected) start a tenant. Returns its id.
  /// Build/compile failures are recorded as state=failed, not thrown.
  int submit(const TenantSpec& spec);

  /// Read, parse, and submit one submission file. Parse errors are
  /// recorded as a failed tenant named after the file.
  int submit_file(const std::string& path);

  /// Scan a spool directory for *.json submissions (sorted filename
  /// order), submitting each file once per daemon lifetime. Returns the
  /// number of new submissions.
  int scan_spool(const std::string& dir);

  /// Block until no tenant is running (or the timeout elapses).
  bool wait_idle(double timeout_seconds);

  /// Graceful shutdown: stop admission (further submissions are rejected),
  /// ask every running tenant to retire its sources at the next frame
  /// boundary, and wait for the pool to go idle. Tenants conclude as
  /// kDrained (journaled as resumable). Returns false if the timeout
  /// elapsed — stragglers are then force-stopped mid-frame (still
  /// kDrained, with the timeout in their reason).
  bool drain(double timeout_seconds);

  /// Replay a journal written by a previous daemon (service/journal.h):
  /// terminal tenants are restored as frozen roster entries (quarantine
  /// decisions preserved), resumable ones re-submitted through normal
  /// admission. Call before new submissions; this daemon's own journal is
  /// rewritten with the restored roster. Returns the number re-admitted.
  int recover(const std::string& journal_path);

  /// Per-file spool diagnostics accumulated since the last call (iterator
  /// errors, unreadable or malformed files moved to spool/bad/). Clears.
  [[nodiscard]] std::vector<std::string> spool_diagnostics();

  [[nodiscard]] TenantStatus tenant(int id) const;
  [[nodiscard]] std::vector<TenantStatus> tenants() const;
  [[nodiscard]] PoolStatus pool() const;
  [[nodiscard]] int cores() const;

  /// Human-readable status report: one pool header line plus one line per
  /// tenant (the format the CI smoke job greps).
  void write_status(std::ostream& os) const;
  /// The same report as sorted-key JSON.
  [[nodiscard]] std::string status_json() const;

 private:
  struct Tenant;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bpp::service
