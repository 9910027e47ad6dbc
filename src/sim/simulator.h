#pragma once
// Timing-accurate functional simulator (paper §IV-D, §V).
//
// Matches the paper's evaluation vehicle: it accounts for kernel execution
// time, data access (read/write) time, buffer transfer, and the scheduling
// of time-multiplexed kernels on shared cores — but not placement or
// communication latency ("a reasonable simplification for a
// throughput-based application"). Kernels execute functionally, so outputs
// can be checked against golden references while timing is measured.
//
// Application inputs release items on their real-time schedule; if the
// downstream graph cannot accept an item when it is released the lag is
// recorded — a camera cannot wait, so a release late by obs::is_late (more
// than one input pixel period behind) is a real-time violation.

#include <string>
#include <vector>

#include "compiler/machine.h"
#include "compiler/multiplex.h"
#include "core/graph.h"

namespace bpp {

namespace obs {
class Recorder;
}  // namespace obs

namespace fault {
class Injector;
}  // namespace fault

struct SimOptions {
  MachineSpec machine;
  /// Items of slack per channel (the paper's one-iteration implicit buffer
  /// on each side of a channel, plus transfer double-buffering).
  int channel_capacity = 4;
  /// Observability sink (see obs/recorder.h). Null = tracing off. When
  /// set, every firing/write span (with its modeled run/read/write cycle
  /// breakdown), input release, and channel push/pop lands in the
  /// recorder on the modeled clock (`bpc --firings N` prints the first N
  /// firing spans).
  obs::Recorder* recorder = nullptr;
  /// Fault injection (see fault/injector.h). Null = no faults. The sim
  /// copies and re-binds the injector against this run's graph/placement,
  /// then perturbs every firing deterministically: execution time scaling
  /// (jitter/overrun/throttle) and stalls stretch the modeled duration,
  /// delivery delay pushes output availability past the firing's end.
  /// Faults never touch values, only the clock.
  const fault::Injector* injector = nullptr;
};

/// Per-core activity breakdown (the run/read/write bars of Fig. 13).
struct CoreStats {
  double run_cycles = 0.0;
  double read_cycles = 0.0;
  double write_cycles = 0.0;
  double switch_cycles = 0.0;
  long firings = 0;
  bool source_only = true;  ///< core hosts only source kernels

  [[nodiscard]] double busy_cycles() const {
    return run_cycles + read_cycles + write_cycles + switch_cycles;
  }
};

/// A kernel firing that exceeded its declared cycle bound (the
/// dynamic-resource extension from the paper's conclusions: "runtime
/// exceptions to indicate when a kernel has exceeded its allocated
/// resources").
struct ResourceException {
  std::string kernel;
  std::string method;
  long used_cycles = 0;
  long bound_cycles = 0;
  double at_seconds = 0.0;
};

struct SimResult {
  bool completed = false;   ///< sources drained and graph quiescent
  bool deadlocked = false;  ///< items remained but nothing could fire
  bool realtime_met = false;
  double sim_seconds = 0.0;       ///< time of the last action
  double input_span_seconds = 0.0;  ///< scheduled duration of the input
  double max_input_lag_seconds = 0.0;
  long delayed_releases = 0;  ///< input items released late (obs::is_late)
  long total_firings = 0;
  /// Firings (or source releases) the fault injector perturbed.
  long faults_injected = 0;
  std::vector<CoreStats> cores;
  std::string diagnostics;
  /// Firings that blew their declared cycle bound (first 64 recorded).
  long resource_exception_count = 0;
  std::vector<ResourceException> resource_exceptions;

  /// End-of-frame arrival times at each sink kernel (kernels with no
  /// outputs), in order — the throughput measurement of §IV-D: in the
  /// steady state consecutive completions must be one frame period apart.
  std::vector<std::pair<KernelId, std::vector<double>>> sink_frame_times;
  /// Completion times of one sink (the first, if several).
  [[nodiscard]] const std::vector<double>* frame_times(KernelId sink = -1) const {
    for (const auto& [k, v] : sink_frame_times)
      if (sink < 0 || k == sink) return &v;
    return nullptr;
  }
  /// First-output latency and steady-state period of a sink's frames.
  /// Communication/placement delay "will only increase the latency for
  /// the first output, but will not impact the throughput" (§IV-D).
  [[nodiscard]] double first_frame_latency(KernelId sink = -1) const {
    const auto* t = frame_times(sink);
    return t && !t->empty() ? t->front() : 0.0;
  }
  [[nodiscard]] double steady_frame_period(KernelId sink = -1) const {
    const auto* t = frame_times(sink);
    if (!t || t->size() < 2) return 0.0;
    return (t->back() - t->front()) / static_cast<double>(t->size() - 1);
  }

  /// Per-kernel activity (indexed by KernelId): firings and busy cycles.
  std::vector<std::pair<long, double>> kernel_activity;

  /// Average utilization over non-source cores (Fig. 13 bar height):
  /// mean of busy_cycles / (clock * sim_seconds).
  [[nodiscard]] double avg_utilization(const MachineSpec& m) const;
  /// Aggregate cycles over non-source cores (for run/read/write splits).
  [[nodiscard]] CoreStats totals() const;
};

/// Simulate `g` (kernels mutate!) under `mapping` until quiescent.
[[nodiscard]] SimResult simulate(Graph& g, const Mapping& mapping,
                                 const SimOptions& options = {});

}  // namespace bpp
