#pragma once
// Multithreaded host runtime.
//
// Executes a (compiled or raw) application functionally on the host: one
// worker thread per mapped core, bounded FIFO channels with back-pressure,
// the same firing rules as the simulator. This is the "run it on a
// multicore laptop" substrate: it validates that the transformed graphs
// (buffered, parallelized, multiplexed) compute exactly what the original
// application computes, and it provides wall-clock throughput numbers for
// the runtime benchmark.
//
// Termination: sources emit a finite run ending in end-of-stream; the run
// finishes when every OutputKernel has seen it. A watchdog aborts stalled
// runs (which is itself a useful property to test, e.g. deliberately
// misaligned graphs).

#include <atomic>
#include <string>
#include <vector>

#include "compiler/multiplex.h"
#include "core/graph.h"

namespace bpp {

namespace obs {
class Recorder;
}  // namespace obs

namespace fault {
class DegradationController;
class Injector;
}  // namespace fault

struct RuntimeOptions {
  /// Items per channel queue. Larger than the simulator's model because
  /// host threads do not honor the modeled timing; this only provides
  /// back-pressure, not the paper's storage accounting.
  int channel_capacity = 1024;
  /// Abort if no global progress for this long.
  double watchdog_seconds = 30.0;
  /// Pace application inputs on their real wall-clock schedule instead of
  /// flood-filling: pixel i of a rate-R source is released at its modeled
  /// release time. Lets the host runtime demonstrate real-time behavior
  /// (and measure release lag) on an actual multicore machine.
  bool pace_inputs = false;
  /// With pace_inputs: scale factor on the schedule (2.0 = half speed).
  double pace_slowdown = 1.0;
  /// Observability sink (see obs/recorder.h). Null = tracing off; the
  /// hot-path cost of "off" is one branch per instrumented site. When set,
  /// workers record firing/write/park spans, channel push/pop occupancy,
  /// and paced source releases into per-core lock-free event rings on the
  /// wall clock, and the run populates the recorder's metrics registry.
  obs::Recorder* recorder = nullptr;
  /// Fault injection (see fault/injector.h). Null = no faults. The run
  /// copies and re-binds the injector against this graph/placement and
  /// perturbs firings deterministically — keyed on per-kernel firing
  /// indices, which are interleaving-independent because every kernel is
  /// owned by exactly one worker. Stalls and overruns are realized by
  /// busy-spinning (they occupy the core like a real overrun); delivery
  /// delay spins between a firing and the publication of its outputs.
  /// Faults never touch values, only time.
  const fault::Injector* injector = nullptr;
  /// Graceful degradation (see fault/degradation.h). Null = off. Sinks
  /// feed frame completions to the controller; when a completion misses
  /// its deadline the controller arms a shed request, and the first
  /// rate-driven source claims it at its next frame boundary, dropping
  /// that entire upcoming frame (data + end-of-line + end-of-frame, never
  /// end-of-stream, never mid-frame). Paced sources keep honoring release
  /// times while dropping — the camera does not pause.
  fault::DegradationController* degradation = nullptr;
};

struct RuntimeResult {
  bool completed = false;
  bool watchdog_fired = false;
  /// A kernel firing raised and the program failed itself (the worker
  /// pool survives; see machine.h). `error` holds the first message.
  bool failed = false;
  std::string error;
  double wall_seconds = 0.0;
  long total_firings = 0;
  /// Firings the fault injector perturbed (0 without an injector).
  long faults_injected = 0;
  /// Whole frames dropped at source frame boundaries (0 without a
  /// degradation controller).
  long frames_shed = 0;
  /// With pace_inputs: releases late by obs::is_late, and their worst lag.
  long delayed_releases = 0;
  double max_release_lag_seconds = 0.0;
  /// Firings per kernel, indexed by KernelId (sums to total_firings).
  std::vector<long> kernel_firings;
  /// Peak queue occupancy per channel, indexed by ChannelId; -1 for dead
  /// channels (which get no runtime state).
  std::vector<long> channel_high_water;
  std::string diagnostics;
};

/// Run `g` to completion on `threads` = mapping cores. Kernels mutate;
/// read results out of the graph's OutputKernels afterwards. A kernel
/// exception (including an injected throw fault) fails the run and is
/// rethrown here as ExecutionError — it never takes down the process.
[[nodiscard]] RuntimeResult run_threaded(Graph& g, const Mapping& mapping,
                                         const RuntimeOptions& options = {});

/// Convenience: run with every kernel on one core (sequential semantics).
[[nodiscard]] RuntimeResult run_sequential(Graph& g,
                                           const RuntimeOptions& options = {});

}  // namespace bpp
