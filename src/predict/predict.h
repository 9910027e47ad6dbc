#pragma once
// Compositional performance prediction (paper §IV-D, without running
// anything).
//
// The simulator answers "does this pipeline meet real time?" by executing
// the compiled graph against the machine's timing model. This module
// answers the same question analytically: it composes each kernel's
// LoadMap entry (compiler/loads.h — method cycles, per-channel word
// traffic, context switches and the token forwards the firing rules
// imply) through the placement's core assignment, and emits per-core
// utilization, the steady-state frame period, a critical-path latency
// estimate, and a meets-deadline verdict. The LoadMap is the compiler's
// and the admission ledger's demand model too, so all three price the
// same numbers.
//
// Two fidelity tiers, reported via Prediction::exact, say where the
// LoadMap entries come from:
//
//  * Exact: the compiled graph is structurally identical to the one the
//    stored data-flow analysis describes (no parallelization edits), so
//    every entry was seeded from the resolved analysis. On such graphs
//    the predicted steady period and per-core per-frame busy cycles
//    reproduce the simulator bit for bit — tests/test_predict.cpp holds
//    this to ==, not a tolerance.
//
//  * Approximate: parallelized graphs contain replicas and split/join
//    kernels whose entries are the parallelizer's analytic estimates,
//    and whose data-dependent routing the stream calculus does not
//    model. Accuracy against the simulator is documented (and CI-gated)
//    in EXPERIMENTS.md.
//
// Kernels with dynamic (input-dependent) cycle counts are predicted at
// their declared bound in both tiers, so the prediction is an upper bound
// for them.

#include <string>
#include <vector>

#include "compiler/pipeline.h"
#include "predict/cost_table.h"

namespace bpp::predict {

/// Per-kernel steady-state demand, per frame of that kernel's stream.
/// Sources release on their schedule off-core and carry zero demand.
struct KernelPrediction {
  KernelId kernel = -1;
  std::string name;
  bool is_source = false;
  bool exact = false;       ///< LoadMap entry seeded from resolved analysis
  bool calibrated = false;  ///< run cycles replaced from the cost table
  double rate_hz = 0.0;     ///< frames per second seen by this kernel
  double firings = 0.0;     ///< method firings + token forwards, per frame
  double forwards = 0.0;    ///< token-forward firings included in `firings`
  double run_cycles = 0.0;  ///< method cycles + forwarding FSM steps
  double read_words = 0.0;  ///< popped item charges, incl. forwarded tokens
  double write_words = 0.0; ///< per out-channel: data + control tokens
  /// context_switch * firings + read/write word costs + run cycles.
  double busy_cycles = 0.0;
  /// busy_cycles * rate_hz / clock_hz: fraction of one PE this kernel uses.
  double utilization = 0.0;
};

/// Steady-state projection of one core of the placement.
struct CorePrediction {
  int core = -1;
  bool source_only = true;  ///< hosts only sources (excluded from verdicts)
  int kernels = 0;          ///< non-source kernels mapped here
  /// Modeled busy cycles this core spends per input frame.
  double busy_cycles_per_frame = 0.0;
  double utilization = 0.0;  ///< sum of its kernels' utilizations
};

struct Prediction {
  MachineSpec machine;
  bool exact = false;  ///< every non-source kernel's entry is exact
  /// Input frame rate (max over sources) and its period.
  double input_rate_hz = 0.0;
  double input_period_seconds = 0.0;
  int frames = 0;  ///< declared finite run length (0 = unbounded)

  std::vector<KernelPrediction> kernels;  ///< indexed by KernelId
  std::vector<CorePrediction> cores;      ///< indexed by core

  int bottleneck_core = -1;
  double bottleneck_utilization = 0.0;  ///< max over non-source cores
  double avg_utilization = 0.0;         ///< mean over non-source cores
  /// Predicted steady-state sink frame period: the input period when the
  /// bottleneck core keeps up, stretched by its utilization when it
  /// cannot (the camera cannot wait, so the pipe paces at the bottleneck).
  double steady_period_seconds = 0.0;
  /// First-output latency estimate: one input frame span plus the modeled
  /// per-frame busy time of every kernel on the longest source-to-sink
  /// path. An estimate, not a bound — §IV-D only ties throughput, not
  /// latency, to the model.
  double critical_path_seconds = 0.0;
  /// True when every (non-source) core's demand fits one PE, i.e. the
  /// predicted steady period equals the input period.
  bool meets_realtime = false;
};

struct PredictOptions {
  /// Optional microbench-measured per-firing run-cycle overrides
  /// (see predict/cost_table.h). Empty = declared method cycles.
  CostTable costs;
};

/// Predict the steady-state behavior of a compiled app on its compile-time
/// machine and mapping. Pure function of the CompiledApp: nothing runs.
[[nodiscard]] Prediction predict(const CompiledApp& app,
                                 const PredictOptions& options = {});

}  // namespace bpp::predict
