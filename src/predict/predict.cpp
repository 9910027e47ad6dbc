#include "predict/predict.h"

#include <algorithm>

namespace bpp::predict {

namespace {

/// Does the stored analysis still describe this graph? Parallelization
/// adds kernels and channels after the final analyze() pass, so matching
/// counts mean no structural edits happened (ids are append-only).
bool analysis_current(const CompiledApp& app) {
  return app.graph.kernel_count() ==
             static_cast<int>(app.analysis.kernel.size()) &&
         app.graph.channel_count() ==
             static_cast<int>(app.analysis.channel.size());
}

/// Per-frame demand of one kernel, composed from its LoadMap entry (the
/// compiler's per-second price, token forwards and per-channel writes
/// included). `rate_hz` is the frame rate the entry is divided by.
void compose(const LoadModel& lm, double rate_hz, KernelPrediction& p) {
  p.rate_hz = rate_hz;
  const double frames = rate_hz > 0.0 ? rate_hz : 1.0;
  p.firings = lm.firings_per_second / frames;
  p.forwards = lm.forwards_per_second / frames;
  p.run_cycles = lm.cycles_per_second / frames;
  p.read_words = lm.read_words_per_second / frames;
  p.write_words = lm.write_words_per_second / frames;
}

}  // namespace

Prediction predict(const CompiledApp& app, const PredictOptions& options) {
  const Graph& g = app.graph;
  const MachineSpec& m = app.options.machine;

  Prediction out;
  out.machine = m;

  // Input schedule: the fastest source frame rate paces the pipeline.
  for (KernelId s : g.sources()) {
    const Kernel& kn = g.kernel(s);
    for (int port = 0; port < static_cast<int>(kn.outputs().size()); ++port) {
      const auto spec = kn.source_spec(port);
      if (!spec || spec->rate_hz <= 0.0) continue;
      if (spec->rate_hz > out.input_rate_hz) {
        out.input_rate_hz = spec->rate_hz;
        out.frames = spec->frames;
      }
    }
  }
  if (out.input_rate_hz > 0.0)
    out.input_period_seconds = 1.0 / out.input_rate_hz;

  const bool analyzed = analysis_current(app);
  out.exact = analyzed;

  // Per-kernel composition.
  out.kernels.resize(static_cast<size_t>(g.kernel_count()));
  for (KernelId k = 0; k < g.kernel_count(); ++k) {
    KernelPrediction& p = out.kernels[static_cast<size_t>(k)];
    p.kernel = k;
    p.name = g.kernel(k).name();
    p.is_source = g.kernel(k).is_source();
    if (p.is_source) continue;  // releases off-core, zero modeled demand
    // Entries the resolved analysis still describes are divided per frame
    // of the kernel's own stream; on parallelized graphs, per input frame.
    const KernelAnalysis* a =
        analyzed ? &app.analysis.kernel[static_cast<size_t>(k)] : nullptr;
    p.exact = a && a->resolved;
    compose(app.loads.of(k), p.exact ? a->rate_hz : out.input_rate_hz, p);
    if (!p.exact) out.exact = false;

    if (!options.costs.empty()) {
      const double cycles = options.costs.cycles_for(p.name);
      if (cycles >= 0.0) {
        // Replace modeled method cycles with the measured per-firing cost;
        // forwarding FSM steps stay modeled.
        p.run_cycles = cycles * (p.firings - p.forwards) + 2.0 * p.forwards;
        p.calibrated = true;
      }
    }

    p.busy_cycles = m.context_switch * p.firings +
                    m.read_cost * p.read_words + p.run_cycles +
                    m.write_cost * p.write_words;
    if (p.rate_hz > 0.0 && m.clock_hz > 0.0)
      p.utilization = p.busy_cycles * p.rate_hz / m.clock_hz;
  }

  // Compose through the placement.
  out.cores.resize(static_cast<size_t>(std::max(0, app.mapping.cores)));
  for (int c = 0; c < app.mapping.cores; ++c)
    out.cores[static_cast<size_t>(c)].core = c;
  for (KernelId k = 0; k < g.kernel_count(); ++k) {
    const int c = app.mapping.core_of[static_cast<size_t>(k)];
    if (c < 0 || c >= app.mapping.cores) continue;
    CorePrediction& core = out.cores[static_cast<size_t>(c)];
    const KernelPrediction& p = out.kernels[static_cast<size_t>(k)];
    if (p.is_source) continue;
    core.source_only = false;
    ++core.kernels;
    core.utilization += p.utilization;
    // Per input frame. When the kernel runs at the input rate (the usual
    // case) this is a plain cycle sum, which keeps it bit-comparable to
    // the simulator's per-core cycle counters; re-rated kernels are
    // frequency-scaled.
    if (p.rate_hz == out.input_rate_hz || out.input_rate_hz <= 0.0)
      core.busy_cycles_per_frame += p.busy_cycles;
    else
      core.busy_cycles_per_frame +=
          p.busy_cycles * p.rate_hz * out.input_period_seconds;
  }

  // Verdict: the bottleneck non-source core sets the steady cadence.
  int busy_cores = 0;
  for (const CorePrediction& core : out.cores) {
    if (core.source_only) continue;
    ++busy_cores;
    out.avg_utilization += core.utilization;
    if (core.utilization > out.bottleneck_utilization) {
      out.bottleneck_utilization = core.utilization;
      out.bottleneck_core = core.core;
    }
  }
  if (busy_cores > 0) out.avg_utilization /= busy_cores;
  out.meets_realtime = out.bottleneck_utilization <= 1.0;
  if (out.input_rate_hz > 0.0)
    out.steady_period_seconds =
        out.meets_realtime
            ? out.input_period_seconds
            : out.input_period_seconds * out.bottleneck_utilization;

  // Critical path: longest source-to-sink chain of per-frame busy time,
  // after the input frame has been delivered. Channels entering feedback
  // kernels are loop back-edges (same rule as Graph::topo_order).
  std::vector<double> dist(static_cast<size_t>(g.kernel_count()), 0.0);
  double longest = 0.0;
  for (KernelId k : g.topo_order()) {
    const KernelPrediction& p = out.kernels[static_cast<size_t>(k)];
    double in_dist = 0.0;
    if (!g.kernel(k).is_feedback())
      for (ChannelId c : g.in_channels(k))
        in_dist = std::max(in_dist, dist[static_cast<size_t>(g.channel(c).src_kernel)]);
    const double node =
        p.is_source || m.clock_hz <= 0.0 ? 0.0 : p.busy_cycles / m.clock_hz;
    dist[static_cast<size_t>(k)] = in_dist + node;
    longest = std::max(longest, dist[static_cast<size_t>(k)]);
  }
  out.critical_path_seconds = out.input_period_seconds + longest;

  return out;
}

}  // namespace bpp::predict
