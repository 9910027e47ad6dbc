// Deadline margin sweep: drive the edge-detect pipeline at increasing
// input rates and read the real-time analysis layer at each point —
// per-frame latency, steady-state completion period, deadline misses
// against the declared rate, and the kernel the critical-path walk blames
// once the graph stops keeping up. The transition row is the empirical
// version of the compiler's static rate bound (§III-A, §III-E): below it
// the schedule holds exactly, above it completions drift later every
// frame and the saturated kernel surfaces as the bottleneck.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "obs/critical_path.h"
#include "obs/deadline.h"
#include "obs/frames.h"
#include "obs/recorder.h"

using namespace bpp;

int main() {
  bench::print_header("Deadline margin",
                      "edge-detect latency/misses/bottleneck vs input rate");

  const Size2 frame{48, 36};
  const int frames = 5;
  std::printf("\n%-8s %10s %10s %10s %7s  %s\n", "rate", "lat p50", "lat p95",
              "period", "missed", "bottleneck");

  for (const double rate : {60.0, 120.0, 180.0, 300.0, 600.0, 1200.0}) {
    CompiledApp app = compile(apps::sobel_app(frame, rate, frames, 100.0));
    Graph g = app.graph.clone();
    obs::Recorder rec;
    SimOptions opt;
    opt.machine = app.options.machine;
    opt.recorder = &rec;
    const SimResult r = simulate(g, app.mapping, opt);
    if (!r.completed) {
      std::printf("%-8.0f did not complete: %s\n", rate,
                  r.diagnostics.c_str());
      continue;
    }

    const obs::FrameReport fr = obs::analyze_frames(rec.trace());
    obs::DeadlineMonitor mon(declared_schedule(app, 1.0));
    mon.observe(fr);
    const obs::CriticalPathReport cp =
        obs::analyze_critical_path(rec.trace(), fr, app.graph);
    const std::string who =
        cp.bottleneck >= 0 ? rec.trace().kernel_name(cp.bottleneck) : "-";
    std::printf("%-8.0f %8.3fms %8.3fms %8.3fms %3ld/%-3ld  %s\n", rate,
                fr.latency.p50 * 1e3, fr.latency.p95 * 1e3,
                fr.period.mean * 1e3, mon.misses(), mon.frames(), who.c_str());
  }
  return 0;
}
