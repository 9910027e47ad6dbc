// Degradation under injected overload: sweep fault severity on the
// edge-detect pipeline and read the degradation layer at each point.
//
// Part 1 (simulator): escalate per-kernel overrun probability and watch
// the deadline monitor flip from all-on-time to all-late, with the
// critical-path walk attributing the overrun to the faulted kernel.
//
// Part 2 (host runtime, paced): tighten the controller's deadline until
// the source starts shedding, and check the central trade the layer
// makes — shed whole frames early so the survivors stop being late.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "fault/degradation.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/critical_path.h"
#include "obs/deadline.h"
#include "obs/frames.h"
#include "obs/recorder.h"
#include "runtime/runtime.h"

using namespace bpp;

namespace {

fault::FaultPlan overrun_plan(double prob) {
  fault::FaultPlan p;
  p.seed = 7;
  fault::KernelRule kr;
  kr.match = "sobel*";
  kr.overrun_prob = prob;
  kr.overrun_factor = 6.0;
  p.kernels.push_back(kr);
  return p;
}

}  // namespace

int main() {
  bench::print_header("Fault degradation",
                      "edge-detect misses/shedding vs injected overload");

  const Size2 frame{48, 36};
  const int frames = 6;
  const double rate = 180.0;

  std::printf("\nsimulator, overrun faults on 'sobel' (factor 6.0):\n");
  std::printf("%-8s %7s %9s %11s  %s\n", "prob", "faults", "missed",
              "max late", "attributed bottleneck");
  for (const double prob : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    CompiledApp app = compile(apps::sobel_app(frame, rate, frames, 100.0));
    const fault::FaultPlan plan = overrun_plan(prob);
    fault::Injector inj(plan, plan.seed);
    Graph g = app.graph.clone();
    obs::Recorder rec;
    SimOptions opt;
    opt.machine = app.options.machine;
    opt.recorder = &rec;
    opt.injector = &inj;
    const SimResult r = simulate(g, app.mapping, opt);
    if (!r.completed) {
      std::printf("%-8.2f did not complete: %s\n", prob, r.diagnostics.c_str());
      continue;
    }
    const obs::FrameReport fr = obs::analyze_frames(rec.trace());
    obs::DeadlineMonitor mon(declared_schedule(app, 1.0));
    mon.observe(fr);
    const obs::CriticalPathReport cp =
        obs::analyze_critical_path(rec.trace(), fr, app.graph);
    const fault::DegradationReport deg = fault::build_degradation_report(
        mon.verdicts(), {}, rate, 0.0, &cp, &rec.trace());
    std::printf("%-8.2f %7ld %5ld/%-3ld %9.3fms  %s\n", prob,
                r.faults_injected, deg.frames_late,
                deg.frames_late + deg.frames_on_time,
                deg.max_lateness_seconds * 1e3, deg.bottleneck.c_str());
  }

  std::printf("\nhost runtime, paced @ %.0f Hz, shedding controller:\n", rate);
  std::printf("%-12s %8s %6s %6s %9s\n", "deadline", "on-time", "late",
              "shed", "max late");
  for (const double tighten : {1.0, 2.0, 8.0, 64.0, 4096.0}) {
    CompiledApp app = compile(apps::sobel_app(frame, rate, frames, 100.0));
    fault::DegradationPolicy pol;
    pol.shed = true;
    pol.rate_hz = rate * tighten;
    pol.max_pending_sheds = 1;
    pol.cooldown_frames = 1;
    fault::DegradationController ctrl(pol);
    RuntimeOptions ropt;
    ropt.pace_inputs = true;
    ropt.degradation = &ctrl;
    const RuntimeResult r = run_threaded(app.graph, app.mapping, ropt);
    if (!r.completed) {
      std::printf("%-12.0f did not complete: %s\n", pol.rate_hz,
                  r.diagnostics.c_str());
      continue;
    }
    const fault::DegradationReport deg = fault::build_degradation_report(ctrl);
    std::printf("%9.0fHz %8ld %6ld %6ld %7.3fms\n", pol.rate_hz,
                deg.frames_on_time, deg.frames_late, deg.frames_shed,
                deg.max_lateness_seconds * 1e3);
  }
  return 0;
}
