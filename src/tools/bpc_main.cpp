// bpc — the block-parallel compiler driver.
//
// Builds one of the bundled applications, compiles it for a machine,
// prints the transformation report, and optionally verifies it on the
// timing simulator, executes it on host threads, exports the compiled
// graph as Graphviz, or dumps a firing trace. Flag parsing and the
// contradictory-flag rejection live in tools/cli.{h,cpp}.
//
//   bpc fig1 --frame 96x72 --rate 130 --simulate
//   bpc bayer --rate 450 --run
//   bpc fig1 --policy pad --dot app.dot
//   bpc histogram --machine 10e6,256 --simulate --firings 40
//   bpc pipeline --trace out.json --metrics -
//   bpc sobel --faults plan.json --fault-seed 7 --analyze -
//   bpc sobel --run --pace --shed --faults plan.json --degradation -

#include <cstdio>
#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>
#include <fstream>
#include <iostream>
#include <string>

#include "apps/pipelines.h"
#include "serialize/serialize.h"
#include "compiler/pipeline.h"
#include "compiler/report.h"
#include "core/dot_export.h"
#include "fault/degradation.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "kernels/kernels.h"
#include "kernels/simd/simd.h"
#include "obs/analysis.h"
#include "obs/critical_path.h"
#include "obs/deadline.h"
#include "obs/frames.h"
#include "obs/recorder.h"
#include "predict/predict.h"
#include "predict/report.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "tools/cli.h"

using namespace bpp;

namespace {

Graph build(const cli::Args& a) {
  if (!a.app.empty() && a.app[0] == '@') {
    std::ifstream f(a.app.substr(1));
    if (!f) throw GraphError("cannot open '" + a.app.substr(1) + "'");
    return read_graph_text(f);
  }
  return apps::named_app(a.app, a.frame, a.rate, a.frames, a.bins);
}

// Write `emit(os)` to `path` ("-" = stdout), throwing bpp::Error on open or
// write failure so main's catch turns it into a non-zero exit.
template <typename Emit>
void write_output_file(const std::string& path, const char* what, Emit emit) {
  if (path == "-") {
    emit(std::cout);
    std::cout.flush();
    if (!std::cout)
      throw Error(std::string("failed writing ") + what + " to stdout");
    return;
  }
  std::ofstream f(path);
  if (!f)
    throw Error(std::string("cannot open ") + what + " file '" + path + "'");
  emit(f);
  f.flush();
  if (!f)
    throw Error(std::string("failed writing ") + what + " file '" + path +
                "'");
  std::printf("wrote %s\n", path.c_str());
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Build the degradation report for an execution. `ctrl` non-null on the
// host-run shedding path (live shed/miss accounting); otherwise verdicts
// are derived by replaying the anchored deadline schedule over the
// recorded trace (the simulator path — nothing sheds there, faulted
// frames can only come in late). `rec` may be null (run without
// observability): the report then has no critical-path attribution.
fault::DegradationReport make_degradation_report(
    const cli::Args& a, const CompiledApp& app, obs::Recorder* rec,
    double slowdown, const fault::DegradationController* ctrl) {
  const obs::Trace* trace = rec ? &rec->trace() : nullptr;
  obs::FrameReport frames;
  obs::CriticalPathReport cp;
  const obs::CriticalPathReport* cpp = nullptr;
  if (trace) {
    frames = obs::analyze_frames(*trace);
    cp = obs::analyze_critical_path(*trace, frames, app.graph);
    cpp = &cp;
  }
  if (ctrl) return fault::build_degradation_report(*ctrl, cpp, trace);
  const double rate = declared_rate(app, slowdown);
  obs::DeadlineMonitor mon({rate, a.deadline_slack});
  mon.observe(frames);
  return fault::build_degradation_report(mon.verdicts(), {}, rate,
                                         a.deadline_slack, cpp, trace);
}

// --degradation FILE: text, or JSON when the path ends in .json.
void write_degradation_output(const cli::Args& a,
                              const fault::DegradationReport& deg) {
  if (a.degradation_path.empty()) return;
  write_output_file(a.degradation_path, "degradation report",
                    [&](std::ostream& os) {
                      if (ends_with(a.degradation_path, ".json"))
                        os << fault::write_degradation_json(deg);
                      else
                        fault::write_degradation(deg, os);
                    });
}

// The real-time analysis report (--analyze): frame latency/period series,
// deadline verdicts against the graph's declared rate, critical-path
// attribution, the predicted-vs-measured firing-rate table, and — when the
// run had faults or shedding — the degradation section. Feeds the deadline
// monitor before the metrics dump so its counters appear there.
// `slowdown` > 1 stretches the declared rate to the schedule the paced
// host run actually followed (1 for the simulator).
void write_analysis(const cli::Args& a, const CompiledApp& app,
                    obs::Recorder& rec, double slowdown = 1.0,
                    const fault::DegradationReport* deg = nullptr) {
  if (a.analyze_path.empty()) return;
  if (!obs::kCompiledIn)
    throw Error(
        "--analyze requires the observability layer; rebuild with "
        "-DBPP_OBS=ON");
  const obs::Trace& trace = rec.trace();
  const obs::FrameReport frames = obs::analyze_frames(trace);

  const double rate = declared_rate(app, slowdown);
  obs::DeadlineOptions dopt;
  dopt.rate_hz = rate;
  dopt.slack_seconds = a.deadline_slack;
  obs::DeadlineMonitor mon(dopt, &rec.metrics());
  mon.observe(frames);

  const obs::CriticalPathReport cp =
      obs::analyze_critical_path(trace, frames, app.graph);
  const RateValidation rates = validate_rates(app, trace);

  write_output_file(a.analyze_path, "analysis", [&](std::ostream& os) {
    os << "frames tracked: " << frames.frames.size() << " complete, "
       << frames.incomplete << " incomplete\n";
    auto series = [&os](const char* what, const obs::SeriesSummary& s) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "  %s: mean %.3f ms  p50 %.3f ms  p95 %.3f ms  max "
                    "%.3f ms  (%ld samples)\n",
                    what, s.mean * 1e3, s.p50 * 1e3, s.p95 * 1e3, s.max * 1e3,
                    s.count);
      os << buf;
    };
    if (!frames.empty()) {
      series("latency", frames.latency);
      series("period ", frames.period);
    }
    char line[200];
    std::snprintf(line, sizeof line,
                  "deadlines: rate %.1f Hz, slack %.3f ms -> %ld frames, "
                  "%ld missed",
                  rate, a.deadline_slack * 1e3, mon.frames(), mon.misses());
    os << line;
    if (mon.misses() > 0) {
      std::snprintf(line, sizeof line, ", max lateness %.3f ms",
                    mon.max_lateness_seconds() * 1e3);
      os << line;
    }
    os << '\n';
    obs::write_critical_path(cp, trace, os);
    write_rate_validation(rates, os);
    if (deg) fault::write_degradation(*deg, os);
  });
}

// --predict-costs FILE: a Google-benchmark JSON dump (the kernel
// microbench suite's schema, e.g. BENCH_kernels.json) keyed "family/isa".
// Calibrates against the active kernel backend's ISA.
predict::CostTable load_cost_table(const std::string& path, double clock_hz) {
  std::ifstream f(path);
  if (!f) throw Error("cannot open cost table '" + path + "'");
  std::ostringstream text;
  text << f.rdbuf();
  return predict::parse_bench_costs(text.str(), simd::ops().name, clock_hz);
}

// Dump the recorder's trace and/or metrics as requested by --trace and
// --metrics. Called for whichever execution (sim or host run) owns the
// observability output.
void write_obs_outputs(const cli::Args& a, obs::Recorder& rec) {
  if (!a.trace_path.empty())
    write_output_file(a.trace_path, "trace", [&](std::ostream& os) {
      obs::write_chrome_trace(rec.trace(), os);
    });
  if (!a.metrics_path.empty())
    write_output_file(a.metrics_path, "metrics", [&](std::ostream& os) {
      if (ends_with(a.metrics_path, ".json"))
        rec.metrics().write_json(os);
      else
        rec.metrics().write_text(os);
    });
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args a;
  if (!cli::parse(argc, argv, a)) {
    std::fputs(cli::usage_text(), stdout);
    return 2;
  }
  cli::apply_implications(a);
  if (const char* err = cli::contradiction(a)) {
    std::fprintf(stderr, "bpc: %s\n", err);
    return 2;
  }

  if (!a.isa.empty()) {
    const auto isa = simd::isa_from_name(a.isa);
    if (!isa) {
      std::fprintf(stderr, "bpc: unknown ISA '%s' (scalar|sse2|avx2|neon|native)\n",
                   a.isa.c_str());
      return 2;
    }
    if (!simd::supported(*isa)) {
      std::fprintf(stderr, "bpc: ISA '%s' is not supported on this CPU\n",
                   a.isa.c_str());
      return 2;
    }
    simd::set_isa(*isa);
  }
  std::printf("kernel backend: %s\n", simd::ops().name);

  try {
    CompileOptions opt;
    opt.machine = a.machine;
    opt.align_policy = a.policy;
    opt.reuse_opt = a.reuse;
    opt.multiplex = a.multiplex;
    Graph source = build(a);
    if (!a.save_path.empty()) {
      std::ofstream f(a.save_path);
      write_graph_text(source, f);
      std::printf("wrote %s\n", a.save_path.c_str());
    }
    CompiledApp app = compile(std::move(source), opt);
    write_report(app, std::cout);

    std::optional<predict::Prediction> pred;
    if (a.do_predict) {
      predict::PredictOptions popt;
      if (!a.predict_costs_path.empty()) {
        popt.costs = load_cost_table(a.predict_costs_path, a.machine.clock_hz);
        std::printf("cost table: %zu kernel families (%s)\n",
                    popt.costs.size(), simd::ops().name);
      }
      pred = predict::predict(app, popt);
      predict::write_prediction(*pred, std::cout);
    }
    // Execution-measured counterparts for the comparison table; NaN marks
    // a quantity the requested executions cannot supply.
    constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();
    double sim_period = kAbsent, sim_util = kAbsent, run_period = kAbsent;

    fault::FaultPlan plan;
    std::optional<fault::Injector> inj;
    if (!a.faults_path.empty()) {
      plan = fault::load_plan(a.faults_path);
      inj.emplace(plan, a.fault_seed_set ? a.fault_seed : plan.seed);
      write_fault_binding(plan, app.graph, std::cout);
    }

    if (!a.dot_path.empty()) {
      std::ofstream f(a.dot_path);
      write_dot(app.graph, f);
      std::printf("wrote %s\n", a.dot_path.c_str());
    }

    // When both executions run, the simulated one owns the observability
    // outputs — except the degradation report, which the shedding host run
    // owns (the simulator cannot shed).
    const bool sim_owns_degradation = !(a.do_run && a.shed);

    if (a.do_sim) {
      Graph g = app.graph.clone();
      obs::Recorder rec;
      SimOptions sopt;
      sopt.machine = opt.machine;
      sopt.recorder = &rec;
      sopt.injector = inj ? &*inj : nullptr;
      const SimResult r = simulate(g, app.mapping, sopt);
      std::string extra;
      if (r.resource_exception_count > 0)
        extra = " resource-exceptions=" + std::to_string(r.resource_exception_count);
      if (r.faults_injected > 0)
        extra += " faults=" + std::to_string(r.faults_injected);
      std::printf(
          "simulate: completed=%s real-time=%s max-lag=%.2fus "
          "avg-util=%.1f%% firings=%ld%s\n",
          r.completed ? "yes" : "no", r.realtime_met ? "MET" : "VIOLATED",
          r.max_input_lag_seconds * 1e6,
          100.0 * r.avg_utilization(opt.machine), r.total_firings,
          extra.c_str());
      if (pred) {
        sim_period = r.steady_frame_period();
        sim_util = r.avg_utilization(opt.machine);
      }
      if (obs::kCompiledIn)
        write_utilization(obs::analyze_utilization(rec.trace()), std::cout);
      if (a.show_kernels) {
        std::vector<std::pair<double, KernelId>> busiest;
        for (KernelId k = 0; k < g.kernel_count(); ++k)
          busiest.emplace_back(-r.kernel_activity[static_cast<size_t>(k)].second,
                               k);
        std::sort(busiest.begin(), busiest.end());
        std::printf("busiest kernels (cycles, firings):\n");
        for (size_t i = 0; i < std::min<size_t>(10, busiest.size()); ++i) {
          const KernelId k = busiest[i].second;
          if (r.kernel_activity[static_cast<size_t>(k)].second <= 0) break;
          std::printf("  %-28s %12.0f %10ld\n", g.kernel(k).name().c_str(),
                      r.kernel_activity[static_cast<size_t>(k)].second,
                      r.kernel_activity[static_cast<size_t>(k)].first);
        }
      }
      for (const obs::TraceEvent& f : obs::first_firings(
               rec.trace(), static_cast<std::size_t>(std::max(0L, a.firings))))
        std::printf("  t=%9.3fus core %2d  %-24s %s (%.2fus)\n",
                    f.t0 * 1e6, f.core, g.kernel(f.kernel).name().c_str(),
                    f.method >= 0
                        ? g.kernel(f.kernel).methods()[static_cast<size_t>(f.method)].name.c_str()
                        : "(forward)",
                    (f.t1 - f.t0) * 1e6);
      fault::DegradationReport deg;
      bool have_deg = false;
      if (obs::kCompiledIn && sim_owns_degradation &&
          (inj || !a.degradation_path.empty())) {
        deg = make_degradation_report(a, app, &rec, 1.0, nullptr);
        have_deg = true;
      }
      write_analysis(a, app, rec, 1.0, have_deg ? &deg : nullptr);
      write_obs_outputs(a, rec);
      if (have_deg) write_degradation_output(a, deg);
    }

    if (a.do_run) {
      obs::Recorder rec;
      // The simulated run owns --trace/--metrics/--analyze when both are
      // requested.
      const bool observe =
          !a.do_sim && (!a.trace_path.empty() || !a.metrics_path.empty() ||
                        !a.analyze_path.empty() || !a.degradation_path.empty());
      // The comparison table's measured column needs the host run's frame
      // cadence, which only the recorder sees.
      const bool observe_for_predict =
          pred.has_value() && obs::kCompiledIn && !observe;
      const double slowdown = a.pace ? a.pace_slowdown : 1.0;
      RuntimeOptions ropt;
      ropt.pace_inputs = a.pace;
      ropt.pace_slowdown = a.pace_slowdown;
      if (observe || observe_for_predict) ropt.recorder = &rec;
      ropt.injector = inj ? &*inj : nullptr;
      std::optional<fault::DegradationController> ctrl;
      if (a.shed) {
        fault::DegradationPolicy pol;
        pol.shed = true;
        pol.rate_hz = declared_rate(app, slowdown);
        pol.slack_seconds = a.deadline_slack;
        // No metrics registry here: the analysis monitor feeds the
        // deadline counters when --analyze runs, and the runtime itself
        // records runtime.frames_shed.
        ctrl.emplace(pol);
        ropt.degradation = &*ctrl;
      }
      const RuntimeResult r = run_threaded(app.graph, app.mapping, ropt);
      std::string extra;
      if (r.faults_injected > 0)
        extra = " faults=" + std::to_string(r.faults_injected);
      if (a.shed) extra += " shed=" + std::to_string(r.frames_shed);
      std::printf("run: completed=%s wall=%.1fms firings=%ld%s\n",
                  r.completed ? "yes" : "no", r.wall_seconds * 1e3,
                  r.total_firings, extra.c_str());
      if (pred && (observe || observe_for_predict)) {
        const obs::FrameReport frames = obs::analyze_frames(rec.trace());
        if (frames.period.count > 0) run_period = frames.period.mean;
      }
      fault::DegradationReport deg;
      bool have_deg = false;
      if (ctrl) {
        deg = make_degradation_report(a, app, observe ? &rec : nullptr,
                                      slowdown, &*ctrl);
        have_deg = true;
      } else if (observe && !a.do_sim &&
                 (inj || !a.degradation_path.empty())) {
        deg = make_degradation_report(a, app, &rec, slowdown, nullptr);
        have_deg = true;
      }
      if (observe) {
        if (obs::kCompiledIn)
          write_utilization(obs::analyze_utilization(rec.trace()), std::cout);
        write_analysis(a, app, rec, slowdown, have_deg ? &deg : nullptr);
        write_obs_outputs(a, rec);
      }
      if (have_deg) write_degradation_output(a, deg);
    }

    if (pred && (!std::isnan(sim_period) || !std::isnan(run_period))) {
      std::vector<ComparisonRow> rows;
      rows.push_back({"steady period (us)", pred->steady_period_seconds * 1e6,
                      sim_period * 1e6, run_period * 1e6, 2});
      rows.push_back({"avg core utilization (%)",
                      100.0 * pred->avg_utilization, 100.0 * sim_util,
                      kAbsent, 1});
      write_comparison(rows, std::cout);
    }
    if (a.predict_check_set) {
      if (std::isnan(sim_period) || sim_period <= 0.0)
        throw Error("--predict-check: the simulated run produced no steady "
                    "frame period to compare against");
      const double rel =
          std::fabs(sim_period - pred->steady_period_seconds) / sim_period;
      std::printf("prediction check: |sim - predicted| / sim = %.4g "
                  "(tolerance %g)\n", rel, a.predict_check);
      if (rel > a.predict_check) {
        std::fprintf(stderr,
                     "bpc: prediction check FAILED: predicted %.6g us vs "
                     "simulated %.6g us deviates %.3g > %.3g\n",
                     pred->steady_period_seconds * 1e6, sim_period * 1e6, rel,
                     a.predict_check);
        return 1;
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "bpc: %s\n", e.what());
    return 1;
  }
  return 0;
}
