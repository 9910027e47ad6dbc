// Fault-injection engine and graceful degradation: plan (de)serialization,
// the deterministic counter-based injector, replay determinism on the
// timing simulator, bit-exactness of faulted host runs, the shed/recovery
// state machine on hand-built overload scenarios, DegradationReport
// accounting, and the histogram/frame-series edge cases the degradation
// analysis leans on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "apps/pipelines.h"
#include "compiler/pipeline.h"
#include "compiler/report.h"
#include "fault/degradation.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "kernels/kernels.h"
#include "obs/frames.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "ref/reference.h"
#include "runtime/runtime.h"
#include "serialize/json.h"
#include "sim/simulator.h"

namespace bpp {
namespace {

// ---------------------------------------------------------------------------
// JSON module (serialize/json.h) — the plan's substrate.

TEST(Json, ParsesScalarsArraysObjects) {
  const json::Value v =
      json::parse("{\"a\": [1, 2.5, true, null, \"x\\n\"], \"b\": {}}");
  ASSERT_TRUE(v.is_object());
  const json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 5u);
  EXPECT_DOUBLE_EQ(a->as_array()[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_number(), 2.5);
  EXPECT_TRUE(a->as_array()[2].as_bool());
  EXPECT_TRUE(a->as_array()[3].is_null());
  EXPECT_EQ(a->as_array()[4].as_string(), "x\n");
}

TEST(Json, WriteIsDeterministicAndRoundTrips) {
  json::Object o;
  o["zeta"] = 1;
  o["alpha"] = json::Array{1, 2, 3};
  o["mid"] = "hi";
  const std::string s = json::write(json::Value(std::move(o)));
  // Keys are sorted, so the encoding is reproducible byte for byte.
  EXPECT_LT(s.find("alpha"), s.find("mid"));
  EXPECT_LT(s.find("mid"), s.find("zeta"));
  const json::Value back = json::parse(s);
  EXPECT_EQ(json::write(back), s);
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  try {
    (void)json::parse("{\n  \"a\": 1,\n  !\n}");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)json::parse("{\"a\": 1} trailing"), Error);
  EXPECT_THROW((void)json::parse("[1, 2"), Error);
}

// ---------------------------------------------------------------------------
// Plan: globs and round-trip.

TEST(FaultPlan, GlobMatch) {
  EXPECT_TRUE(fault::glob_match("*", ""));
  EXPECT_TRUE(fault::glob_match("*", "anything"));
  EXPECT_TRUE(fault::glob_match("conv*", "conv3x3"));
  EXPECT_FALSE(fault::glob_match("conv*", "deconv"));
  EXPECT_TRUE(fault::glob_match("*conv*", "deconv3"));
  EXPECT_TRUE(fault::glob_match("a?c", "abc"));
  EXPECT_FALSE(fault::glob_match("a?c", "ac"));
  EXPECT_TRUE(fault::glob_match("a*b*c", "a_x_b_y_c"));
  EXPECT_FALSE(fault::glob_match("a*b*c", "a_x_c_y_b"));
  EXPECT_FALSE(fault::glob_match("", "x"));
  EXPECT_TRUE(fault::glob_match("", ""));
}

TEST(FaultPlan, ParseWriteRoundTrip) {
  fault::FaultPlan p;
  p.seed = 99;
  fault::KernelRule kr;
  kr.match = "conv*";
  kr.jitter = 0.25;
  kr.overrun_prob = 0.05;
  kr.overrun_factor = 8.0;
  kr.stall_prob = 0.01;
  kr.stall_seconds = 2e-4;
  p.kernels.push_back(kr);
  p.cores.push_back({1, 2.0});
  fault::DeliveryRule dr;
  dr.match = "*";
  dr.prob = 0.02;
  dr.delay_seconds = 5e-5;
  p.delivery.push_back(dr);

  const fault::FaultPlan q = fault::parse_plan(fault::write_plan(p));
  EXPECT_EQ(q.seed, p.seed);
  ASSERT_EQ(q.kernels.size(), 1u);
  EXPECT_EQ(q.kernels[0].match, "conv*");
  EXPECT_DOUBLE_EQ(q.kernels[0].jitter, 0.25);
  EXPECT_DOUBLE_EQ(q.kernels[0].overrun_factor, 8.0);
  EXPECT_DOUBLE_EQ(q.kernels[0].stall_seconds, 2e-4);
  ASSERT_EQ(q.cores.size(), 1u);
  EXPECT_EQ(q.cores[0].core, 1);
  EXPECT_DOUBLE_EQ(q.cores[0].throttle, 2.0);
  ASSERT_EQ(q.delivery.size(), 1u);
  EXPECT_DOUBLE_EQ(q.delivery[0].delay_seconds, 5e-5);
  // Write is canonical: a second round trip is byte-identical.
  EXPECT_EQ(fault::write_plan(q), fault::write_plan(p));
}

TEST(FaultPlan, EmptyPlanIsEmpty) {
  EXPECT_TRUE(fault::parse_plan("{}").empty());
  EXPECT_FALSE(fault::parse_plan("{\"cores\": [{\"core\": 0}]}").empty());
}

// ---------------------------------------------------------------------------
// Injector determinism.

Graph two_kernel_graph() {
  Graph g = apps::sobel_app({12, 10}, 100.0, 1, 100.0);
  return g;
}

TEST(Injector, SameSeedSamePerturbations) {
  fault::FaultPlan p = fault::parse_plan(
      "{\"kernels\": [{\"jitter\": 0.3, \"overrun_prob\": 0.2, "
      "\"overrun_factor\": 4.0, \"stall_prob\": 0.1, "
      "\"stall_seconds\": 1e-4}], "
      "\"delivery\": [{\"prob\": 0.2, \"delay_seconds\": 1e-5}]}");
  Graph g = two_kernel_graph();
  fault::Injector a(p, 7), b(p, 7), c(p, 8);
  a.bind(g, {});
  b.bind(g, {});
  c.bind(g, {});
  ASSERT_TRUE(a.active());
  bool any_differs_across_seeds = false;
  for (int k = 0; k < g.kernel_count(); ++k)
    for (std::int64_t f = 0; f < 64; ++f) {
      const fault::Perturbation pa = a.perturb(k, f);
      const fault::Perturbation pb = b.perturb(k, f);
      EXPECT_EQ(pa.time_scale, pb.time_scale);
      EXPECT_EQ(pa.stall_seconds, pb.stall_seconds);
      EXPECT_EQ(pa.delivery_delay_seconds, pb.delivery_delay_seconds);
      const fault::Perturbation pc = c.perturb(k, f);
      if (pa.time_scale != pc.time_scale ||
          pa.stall_seconds != pc.stall_seconds)
        any_differs_across_seeds = true;
    }
  EXPECT_TRUE(any_differs_across_seeds);
}

TEST(Injector, RulesBindByGlobAndFirstMatchWins) {
  fault::FaultPlan p = fault::parse_plan(
      "{\"kernels\": ["
      "{\"match\": \"sobel*\", \"overrun_prob\": 1.0, "
      "\"overrun_factor\": 3.0},"
      "{\"match\": \"*\", \"overrun_prob\": 0.0}]}");
  Graph g = two_kernel_graph();
  fault::Injector inj(p, 1);
  inj.bind(g, {});
  const int sobel = g.find("sobel");
  const int input = g.find("input");
  ASSERT_GE(sobel, 0);
  ASSERT_GE(input, 0);
  // Every sobel firing overruns (prob 1); input matches the catch-all
  // rule with no faults at all.
  for (std::int64_t f = 0; f < 16; ++f) {
    EXPECT_DOUBLE_EQ(inj.perturb(sobel, f).time_scale, 3.0);
    EXPECT_TRUE(inj.perturb(input, f).identity());
  }
}

TEST(Injector, SourcesBindOnlyTheirDeliveryRule) {
  // A camera cannot run slow, but its link can: timing rules and core
  // throttles skip the source, delivery rules reach it.
  fault::FaultPlan p = fault::parse_plan(
      "{\"kernels\": [{\"jitter\": 0.5}], "
      "\"cores\": [{\"core\": 0, \"throttle\": 2.0}], "
      "\"delivery\": [{\"prob\": 1.0, \"delay_seconds\": 1e-5}]}");
  Graph g = two_kernel_graph();
  fault::Injector inj(p, 2);
  inj.bind(g, std::vector<int>(static_cast<size_t>(g.kernel_count()), 0));
  const int input = g.find("input");
  const int sobel = g.find("sobel");
  const auto& bindings = inj.bindings();
  EXPECT_EQ(bindings[static_cast<size_t>(input)].kernel_rule, -1);
  EXPECT_EQ(bindings[static_cast<size_t>(input)].delivery_rule, 0);
  EXPECT_EQ(bindings[static_cast<size_t>(sobel)].kernel_rule, 0);
  for (std::int64_t f = 0; f < 16; ++f) {
    const fault::Perturbation src = inj.perturb(input, f);
    EXPECT_EQ(src.time_scale, 1.0);
    EXPECT_EQ(src.delivery_delay_seconds, 1e-5);
    EXPECT_NE(inj.perturb(sobel, f).time_scale, 1.0);
  }
}

TEST(Injector, CoreThrottleMultiplies) {
  fault::FaultPlan p =
      fault::parse_plan("{\"cores\": [{\"core\": 1, \"throttle\": 2.0}]}");
  Graph g = two_kernel_graph();
  const int sobel = g.find("sobel");
  const int threshold = g.find("threshold");
  std::vector<int> core_of(static_cast<size_t>(g.kernel_count()), 0);
  core_of[static_cast<size_t>(sobel)] = 1;  // sobel on the throttled core
  fault::Injector inj(p, 3);
  inj.bind(g, core_of);
  EXPECT_DOUBLE_EQ(inj.perturb(sobel, 0).time_scale, 2.0);
  EXPECT_TRUE(inj.perturb(threshold, 0).identity());
}

TEST(Injector, UnboundOrEmptyPlanInactive) {
  fault::Injector none;
  EXPECT_FALSE(none.active());
  fault::Injector empty(fault::FaultPlan{}, 5);
  Graph g = two_kernel_graph();
  empty.bind(g, {});
  EXPECT_TRUE(empty.bound());
  EXPECT_FALSE(empty.active());
}

TEST(Injector, FaultBindingReportNamesRulesAndDeadGlobs) {
  fault::FaultPlan p = fault::parse_plan(
      "{\"kernels\": [{\"match\": \"sobel*\", \"jitter\": 0.2}, "
      "{\"match\": \"nosuch*\", \"stall_prob\": 0.5, "
      "\"stall_seconds\": 1e-3}]}");
  Graph g = two_kernel_graph();
  const std::string s = fault_binding_string(p, g);
  EXPECT_NE(s.find("sobel"), std::string::npos) << s;
  EXPECT_NE(s.find("WARNING: kernel rule 'nosuch*' matches no kernel"),
            std::string::npos)
      << s;
}

TEST(Injector, FaultBindingReportWarnsOnSourceOnlyTimingRules) {
  fault::FaultPlan p = fault::parse_plan(
      "{\"kernels\": [{\"match\": \"inp*\", \"jitter\": 0.2}], "
      "\"delivery\": [{\"match\": \"input\", \"prob\": 0.5, "
      "\"delay_seconds\": 1e-5}]}");
  Graph g = two_kernel_graph();
  const std::string s = fault_binding_string(p, g);
  EXPECT_EQ(s.find("timing 'inp*'"), std::string::npos) << s;
  EXPECT_NE(s.find("delivery 'input'"), std::string::npos) << s;
  EXPECT_NE(s.find("WARNING: kernel rule 'inp*' perturbs nothing"),
            std::string::npos)
      << s;
}

// ---------------------------------------------------------------------------
// Simulator: identical (plan, seed) => identical trace; faults add time.

struct SimRun {
  std::string trace_json;
  double span = 0.0;
  long faults = 0;
};

SimRun simulate_app(const CompiledApp& app, const fault::Injector* inj) {
  Graph g = app.graph.clone();
  obs::Recorder rec;
  SimOptions sopt;
  sopt.recorder = &rec;
  sopt.injector = inj;
  const SimResult r = simulate(g, app.mapping, sopt);
  EXPECT_TRUE(r.completed);
  SimRun out;
  out.span = r.sim_seconds;
  out.faults = r.faults_injected;
  std::ostringstream os;
  obs::write_chrome_trace(rec.trace(), os);
  out.trace_json = os.str();
  return out;
}

TEST(SimFaults, SameSeedIdenticalTraceDifferentSeedNot) {
  CompiledApp app = compile(apps::pipeline_app({16, 12}, 100.0, 2));
  fault::FaultPlan p = fault::parse_plan(
      "{\"seed\": 7, \"kernels\": [{\"jitter\": 0.4, "
      "\"overrun_prob\": 0.15, \"overrun_factor\": 6.0, "
      "\"stall_prob\": 0.05, \"stall_seconds\": 1e-4}], "
      "\"delivery\": [{\"prob\": 0.1, \"delay_seconds\": 2e-5}]}");
  fault::Injector i7(p, 7), i7b(p, 7), i8(p, 8);
  const SimRun a = simulate_app(app, &i7);
  const SimRun b = simulate_app(app, &i7b);
  const SimRun c = simulate_app(app, &i8);
  EXPECT_GT(a.faults, 0);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_NE(a.trace_json, c.trace_json);
}

TEST(SimFaults, OverrunsExtendTheMakespan) {
  CompiledApp app = compile(apps::sobel_app({16, 12}, 100.0, 1, 100.0));
  fault::FaultPlan p = fault::parse_plan(
      "{\"kernels\": [{\"overrun_prob\": 1.0, \"overrun_factor\": 5.0}]}");
  fault::Injector inj(p, 3);
  const SimRun plain = simulate_app(app, nullptr);
  const SimRun faulted = simulate_app(app, &inj);
  EXPECT_GT(faulted.span, plain.span);
  EXPECT_GT(faulted.faults, 0);
  EXPECT_EQ(plain.faults, 0);
}

// ---------------------------------------------------------------------------
// Host runtime: faults never change values.

TEST(RuntimeFaults, FaultedRunStaysBitExact) {
  const Size2 frame{12, 10};
  const int frames = 2;
  CompiledApp app = compile(apps::sobel_app(frame, 200.0, frames, 100.0));
  fault::FaultPlan p = fault::parse_plan(
      "{\"kernels\": [{\"jitter\": 0.3, \"overrun_prob\": 0.2, "
      "\"overrun_factor\": 3.0, \"stall_prob\": 0.05, "
      "\"stall_seconds\": 5e-5}], "
      "\"cores\": [{\"core\": 0, \"throttle\": 1.5}], "
      "\"delivery\": [{\"prob\": 0.1, \"delay_seconds\": 2e-5}]}");
  fault::Injector inj(p, 11);
  RuntimeOptions ropt;
  ropt.injector = &inj;
  const RuntimeResult r = run_threaded(app.graph, app.mapping, ropt);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_GT(r.faults_injected, 0);

  const auto& res =
      dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
  ASSERT_EQ(res.frames().size(), static_cast<size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const Tile sob = ref::sobel(ref::make_frame(frame, f, default_pixel_fn()));
    for (int y = 0; y < sob.height(); ++y)
      for (int x = 0; x < sob.width(); ++x) {
        const double want = sob.at(x, y) > 100.0 ? 1.0 : 0.0;
        ASSERT_EQ(res.frames()[static_cast<size_t>(f)].at(x, y), want)
            << "frame " << f << " at (" << x << ',' << y << ')';
      }
  }
}

TEST(RuntimeFaults, SourceDeliveryFaultsMatchTheSimulator) {
  // The only rule matches the source, so every counted fault is a
  // delayed release; both engines key it on the items pushed so far.
  CompiledApp app = compile(apps::sobel_app({16, 12}, 100.0, 2, 100.0));
  fault::FaultPlan p = fault::parse_plan(
      "{\"delivery\": [{\"match\": \"input\", \"prob\": 0.25, "
      "\"delay_seconds\": 1e-5}]}");
  fault::Injector inj(p, 5);
  const SimRun sim = simulate_app(app, &inj);
  RuntimeOptions ropt;
  ropt.injector = &inj;
  const RuntimeResult r = run_threaded(app.graph, app.mapping, ropt);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_GT(sim.faults, 0);
  EXPECT_EQ(r.faults_injected, sim.faults);
}

// ---------------------------------------------------------------------------
// Shed/recovery state machine on hand-built overload scenarios.

TEST(Degradation, AnchorAndOnTimeFramesNeverArm) {
  fault::DegradationPolicy pol;
  pol.shed = true;
  pol.rate_hz = 100.0;  // 10 ms period
  fault::DegradationController c(pol);
  c.attach_sinks(1, 0.0);
  auto r0 = c.on_frame_end(0, 1.0);  // anchors the schedule
  EXPECT_TRUE(r0.completed);
  EXPECT_FALSE(r0.missed);
  auto r1 = c.on_frame_end(1, 1.005);  // deadline 1.010
  EXPECT_FALSE(r1.missed);
  EXPECT_FALSE(r1.shed_requested);
  EXPECT_FALSE(c.should_shed());
  EXPECT_EQ(c.frames_completed(), 2);
  EXPECT_EQ(c.misses(), 0);
}

TEST(Degradation, MissArmsOnceAndCooldownSuppresses) {
  fault::DegradationPolicy pol;
  pol.shed = true;
  pol.rate_hz = 100.0;
  pol.max_pending_sheds = 1;
  pol.cooldown_frames = 2;
  fault::DegradationController c(pol);
  c.attach_sinks(1, 0.0);
  (void)c.on_frame_end(0, 1.0);
  auto miss = c.on_frame_end(1, 1.5);  // deadline 1.01 -> way late
  EXPECT_TRUE(miss.missed);
  EXPECT_TRUE(miss.shed_requested);
  // A second miss cannot arm past the bound.
  auto miss2 = c.on_frame_end(2, 2.0);
  EXPECT_TRUE(miss2.missed);
  EXPECT_FALSE(miss2.shed_requested);
  EXPECT_EQ(c.pending_sheds(), 1);

  EXPECT_TRUE(c.should_shed());    // source claims
  EXPECT_FALSE(c.should_shed());   // only once
  c.on_shed_complete(3);
  EXPECT_EQ(c.frames_shed(), 1);
  EXPECT_EQ(c.shed_frames(), (std::vector<std::int64_t>{3}));

  // Cooldown: the next two completions miss but do not arm.
  EXPECT_FALSE(c.on_frame_end(4, 3.0).shed_requested);
  EXPECT_FALSE(c.on_frame_end(5, 3.5).shed_requested);
  // Cooldown over: a miss arms again.
  EXPECT_TRUE(c.on_frame_end(6, 4.0).shed_requested);
}

TEST(Degradation, ObserveOnlyPolicyNeverSheds) {
  fault::DegradationPolicy pol;
  pol.shed = false;  // observe misses, never degrade
  pol.rate_hz = 1000.0;
  fault::DegradationController c(pol);
  (void)c.on_frame_end(0, 1.0);
  auto miss = c.on_frame_end(1, 9.0);
  EXPECT_TRUE(miss.missed);
  EXPECT_FALSE(miss.shed_requested);
  EXPECT_FALSE(c.should_shed());
  EXPECT_GE(c.misses(), 1);
}

TEST(Degradation, AttachedToleranceAbsorbsPhase) {
  // The runtime attaches its lateness tolerance with the sink count; a
  // frame misses only when it lands later than that past its deadline.
  fault::DegradationPolicy pol;
  pol.rate_hz = 100.0;
  fault::DegradationController c(pol);
  c.attach_sinks(1, 1e-3);
  (void)c.on_frame_end(0, 1.0);
  EXPECT_FALSE(c.on_frame_end(1, 1.0105).missed);  // 0.5 ms late
  EXPECT_TRUE(c.on_frame_end(2, 1.0215).missed);   // 1.5 ms late
}

TEST(Degradation, MultiSinkFrameCompletesOnLastSink) {
  fault::DegradationPolicy pol;
  pol.shed = true;
  pol.rate_hz = 100.0;
  fault::DegradationController c(pol);
  c.attach_sinks(2, 0.0);
  EXPECT_FALSE(c.on_frame_end(0, 1.0).completed);  // first sink: partial
  EXPECT_TRUE(c.on_frame_end(0, 1.001).completed);  // second sink closes it
  EXPECT_EQ(c.frames_completed(), 1);
}

TEST(Degradation, AnchoredScheduleHandlesShedGaps) {
  // Frames 0,1,3 complete (2 was shed): frame 3's deadline comes from the
  // anchored schedule, not from the previous completion, so the gap does
  // not shift deadlines.
  fault::DegradationPolicy pol;
  pol.shed = true;
  pol.rate_hz = 100.0;
  fault::DegradationController c(pol);
  (void)c.on_frame_end(0, 1.0);
  (void)c.on_frame_end(1, 1.010);
  auto v = c.on_frame_end(3, 1.030);  // deadline 1.0 + 3 * 0.010
  EXPECT_FALSE(v.missed);
  auto late = c.on_frame_end(4, 1.045);  // deadline 1.040
  EXPECT_TRUE(late.missed);
}

TEST(Degradation, ReportAccountingAndJson) {
  std::vector<obs::FrameVerdict> verdicts(4);
  for (int i = 0; i < 4; ++i) {
    verdicts[static_cast<size_t>(i)].frame = i;
    verdicts[static_cast<size_t>(i)].missed = i >= 2;
    verdicts[static_cast<size_t>(i)].lateness_seconds = i >= 2 ? 0.004 * i : 0;
  }
  const fault::DegradationReport r = fault::build_degradation_report(
      verdicts, {5, 2}, 50.0, 0.001);
  EXPECT_EQ(r.frames_on_time, 2);
  EXPECT_EQ(r.frames_late, 2);
  EXPECT_EQ(r.frames_shed, 2);
  EXPECT_EQ(r.shed_frames, (std::vector<std::int64_t>{2, 5}));  // sorted
  EXPECT_DOUBLE_EQ(r.max_lateness_seconds, 0.012);

  std::ostringstream os;
  fault::write_degradation(r, os);
  EXPECT_NE(os.str().find("2 on-time, 2 late, 2 shed (6 frames offered"),
            std::string::npos)
      << os.str();

  const json::Value doc = json::parse(fault::write_degradation_json(r));
  EXPECT_DOUBLE_EQ(doc.find("frames_shed")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(doc.find("frames_late")->as_number(), 2.0);
  ASSERT_EQ(doc.find("shed_frames")->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.find("shed_frames")->as_array()[1].as_number(), 5.0);
}

TEST(Degradation, ControllerReportMatchesCounters) {
  fault::DegradationPolicy pol;
  pol.shed = true;
  pol.rate_hz = 100.0;
  fault::DegradationController c(pol);
  (void)c.on_frame_end(0, 1.0);
  (void)c.on_frame_end(1, 1.25);
  ASSERT_TRUE(c.should_shed());
  c.on_shed_complete(2);
  const fault::DegradationReport r = fault::build_degradation_report(c);
  EXPECT_EQ(r.frames_on_time, 1);
  EXPECT_EQ(r.frames_late, 1);
  EXPECT_EQ(r.frames_shed, 1);
  EXPECT_DOUBLE_EQ(r.rate_hz, 100.0);
}

// ---------------------------------------------------------------------------
// End-to-end: an overloaded paced run sheds whole frames, surviving frames
// stay bit-exact, and the report accounts for every frame offered.

TEST(Degradation, OverloadedPacedRunShedsWholeFrames) {
  const Size2 frame{10, 8};
  const int frames = 6;
  const double rate = 200.0;  // 5 ms per frame, paced
  CompiledApp app = compile(apps::sobel_app(frame, rate, frames, 100.0));

  fault::DegradationPolicy pol;
  pol.shed = true;
  pol.rate_hz = 1e6;  // 1 us period: every post-anchor frame misses
  pol.max_pending_sheds = 1;
  pol.cooldown_frames = 1;
  fault::DegradationController ctrl(pol);

  RuntimeOptions ropt;
  ropt.pace_inputs = true;
  ropt.degradation = &ctrl;
  const RuntimeResult r = run_threaded(app.graph, app.mapping, ropt);
  ASSERT_TRUE(r.completed) << r.diagnostics;

  EXPECT_GE(r.frames_shed, 1) << "overloaded run never shed";
  EXPECT_EQ(r.frames_shed, ctrl.frames_shed());

  // Whole frames only: survivors = offered - shed, in source order and
  // bit-exact (the shed never cut a frame mid-stream).
  const std::vector<std::int64_t> shed = ctrl.shed_frames();
  const auto& res =
      dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
  ASSERT_EQ(res.frames().size(),
            static_cast<size_t>(frames) - shed.size());
  size_t out_idx = 0;
  for (int f = 0; f < frames; ++f) {
    if (std::find(shed.begin(), shed.end(), f) != shed.end()) continue;
    const Tile sob = ref::sobel(ref::make_frame(frame, f, default_pixel_fn()));
    for (int y = 0; y < sob.height(); ++y)
      for (int x = 0; x < sob.width(); ++x) {
        const double want = sob.at(x, y) > 100.0 ? 1.0 : 0.0;
        ASSERT_EQ(res.frames()[out_idx].at(x, y), want)
            << "source frame " << f << " at (" << x << ',' << y << ')';
      }
    ++out_idx;
  }

  // Accounting: completed + shed covers every frame the source offered.
  EXPECT_EQ(ctrl.frames_completed() + ctrl.frames_shed(), frames);
  const fault::DegradationReport rep = fault::build_degradation_report(ctrl);
  EXPECT_EQ(rep.frames_on_time + rep.frames_late + rep.frames_shed, frames);
}

// ---------------------------------------------------------------------------
// Histogram quantile edge cases.

TEST(Histogram, EmptyQuantilesAreZero) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, SingleObservationEveryQuantileIsTheValue) {
  obs::Histogram h;
  h.observe(3e-3);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3e-3);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3e-3);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3e-3);
}

TEST(Histogram, ExtremesAreExactAndNanIsZero) {
  obs::Histogram h;
  h.observe(1e-6);
  h.observe(4e-4);
  h.observe(1e-3);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-6);   // exact observed min
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e-3);   // exact observed max
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), 1e-6);  // clamped below
  EXPECT_DOUBLE_EQ(h.quantile(1.5), 1e-3);   // clamped above
  EXPECT_DOUBLE_EQ(h.quantile(std::numeric_limits<double>::quiet_NaN()),
                   1e-6);  // NaN -> q=0
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 1e-6);
  EXPECT_LE(p50, 1e-3);
}

TEST(Histogram, MinSurvivesTextAndJsonDumps) {
  obs::MetricsRegistry reg;
  reg.histogram("lat").observe(2e-6);
  reg.histogram("lat").observe(8e-6);
  std::ostringstream txt, js;
  reg.write_text(txt);
  reg.write_json(js);
  EXPECT_NE(txt.str().find("min"), std::string::npos) << txt.str();
  EXPECT_NE(js.str().find("\"min\""), std::string::npos) << js.str();
}

// ---------------------------------------------------------------------------
// Frame series pairing: truncated traces and shed gaps.

obs::TraceEvent boundary(obs::EventKind kind, double t, std::int32_t kernel,
                         std::int64_t frame) {
  obs::TraceEvent e;
  e.t0 = e.t1 = t;
  e.kernel = kernel;
  e.method = static_cast<std::int32_t>(frame);
  e.kind = kind;
  return e;
}

TEST(FrameSeries, TraceEndingMidFrameCountsIncomplete) {
  obs::Trace t;
  t.kernel_names = {"src", "sink"};
  t.events.push_back(boundary(obs::EventKind::kFrameStart, 0.00, 0, 0));
  t.events.push_back(boundary(obs::EventKind::kFrameEnd, 0.02, 1, 0));
  t.events.push_back(boundary(obs::EventKind::kFrameStart, 0.03, 0, 1));
  // run cut short: frame 1 never completes
  const obs::FrameReport r = obs::analyze_frames(t);
  ASSERT_EQ(r.frames.size(), 1u);
  EXPECT_EQ(r.frames[0].frame, 0);
  EXPECT_EQ(r.incomplete, 1);
}

TEST(FrameSeries, EndWithoutStartAlsoIncomplete) {
  obs::Trace t;
  t.kernel_names = {"src", "sink"};
  t.events.push_back(boundary(obs::EventKind::kFrameEnd, 0.02, 1, 7));
  const obs::FrameReport r = obs::analyze_frames(t);
  EXPECT_TRUE(r.frames.empty());
  EXPECT_EQ(r.incomplete, 1);
}

TEST(FrameSeries, PeriodNormalizedAcrossShedGaps) {
  // Frames 0, 1, 3 complete 10 ms apart per index (frame 2 was shed).
  // The period series must divide the 0.02 s delta by the index gap of 2,
  // not report a spurious 2x period.
  obs::Trace t;
  t.kernel_names = {"src", "sink"};
  for (std::int64_t f : {0, 1, 3}) {
    const double base = 0.010 * static_cast<double>(f);
    t.events.push_back(
        boundary(obs::EventKind::kFrameStart, base, 0, f));
    t.events.push_back(
        boundary(obs::EventKind::kFrameEnd, base + 0.005, 1, f));
  }
  const obs::FrameReport r = obs::analyze_frames(t);
  ASSERT_EQ(r.frames.size(), 3u);
  EXPECT_EQ(r.period.count, 2);
  EXPECT_NEAR(r.period.mean, 0.010, 1e-12);
  EXPECT_NEAR(r.period.max, 0.010, 1e-12);
}

}  // namespace
}  // namespace bpp
