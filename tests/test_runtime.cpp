// Threaded host runtime: functional equivalence across mappings and
// thread counts, watchdog behavior, and termination.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>

#include "apps/pipelines.h"
#include "compiler/pipeline.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "kernels/kernels.h"
#include "obs/recorder.h"
#include "ref/reference.h"
#include "runtime/machine.h"
#include "runtime/program.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace bpp {
namespace {

std::vector<long> result_bins(const Graph& g, int bins) {
  const auto& out = dynamic_cast<const OutputKernel&>(g.by_name("result"));
  std::vector<long> total(static_cast<size_t>(bins), 0);
  for (const Tile& t : out.tiles())
    for (int i = 0; i < bins; ++i)
      total[static_cast<size_t>(i)] += static_cast<long>(t.at(i, 0));
  return total;
}

TEST(Runtime, SequentialEqualsThreadedOnFig1) {
  const Size2 frame{32, 24};
  const int frames = 2, bins = 16;
  CompiledApp app = compile(apps::figure1_app(frame, 200.0, frames, bins));

  Graph seq = app.graph.clone();
  ASSERT_TRUE(run_sequential(seq).completed);
  Graph par = app.graph.clone();
  ASSERT_TRUE(run_threaded(par, app.mapping).completed);

  EXPECT_EQ(result_bins(seq, bins), result_bins(par, bins));
}

TEST(Runtime, ArbitraryMappingsAreEquivalent) {
  // Any partition of kernels onto threads computes the same result.
  const Size2 frame{24, 18};
  CompiledApp app = compile(apps::histogram_app(frame, 100.0, 2, 8));
  std::vector<long> want;
  for (int threads : {1, 2, 3, 5}) {
    Graph g = app.graph.clone();
    Mapping m;
    m.cores = threads;
    m.core_of.resize(static_cast<size_t>(g.kernel_count()));
    for (int k = 0; k < g.kernel_count(); ++k)
      m.core_of[static_cast<size_t>(k)] = k % threads;
    ASSERT_TRUE(run_threaded(g, m).completed) << threads << " threads";
    const auto got = result_bins(g, 8);
    if (want.empty())
      want = got;
    else
      EXPECT_EQ(got, want) << threads << " threads";
  }
}

TEST(Runtime, WatchdogFiresOnStalledGraph) {
  // A subtract fed by one silent branch never fires and never terminates.
  Graph g;
  auto& a = g.add<testutil::ScriptedSource>(
      "a", std::vector<Item>{testutil::px(1)});
  auto& b = g.add<testutil::ScriptedSource>("b", std::vector<Item>{});
  Kernel& sub = g.add_kernel(make_subtract("sub"));
  auto& sink = g.add<testutil::ItemSink>("sink");
  g.connect(a, "out", sub, "in0");
  g.connect(b, "out", sub, "in1");
  g.connect(sub, "out", sink, "in");

  RuntimeOptions opt;
  opt.watchdog_seconds = 0.2;
  const RuntimeResult r = run_sequential(g, opt);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.watchdog_fired);
  EXPECT_FALSE(r.diagnostics.empty());
}

TEST(Runtime, CountsFirings) {
  Graph g = apps::histogram_app({8, 6}, 50.0, 1, 4);
  const RuntimeResult r = run_sequential(g);
  ASSERT_TRUE(r.completed);
  // At least one firing per pixel at the histogram plus merge and sink work.
  EXPECT_GT(r.total_firings, 8 * 6);
}

TEST(Runtime, KernelFiringsSumToTotal) {
  CompiledApp app = compile(apps::histogram_app({16, 12}, 80.0, 1, 8));
  const RuntimeResult r = run_threaded(app.graph, app.mapping);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  ASSERT_EQ(r.kernel_firings.size(),
            static_cast<size_t>(app.graph.kernel_count()));
  long sum = 0;
  for (const long f : r.kernel_firings) {
    EXPECT_GE(f, 0);
    sum += f;
  }
  EXPECT_EQ(sum, r.total_firings);
  // Every non-source kernel processed at least the end-of-stream token
  // (source releases are not firings in the host runtime).
  for (KernelId k = 0; k < app.graph.kernel_count(); ++k)
    if (!app.graph.kernel(k).is_source()) {
      EXPECT_GT(r.kernel_firings[static_cast<size_t>(k)], 0)
          << app.graph.kernel(k).name();
    }
}

// Both engines fire through the same core/firing step, so every kernel
// fires exactly as often in the timing simulator as on the host threads,
// whatever order the threads interleave in.
struct AppCase {
  const char* name;
};

void PrintTo(const AppCase& c, std::ostream* os) { *os << c.name; }

class CrossEngine : public ::testing::TestWithParam<AppCase> {};

TEST_P(CrossEngine, KernelFiringCountsMatchSimulator) {
  const std::string name = GetParam().name;
  const Size2 frame = name == "radio" ? Size2{256, 1} : Size2{32, 24};
  const CompiledApp app = compile(apps::named_app(name, frame, 150.0, 3));
  Graph sim_graph = app.graph.clone();
  SimOptions sim_opt;
  sim_opt.machine = app.options.machine;
  const SimResult s = simulate(sim_graph, app.mapping, sim_opt);
  ASSERT_TRUE(s.completed) << s.diagnostics;
  Graph host_graph = app.graph.clone();
  const RuntimeResult r = run_threaded(host_graph, app.mapping);
  ASSERT_TRUE(r.completed) << r.diagnostics;

  ASSERT_EQ(s.kernel_activity.size(), r.kernel_firings.size());
  for (KernelId k = 0; k < app.graph.kernel_count(); ++k)
    EXPECT_EQ(s.kernel_activity[static_cast<size_t>(k)].first,
              r.kernel_firings[static_cast<size_t>(k)])
        << app.graph.kernel(k).name();
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, CrossEngine,
    ::testing::Values(AppCase{"fig1"}, AppCase{"bayer"}, AppCase{"histogram"},
                      AppCase{"parallel-buffer"}, AppCase{"multi-conv"},
                      AppCase{"pipeline"}, AppCase{"sobel"},
                      AppCase{"downsample"}, AppCase{"separable"},
                      AppCase{"motion"}, AppCase{"feedback"},
                      AppCase{"radio"}, AppCase{"analytics"}));

TEST(Runtime, ChannelHighWaterWithinCapacity) {
  CompiledApp app = compile(apps::pipeline_app({16, 12}, 80.0, 1));
  RuntimeOptions opt;
  opt.channel_capacity = 64;
  const RuntimeResult r = run_threaded(app.graph, app.mapping, opt);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  ASSERT_EQ(r.channel_high_water.size(),
            static_cast<size_t>(app.graph.channel_count()));
  bool any_used = false;
  for (const long hw : r.channel_high_water) {
    EXPECT_GE(hw, -1);  // -1 marks dead channels
    // try_push can observe one in-flight item beyond nominal capacity.
    EXPECT_LE(hw, opt.channel_capacity + 1);
    if (hw > 0) any_used = true;
  }
  EXPECT_TRUE(any_used);
}

TEST(Runtime, RecorderCapturesWallClockTrace) {
  CompiledApp app = compile(apps::histogram_app({16, 12}, 80.0, 1, 8));
  obs::Recorder rec;
  RuntimeOptions opt;
  opt.recorder = &rec;
  const RuntimeResult r = run_threaded(app.graph, app.mapping, opt);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  if (!obs::kCompiledIn) return;  // the rest reads the trace and metrics

  const obs::Trace& t = rec.trace();
  EXPECT_EQ(t.clock, obs::TraceClock::kWall);
  EXPECT_EQ(t.cores, app.mapping.cores);
  EXPECT_GT(t.duration_seconds, 0.0);
  long firings = 0;
  for (const obs::TraceEvent& e : t.events) {
    EXPECT_GE(e.t1, e.t0);
    if (e.kind == obs::EventKind::kFiring) {
      ++firings;
      ASSERT_GE(e.kernel, 0);
      ASSERT_LT(e.kernel, app.graph.kernel_count());
    }
  }
  if (t.dropped_events == 0) {
    EXPECT_EQ(firings, r.total_firings);
  }
  EXPECT_EQ(rec.metrics().counter("runtime.total_firings").value(),
            r.total_firings);
}

TEST(Runtime, MultiFrameFeedbackTerminates) {
  Graph g = apps::feedback_app({8, 6}, 50.0, 3, 0.5);
  const RuntimeResult r = run_sequential(g);
  EXPECT_TRUE(r.completed) << r.diagnostics;
  const auto& out = dynamic_cast<const OutputKernel&>(g.by_name("result"));
  EXPECT_EQ(out.frames().size(), 3u);
}

TEST(Runtime, MappingMustCoverGraph) {
  Graph g = apps::histogram_app({8, 6}, 25.0, 1);
  Mapping bad;
  bad.cores = 1;
  bad.core_of = {0};
  EXPECT_THROW((void)run_threaded(g, bad), ExecutionError);
}

TEST(Runtime, BenchmarkAppsAllRunToCompletion) {
  struct Case {
    const char* name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"bayer", apps::bayer_app({16, 12}, 50.0, 2)});
  cases.push_back({"hist", apps::histogram_app({16, 12}, 50.0, 2)});
  cases.push_back({"pbuf", apps::parallel_buffer_app({32, 24}, 50.0, 1)});
  cases.push_back({"mconv", apps::multi_convolution_app({24, 20}, 50.0, 1)});
  cases.push_back({"pipe", apps::pipeline_app({16, 12}, 50.0, 2)});
  cases.push_back({"sobel", apps::sobel_app({16, 12}, 50.0, 1, 60.0)});
  cases.push_back({"down", apps::downsample_app({16, 12}, 50.0, 1)});
  for (auto& c : cases) {
    CompileOptions opt;
    opt.machine = machines::roomy();
    CompiledApp app = compile(std::move(c.g), opt);
    EXPECT_TRUE(run_sequential(app.graph).completed) << c.name;
  }
}


TEST(Runtime, PacedInputsMeetWallClockSchedule) {
  // With pace_inputs the host runtime releases pixels on the real-time
  // schedule; on an idle machine a modest rate runs without deadline
  // misses and the wall time tracks the input span.
  const double rate = 50.0;
  const int frames = 3;
  CompiledApp app = compile(apps::histogram_app({16, 12}, rate, frames, 8));
  RuntimeOptions opt;
  opt.pace_inputs = true;
  const RuntimeResult r = run_threaded(app.graph, app.mapping, opt);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  const double span = frames / rate;
  EXPECT_GE(r.wall_seconds, 0.8 * span);
  EXPECT_LT(r.wall_seconds, 3.0 * span);
  // Host scheduler quanta (this may be a single-CPU box) can delay
  // individual releases; the lag must stay bounded, not zero.
  EXPECT_LT(r.max_release_lag_seconds, 0.1)
      << r.delayed_releases << " delayed releases";
}

TEST(Runtime, LagToleranceZeroCountsEveryLateRelease) {
  // The default tolerance absorbs host-scheduler wakeup quanta; pinning it
  // to zero makes every release count as late (wall time is measured after
  // the deadline by construction, so lag is strictly positive). Guards the
  // option actually reaching the release-lag accounting.
  CompiledApp app = compile(apps::histogram_app({12, 8}, 100.0, 2, 8));
  RuntimeOptions opt;
  opt.pace_inputs = true;
  opt.lag_tolerance_seconds = 0.0;
  const RuntimeResult r = run_threaded(app.graph, app.mapping, opt);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_GT(r.delayed_releases, 0);
  EXPECT_GT(r.max_release_lag_seconds, 0.0);
}

TEST(Runtime, PacedRunReportsFiringsHighWaterAndObsGauges) {
  // Under pace_inputs the result still carries exact bookkeeping: per-kernel
  // firing counts sum to the total, channel high-water marks are sane, and
  // the paced-release accounting surfaces in the metrics registry alongside
  // the tracked frames.
  const int frames = 2;
  CompiledApp app = compile(apps::histogram_app({16, 12}, 100.0, frames, 8));
  Graph g = app.graph.clone();
  obs::Recorder rec;
  RuntimeOptions opt;
  opt.pace_inputs = true;
  opt.recorder = &rec;
  const RuntimeResult r = run_threaded(g, app.mapping, opt);
  ASSERT_TRUE(r.completed) << r.diagnostics;

  ASSERT_EQ(r.kernel_firings.size(),
            static_cast<size_t>(g.kernel_count()));
  long sum = 0;
  for (long f : r.kernel_firings) sum += f;
  EXPECT_EQ(sum, r.total_firings);

  ASSERT_EQ(r.channel_high_water.size(),
            static_cast<size_t>(g.channel_count()));
  for (ChannelId c = 0; c < g.channel_count(); ++c) {
    const long hw = r.channel_high_water[static_cast<size_t>(c)];
    if (g.channel(c).alive) {
      EXPECT_GE(hw, 0) << "channel " << c;
    } else {
      EXPECT_EQ(hw, -1) << "channel " << c;
    }
  }
  if (!obs::kCompiledIn) return;  // the rest reads the trace and metrics

  obs::MetricsRegistry& m = rec.metrics();
  EXPECT_EQ(m.counter("runtime.delayed_releases").value(),
            r.delayed_releases);
  EXPECT_DOUBLE_EQ(m.gauge("runtime.max_release_lag_seconds").value(),
                   r.max_release_lag_seconds);
  // Paced-only gauges expose the schedule the run followed.
  EXPECT_DOUBLE_EQ(m.gauge("runtime.lag_tolerance_seconds").value(),
                   opt.lag_tolerance_seconds);
  EXPECT_DOUBLE_EQ(m.gauge("runtime.pace_slowdown").value(),
                   opt.pace_slowdown);

  // Both frame boundaries were traced for every frame. Each source emits a
  // start for every frame it releases (auxiliary one-shot sources add a
  // frame-0 start), so starts are at least one per frame; sinks close each
  // frame exactly once.
  EXPECT_EQ(m.counter("trace.frames").value(), frames);
  EXPECT_EQ(m.counter("trace.incomplete_frames").value(), 0);
  long starts = 0, ends = 0;
  for (const obs::TraceEvent& e : rec.trace().events) {
    if (e.kind == obs::EventKind::kFrameStart) ++starts;
    if (e.kind == obs::EventKind::kFrameEnd) ++ends;
  }
  EXPECT_GE(starts, frames);
  EXPECT_EQ(ends, frames);
}

TEST(Runtime, PacedSlowdownStretchesTheRun) {
  const double rate = 100.0;
  CompiledApp app = compile(apps::histogram_app({12, 8}, rate, 2, 8));
  RuntimeOptions opt;
  opt.pace_inputs = true;
  opt.pace_slowdown = 4.0;
  Graph g = app.graph.clone();
  const RuntimeResult r = run_threaded(g, app.mapping, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.wall_seconds, 0.8 * 4.0 * 2 / rate);
}

TEST(Compile, WarnsWhenSerialKernelExceedsOnePE) {
  // The event detector is a serial scan-order FSM; at a pixel rate beyond
  // one slow PE, compile() surfaces the infeasibility instead of letting
  // the simulation quietly miss real time.
  Graph g;
  auto& in = g.add<InputKernel>("input", Size2{32, 24}, 400.0, 1);
  auto& det = g.add<EventDetectKernel>("detect", 150.0, 4.0);
  auto& hand = g.add<EventHandlerKernel>("handler");
  auto& out = g.add<OutputKernel>("result");
  g.connect(in, "out", det, "in");
  g.connect(det, "out", hand, "in");
  g.connect(hand, "out", out, "in");

  CompileOptions opt;
  opt.machine.clock_hz = 1e6;
  CompiledApp app = compile(std::move(g), opt);
  bool warned = false;
  for (const std::string& w : app.parallelization.warnings)
    warned = warned || (w.find("infeasible") != std::string::npos &&
                        w.find("detect") != std::string::npos);
  EXPECT_TRUE(warned);
}

TEST(Compile, WarnsWhenDependencyEdgeCapsNeededParallelism) {
  // A dependency edge from a serial stage onto a hungry stage caps it
  // below its demand.
  Graph g;
  auto& in = g.add<InputKernel>("input", Size2{32, 24}, 400.0, 1);
  Kernel& cheap = g.add_kernel(std::make_unique<UnaryOpKernel>(
      "cheap", [](double v) { return v; }, 4));
  Kernel& hungry = g.add_kernel(std::make_unique<UnaryOpKernel>(
      "hungry", [](double v) { return v * 2; }, 400));
  auto& out = g.add<OutputKernel>("result");
  g.connect(in, "out", cheap, "in");
  g.connect(cheap, "out", hungry, "in");
  g.connect(hungry, "out", out, "in");
  g.add_dependency(cheap, hungry);

  CompiledApp app = compile(std::move(g));
  bool warned = false;
  for (const std::string& w : app.parallelization.warnings)
    warned = warned || w.find("caps parallelism") != std::string::npos;
  EXPECT_TRUE(warned);
  EXPECT_FALSE(app.parallelization.factors.count("hungry"));
}

// Regression stress for the two-phase start() protocol: attach() must
// register a program on the timed rosters *before* the initial ready set
// is seeded, or a worker can pop a seeded node while the rosters are
// still being written. The single-program tests above never widen that
// window — it only opens when other programs keep the workers hot while
// a new one attaches. So: keep a paced background program in flight on a
// shared machine and have two threads churn short-lived programs through
// start()/finish() against it. Runs in the TSan CI job (test_runtime
// target), where any resurrected race trips halt_on_error.
TEST(Machine, AttachDetachChurnWhileFramesInFlight) {
  rt::Machine machine(3);
  auto pool = [&](const Mapping& m) {
    Mapping out;
    out.cores = machine.cores();
    out.core_of.resize(m.core_of.size());
    for (size_t i = 0; i < m.core_of.size(); ++i)
      out.core_of[i] = m.core_of[i] % out.cores;
    return out;
  };

  // Background tenant: paced so frames stay in flight for the whole
  // churn window even on a fast host.
  CompiledApp bg = compile(apps::figure1_app({32, 24}, 400.0, 120, 16));
  Graph bg_graph = bg.graph.clone();
  RuntimeOptions bg_opt;
  bg_opt.pace_inputs = true;
  GraphProgram background(bg_graph, pool(bg.mapping), bg_opt, machine);
  background.start();

  constexpr int kRoundsPerThread = 6;
  std::atomic<int> completed{0};
  std::atomic<long> churn_firings{0};
  auto churn = [&](std::uint64_t salt) {
    for (int round = 0; round < kRoundsPerThread; ++round) {
      // Vary the shape per thread so the two churners exercise
      // different kernel sets and core assignments.
      CompiledApp a = salt & 1
                          ? compile(apps::histogram_app({16, 12}, 300.0, 2, 8))
                          : compile(apps::sobel_app({20, 16}, 250.0, 2, 96.0));
      Graph g = a.graph.clone();
      GraphProgram p(g, pool(a.mapping), RuntimeOptions{}, machine);
      p.start();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (!p.done() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const RuntimeResult r = p.finish();
      if (r.completed) completed.fetch_add(1, std::memory_order_relaxed);
      churn_firings.fetch_add(r.total_firings, std::memory_order_relaxed);
    }
  };
  std::thread t0(churn, 0);
  std::thread t1(churn, 1);
  t0.join();
  t1.join();
  EXPECT_EQ(completed.load(), 2 * kRoundsPerThread);
  EXPECT_GT(churn_firings.load(), 0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!background.done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const RuntimeResult r = background.finish();
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.total_firings, 0);
}

// Exception-containment stress for the guarded worker loop: a firing
// that throws must fail only its own program while co-resident programs
// and the pool itself stay healthy — repeatedly, with the failure racing
// live traffic from a clean program on the same workers. Runs in the
// TSan CI job, where the fail()/quiesce/detach path is checked against
// concurrent attach and firing traffic.
TEST(Machine, ThrowingProgramChurnLeavesPoolAndCoProgramHealthy) {
  rt::Machine machine(3);
  auto pool = [&](const Mapping& m) {
    Mapping out;
    out.cores = machine.cores();
    out.core_of.resize(m.core_of.size());
    for (size_t i = 0; i < m.core_of.size(); ++i)
      out.core_of[i] = m.core_of[i] % out.cores;
    return out;
  };

  fault::FaultPlan plan;
  plan.seed = 11;
  fault::KernelRule kr;
  kr.match = "merge*";
  kr.throw_prob = 1.0;
  plan.kernels.push_back(kr);

  CompiledApp faulty = compile(apps::figure1_app({24, 18}, 300.0, 2, 8));
  CompiledApp clean = compile(apps::histogram_app({16, 12}, 300.0, 2, 8));

  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    const fault::Injector inj(plan, static_cast<std::uint64_t>(round));
    Graph gf = faulty.graph.clone();
    RuntimeOptions fopt;
    fopt.injector = &inj;
    GraphProgram pf(gf, pool(faulty.mapping), fopt, machine);
    Graph gc = clean.graph.clone();
    GraphProgram pc(gc, pool(clean.mapping), RuntimeOptions{}, machine);
    pf.start();
    pc.start();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while ((!pf.failed() || !pc.done()) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(pf.failed()) << "round " << round;
    const RuntimeResult rf = pf.finish();
    EXPECT_TRUE(rf.failed);
    EXPECT_NE(rf.error.find("injected fault"), std::string::npos) << rf.error;
    ASSERT_TRUE(pc.done()) << "round " << round;
    EXPECT_TRUE(pc.finish().completed);
  }
}

}  // namespace
}  // namespace bpp
