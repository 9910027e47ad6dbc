// Threaded host runtime: functional equivalence across mappings and
// thread counts, watchdog behavior, and termination.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <thread>

#include "apps/pipelines.h"
#include "compiler/pipeline.h"
#include "fault/degradation.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "kernels/kernels.h"
#include "obs/deadline.h"
#include "obs/recorder.h"
#include "ref/reference.h"
#include "runtime/machine.h"
#include "runtime/program.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "test_util.h"

#ifdef __linux__
#include <sched.h>
#endif

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
    // The producer reads occupancy after its own push succeeded, which
    // needed a free slot, so the peak never exceeds the capacity.
    EXPECT_LE(hw, opt.channel_capacity);
    if (hw > 0) any_used = true;
  }
  EXPECT_TRUE(any_used);
}

TEST(Runtime, SingleCoreHighWaterIsExact) {
  // On one core the schedule is fixed: the source (kernel 0, queued first)
  // pushes until its ring is full or it runs dry, then each downstream
  // kernel drains what it was given. So every channel peaks at exactly
  // min(capacity, items) — the lazily refreshed mark must hit it, not an
  // upper bound and not a stale lower one.
  constexpr int kPixels = 10;
  std::vector<Item> items;
  for (int i = 0; i < kPixels; ++i) items.push_back(testutil::px(i));
  items.push_back(testutil::token(tok::kEndOfStream));
  const long n_items = static_cast<long>(items.size());
  for (const int capacity : {1, 4, 64}) {
    Graph g;
    auto& src = g.add<testutil::ScriptedSource>("src", items);
    auto& pass = g.add<testutil::PassKernel>("pass");
    auto& sink = g.add<testutil::ItemSink>("sink");
    g.connect(src, "out", pass, "in");
    g.connect(pass, "out", sink, "in");
    RuntimeOptions opt;
    opt.channel_capacity = capacity;
    const RuntimeResult r = run_sequential(g, opt);
    ASSERT_TRUE(r.completed) << r.diagnostics;
    ASSERT_EQ(r.channel_high_water.size(), 2u);
    for (const long hw : r.channel_high_water)
      EXPECT_EQ(hw, std::min<long>(capacity, n_items))
          << "capacity " << capacity;
  }

  // A compiled app on one core, where some rings never fill and are
  // drained between pushes, so a stale cached head would overstate their
  // peak (capacity 8 shows it; at 3 every live ring fills). Each traced push carries the occupancy read fresh after that
  // push, so the per-channel maximum of the samples is the peak the lazy
  // mark must equal.
  CompiledApp app = compile(apps::figure1_app({16, 12}, 180.0, 2, 8));
  Graph g = app.graph.clone();
  obs::Recorder rec;
  RuntimeOptions opt;
  opt.channel_capacity = 8;
  opt.recorder = &rec;
  const RuntimeResult r = run_sequential(g, opt);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  ASSERT_EQ(rec.trace().dropped_events, 0);
  std::vector<long> peak(static_cast<size_t>(g.channel_count()), -1);
  for (ChannelId c = 0; c < g.channel_count(); ++c)
    if (g.channel(c).alive) peak[static_cast<size_t>(c)] = 0;
  for (const obs::TraceEvent& e : rec.trace().events)
    if (e.kind == obs::EventKind::kChannelPush) {
      long& p = peak[static_cast<size_t>(e.channel)];
      p = std::max(p, std::lround(e.aux0));
    }
  EXPECT_EQ(r.channel_high_water, peak);
}

TEST(Runtime, RecorderCapturesWallClockTrace) {
  CompiledApp app = compile(apps::histogram_app({16, 12}, 80.0, 1, 8));
  obs::Recorder rec;
  RuntimeOptions opt;
  opt.recorder = &rec;
  const RuntimeResult r = run_threaded(app.graph, app.mapping, opt);
  ASSERT_TRUE(r.completed) << r.diagnostics;

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

TEST(Runtime, PacedReleaseLateFlagsFollowTheOneRule) {
  // A paced release is late by obs::is_late against one input pixel
  // period (104 us at 12x8 @ 100 Hz). A histogram stalled 300 us per
  // firing behind one-item channels holds the source back past it, so
  // releases run late. The counter equals the trace's late flags, and each
  // flag is set exactly when the release's lag exceeds the tolerance.
  CompiledApp app = compile(apps::histogram_app({12, 8}, 100.0, 2, 8));
  fault::FaultPlan plan;
  fault::KernelRule stall;
  stall.match = "histogram*";
  stall.stall_prob = 1.0;
  stall.stall_seconds = 300e-6;
  plan.kernels.push_back(stall);
  const fault::Injector inj(plan, plan.seed);
  obs::Recorder rec;
  RuntimeOptions opt;
  opt.pace_inputs = true;
  opt.channel_capacity = 1;
  opt.injector = &inj;
  opt.recorder = &rec;
  const RuntimeResult r = run_threaded(app.graph, app.mapping, opt);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  const obs::Trace& t = rec.trace();
  ASSERT_EQ(t.dropped_events, 0u);
  const double tol = obs::lateness_tolerance(app.graph);
  EXPECT_DOUBLE_EQ(tol, 1.0 / (100.0 * 12 * 8));
  long releases = 0, late = 0;
  for (const obs::TraceEvent& e : t.events) {
    if (e.kind != obs::EventKind::kSourceRelease) continue;
    ++releases;
    const bool flagged = e.aux1 != 0.0f;
    if (flagged) ++late;
    // The trace stores the lag as a float: a lag within its rounding of
    // the threshold cannot be judged from the trace.
    if (std::abs(e.aux0 - tol) > 1e-6 * tol) {
      EXPECT_EQ(flagged, obs::is_late(e.aux0, tol)) << "lag " << e.aux0;
    }
  }
  EXPECT_GT(releases, 2 * 12 * 8);
  EXPECT_GT(late, 0);
  EXPECT_EQ(r.delayed_releases, late);
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

  obs::MetricsRegistry& m = rec.metrics();
  EXPECT_EQ(m.counter("runtime.delayed_releases").value(),
            r.delayed_releases);
  EXPECT_DOUBLE_EQ(m.gauge("runtime.max_release_lag_seconds").value(),
                   r.max_release_lag_seconds);
  // A paced-only gauge exposes the schedule the run followed.
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

// A paced run with a recorder counts the frame closes its workers
// watched: at least one, at most one per frame on each core it uses.
TEST(Runtime, PacedRunCountsCloseWatches) {
  const int frames = 3;
  CompiledApp app = compile(apps::histogram_app({8, 6}, 50.0, frames, 8));
  obs::Recorder rec;
  RuntimeOptions opt;
  opt.pace_inputs = true;
  opt.recorder = &rec;
  Graph g = app.graph.clone();
  const RuntimeResult r = run_threaded(g, app.mapping, opt);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  const long watched = rec.metrics().counter("runtime.close_watches").value();
  EXPECT_GE(watched, 1);
  EXPECT_LE(watched, frames * app.mapping.cores);
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

// Builds a program for `machine` with every kernel on pool core
// `core_of(k)`.
Mapping pool_mapping(const Graph& g, const std::function<int(KernelId)>& core_of,
                     int cores) {
  Mapping m;
  m.cores = cores;
  m.core_of.resize(static_cast<size_t>(g.kernel_count()));
  for (KernelId k = 0; k < g.kernel_count(); ++k)
    m.core_of[static_cast<size_t>(k)] = core_of(k);
  return m;
}

// Paced releases must come due while the worker stays busy with other
// work, not only when it runs dry and parks: one core runs a long
// unpaced program and a short paced one. The worker never parks while
// the unpaced program has work, so the paced program completes on time
// only if the worker checks its release deadline between firings.
TEST(Machine, PacedReleaseDueWhileCoreStaysBusy) {
  rt::Machine machine(1);
  auto on_core0 = [](KernelId) { return 0; };

  CompiledApp busy_app = compile(apps::figure1_app({64, 48}, 180.0, 60, 16));
  Graph busy_graph = busy_app.graph.clone();
  GraphProgram busy(busy_graph, pool_mapping(busy_graph, on_core0, 1),
                    RuntimeOptions{}, machine);

  const double rate = 100.0;
  const int frames = 3;
  CompiledApp paced_app = compile(apps::histogram_app({16, 12}, rate, frames, 8));
  Graph paced_graph = paced_app.graph.clone();
  obs::Recorder rec;
  RuntimeOptions paced_opt;
  paced_opt.pace_inputs = true;
  paced_opt.recorder = &rec;
  GraphProgram paced(paced_graph, pool_mapping(paced_graph, on_core0, 1),
                     paced_opt, machine);

  busy.start();
  // start() returns with the busy program seeded, but a worker that parked
  // while seeding was under way may not have run since. Its park would be
  // reported to the paced program if that attached first, so wait for the
  // worker to fire again.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const long seeded = busy.firings();
  while (busy.firings() == seeded &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  paced.start();
  while (!paced.done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // The premise: the core was busy for the paced program's whole run.
  const bool busy_throughout = !busy.done();
  const RuntimeResult r = paced.finish();
  (void)busy.finish();  // quiesce the rest of the long run

  ASSERT_TRUE(r.completed) << "paced program did not complete";
  EXPECT_GE(r.wall_seconds, 0.8 * frames / rate);
  EXPECT_LT(r.max_release_lag_seconds, 0.1)
      << r.delayed_releases << " delayed releases";
  EXPECT_TRUE(busy_throughout) << "the unpaced program finished first";
  EXPECT_EQ(rec.metrics().counter("trace.frames").value(), frames);
  long parks = 0;
  for (const obs::TraceEvent& e : rec.trace().events)
    if (e.kind == obs::EventKind::kPark) ++parks;
  EXPECT_EQ(parks, 0) << "the worker parked during the paced run";
}

// A worker parked before a program starts reports that park to the
// program when start() wakes it; the program's trace holds only the part
// after its own time 0.
TEST(Machine, ParkBeforeStartIsClippedToTheProgramStart) {
  rt::Machine machine(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // it parks
  CompiledApp app = compile(apps::histogram_app({16, 12}, 100.0, 2, 8));
  Graph g = app.graph.clone();
  obs::Recorder rec;
  RuntimeOptions opt;
  opt.recorder = &rec;
  GraphProgram p(g, pool_mapping(g, [](KernelId) { return 0; }, 1), opt,
                 machine);
  p.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!p.done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const RuntimeResult r = p.finish();
  ASSERT_TRUE(r.completed) << r.diagnostics;
  long parks = 0;
  for (const obs::TraceEvent& e : rec.trace().events) {
    if (e.kind != obs::EventKind::kPark) continue;
    ++parks;
    EXPECT_GE(e.t0, 0.0) << "park " << parks;
    EXPECT_GE(e.t1, e.t0) << "park " << parks;
  }
  EXPECT_GT(parks, 0) << "the wakeup by start() recorded no park";
}

// Lost-wakeup stress for the eventcount: a chain whose every edge crosses
// between two cores, with one-item channels, so each item makes both
// workers run dry, announce themselves as sleepers and park, and be woken
// by the other. A wakeup lost in that race stalls the chain for good,
// which the watchdog reports.
TEST(Machine, CrossCoreWakeupsSurviveParkChurn) {
  constexpr int kPixels = 48;
  std::vector<Item> items;
  for (int i = 0; i < kPixels; ++i) items.push_back(testutil::px(i));
  items.push_back(testutil::token(tok::kEndOfStream));
  std::vector<double> want;
  for (int i = 0; i < kPixels; ++i) want.push_back(i);
  want.push_back(-(1000.0 + tok::kEndOfStream));

  RuntimeOptions opt;
  opt.channel_capacity = 1;
  opt.watchdog_seconds = 10.0;
  constexpr int kRuns = 500;
  for (int run = 0; run < kRuns; ++run) {
    Graph g;
    auto& src = g.add<testutil::ScriptedSource>("src", items);
    auto& a = g.add<testutil::PassKernel>("a");
    auto& b = g.add<testutil::PassKernel>("b");
    auto& sink = g.add<testutil::ItemSink>("sink");
    g.connect(src, "out", a, "in");
    g.connect(a, "out", b, "in");
    g.connect(b, "out", sink, "in");
    const Mapping m =
        pool_mapping(g, [](KernelId k) { return static_cast<int>(k % 2); }, 2);
    const RuntimeResult r = run_threaded(g, m, opt);
    ASSERT_FALSE(r.watchdog_fired) << "run " << run << ": " << r.diagnostics;
    ASSERT_TRUE(r.completed) << "run " << run;
    ASSERT_EQ(dynamic_cast<const testutil::ItemSink&>(g.by_name("sink")).log,
              want)
        << "run " << run;
  }
}

// The firing count a supervisor polls is a sum of per-core counters. Each
// only grows, so the sum one thread reads never decreases, and once the
// program is finished it is the exact total the result reports.
TEST(Machine, FiringCountPolledMidRunIsMonotoneAndExact) {
  rt::Machine machine(3);
  CompiledApp app = compile(apps::figure1_app({32, 24}, 180.0, 4, 16));
  Graph g = app.graph.clone();
  const Mapping m = pool_mapping(
      g,
      [&](KernelId k) {
        return app.mapping.core_of[static_cast<size_t>(k)] % machine.cores();
      },
      machine.cores());
  GraphProgram p(g, m, RuntimeOptions{}, machine);
  p.start();
  long last = 0, polls = 0, decreases = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!p.done() && std::chrono::steady_clock::now() < deadline) {
    const long f = p.firings();
    if (f < last) ++decreases;
    last = f;
    ++polls;
  }
  const RuntimeResult r = p.finish();
  ASSERT_TRUE(r.completed);
  EXPECT_GT(polls, 0);
  EXPECT_EQ(decreases, 0);
  EXPECT_LE(last, r.total_firings);
  EXPECT_EQ(p.firings(), r.total_firings);
  long sum = 0;
  for (const long f : r.kernel_firings) sum += f;
  EXPECT_EQ(sum, r.total_firings);
}

/// Queue (`p`, kernel `k`) on core 0 of `m` from a non-worker thread.
void push_on_core0(rt::Machine& m, rt::Program& p, rt::ReadyNode& n,
                   KernelId k) {
  n.program = &p;
  n.kernel = k;
  std::atomic_thread_fence(std::memory_order_seq_cst);
  m.enqueue(&n, 0, -1);
}

// Drives a Machine directly: processing kernel 0 arms a release `lead`
// seconds ahead on its core; processing kernel 1 records when it ran.
// fire_due_sources records when the release came due.
class ReleaseProbe final : public rt::Program {
 public:
  ReleaseProbe(rt::Machine& m, double lead)
      : Program(m.cores()), machine_(m), lead_(lead) {}

  void process(KernelId k, int core) override {
    if (k == 0) {
      const double due = machine_.now() + lead_;
      machine_.arm_release(core, due);
      due_at.store(due);
    } else {
      ran_before_release.store(fired_at.load() < 0.0);
      ran_at.store(machine_.now());
    }
  }
  double fire_due_sources(int /*core*/, double now_seconds) override {
    if (fired_at.load() < 0.0) fired_at.store(now_seconds);
    return -1.0;
  }

  void push(rt::ReadyNode& n, KernelId k) {
    push_on_core0(machine_, *this, n, k);
  }

  std::atomic<double> due_at{-1.0}, fired_at{-1.0}, ran_at{-1.0};
  std::atomic<bool> ran_before_release{false};

 private:
  rt::Machine& machine_;
  double lead_;
};

bool wait_for(const std::function<bool()>& cond) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// wait_for without the sleep, for waits that must not overshoot.
bool spin_until(const std::function<bool()>& cond) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!cond())
    if (std::chrono::steady_clock::now() > deadline) return false;
  return true;
}

/// CPUs this process may run on (its affinity mask, not the host's).
int usable_cpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return static_cast<int>(std::thread::hardware_concurrency());
}

double process_cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

// A worker polls only the last microseconds before an armed release: a
// release 50 ms away is a timed wait, so the process burns almost no CPU
// over it, and the release still comes due no earlier than armed.
TEST(Machine, DistantReleaseBurnsNoCpu) {
  constexpr double kLead = 0.05;
  rt::Machine machine(1);
  ReleaseProbe p(machine, kLead);
  machine.attach(&p, {0});
  rt::ReadyNode arm;
  const double cpu0 = process_cpu_seconds();
  p.push(arm, 0);
  ASSERT_TRUE(wait_for([&] { return p.fired_at.load() >= 0.0; }));
  const double cpu = process_cpu_seconds() - cpu0;
  EXPECT_GE(p.fired_at.load(), p.due_at.load() - 1e-9);
  EXPECT_LT(cpu, 0.1 * kLead) << "CPU seconds over a " << kLead
                              << " s wait for a release";
  p.quiesce();
  machine.detach(&p);
}

#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

// A worker polling toward a release still runs the nodes other threads
// queue on its core meanwhile. Each trial arms a release inside a fresh
// worker's initial wake margin, so the worker polls at once instead of
// sleeping, and pushes a node a few microseconds before the release. The
// polling worker is no sleeper, so the push sends no notify: only its own
// pops can find the node before the release. A trial counts when the
// push completed well before the release; a preempted worker can still
// lose one, so most counted trials, not all, must run the node first.
// ThreadSanitizer slows a push past the window: there the trials still
// race pushes against the poll, but their timing is not checked.
TEST(Machine, QueuedWorkRunsWhileWaitingForARelease) {
  if (usable_cpus() < 2)
    GTEST_SKIP() << "needs a CPU for the pushing thread beside the worker";
  constexpr int kTrials = 16;
  const int attempts = kThreadSanitizer ? kTrials : 20 * kTrials;
  const double lead = 0.9 * rt::WakeMargin().seconds();
  int counted = 0, first = 0;
  for (int attempt = 0; attempt < attempts && counted < kTrials; ++attempt) {
    rt::Machine machine(1);
    ReleaseProbe p(machine, lead);
    machine.attach(&p, {0});
    rt::ReadyNode arm, work;
    p.push(arm, 0);
    double due = -1.0;
    ASSERT_TRUE(spin_until([&] { return (due = p.due_at.load()) >= 0.0; }))
        << "the worker never armed the release";
    ASSERT_TRUE(spin_until([&] { return machine.now() >= due - lead / 2; }));
    p.push(work, 1);
    const bool in_time = machine.now() < due - lead / 4;
    ASSERT_TRUE(wait_for(
        [&] { return p.ran_at.load() >= 0.0 && p.fired_at.load() >= 0.0; }))
        << "attempt " << attempt;
    if (in_time) {
      ++counted;
      if (p.ran_before_release.load()) ++first;
    }
    p.quiesce();
    machine.detach(&p);
  }
  if (kThreadSanitizer) return;
  ASSERT_EQ(counted, kTrials) << "too few pushes landed before the release";
  EXPECT_GE(first, kTrials * 3 / 4) << first << " of " << kTrials
                                    << " nodes ran before the release";
}

// Drives a Machine directly with one frame-close window: close_watch
// opens it `lead` before machine time `from` and closes it at `until`,
// or, with `once`, as soon as the worker has begun to watch it (a frame
// that closes at once). The first answer inside the window records when
// the watch began; processing kernel 1 records when it ran.
class CloseProbe final : public rt::Program {
 public:
  CloseProbe(rt::Machine& m, double from, double until, bool once = false)
      : Program(m.cores(), /*watches_closes=*/true),
        machine_(m),
        from_(from),
        until_(until),
        once_(once) {}

  void process(KernelId k, int /*core*/) override {
    if (k == 1) ran_at.store(machine_.now());
  }
  double fire_due_sources(int /*core*/, double /*now_seconds*/) override {
    return -1.0;
  }
  double close_watch(int /*core*/, double now_seconds,
                     double lead_seconds) override {
    if (now_seconds >= until_ || (once_ && watch_at.load() >= 0.0))
      return std::numeric_limits<double>::infinity();
    const double start = from_ - lead_seconds;
    if (now_seconds >= start && watch_at.load() < 0.0)
      watch_at.store(now_seconds);
    return start;
  }

  void push(rt::ReadyNode& n, KernelId k) {
    push_on_core0(machine_, *this, n, k);
  }

  std::atomic<double> watch_at{-1.0}, ran_at{-1.0};

 private:
  rt::Machine& machine_;
  double from_, until_;
  bool once_;
};

// A frame-close watch 50 ms away is a timed wait, like a distant
// release: the process burns almost no CPU until it, and the worker
// starts watching no earlier than its wake margin before the close. The
// frame closes as soon as it is watched, so a late wake still watches it
// and the watch itself costs no CPU to speak of.
TEST(Machine, DistantFrameCloseBurnsNoCpu) {
  constexpr double kLead = 0.05;
  rt::Machine machine(1);
  const double from = machine.now() + kLead;
  CloseProbe p(machine, from, std::numeric_limits<double>::infinity(),
               /*once=*/true);
  machine.attach(&p, {0});
  rt::ReadyNode kick;
  const double cpu0 = process_cpu_seconds();
  p.push(kick, 0);  // the worker asks for the window when it next parks
  ASSERT_TRUE(wait_for([&] { return p.watch_at.load() >= 0.0; }));
  const double cpu = process_cpu_seconds() - cpu0;
  EXPECT_GE(p.watch_at.load(), from - rt::WakeMargin::kMaxSeconds);
  EXPECT_LT(cpu, 0.1 * kLead) << "CPU seconds over a " << kLead
                              << " s wait for a frame close";
  p.quiesce();
  machine.detach(&p);
}

// A worker watching a frame close runs the nodes other threads queue on
// its core. Each trial opens a 20 ms window at once, waits until the
// worker watches it, and pushes a node. The watching worker is no
// sleeper, so the push sends no notify: only its own pops can find the
// node before the window ends. A trial counts when the worker watched
// and the push landed in the first half of the window; a preempted
// worker can still lose one, so most counted trials, not all, must run
// the node inside the window. ThreadSanitizer slows the poll: there the
// trials still race pushes against it, but their timing is not checked.
TEST(Machine, QueuedWorkRunsInsideAFrameCloseWindow) {
  if (usable_cpus() < 2)
    GTEST_SKIP() << "needs a CPU for the pushing thread beside the worker";
  constexpr int kTrials = 16;
  constexpr double kWindow = 0.02;
  int counted = 0, inside = 0;
  const int attempts = kThreadSanitizer ? kTrials : 20 * kTrials;
  for (int attempt = 0; attempt < attempts && counted < kTrials; ++attempt) {
    rt::Machine machine(1);
    const double until = machine.now() + kWindow;
    CloseProbe p(machine, machine.now(), until);
    machine.attach(&p, {0});
    rt::ReadyNode kick, work;
    p.push(kick, 0);
    ASSERT_TRUE(spin_until(
        [&] { return p.watch_at.load() >= 0.0 || machine.now() >= until; }));
    p.push(work, 1);
    const bool in_time =
        p.watch_at.load() >= 0.0 && machine.now() < until - kWindow / 2;
    ASSERT_TRUE(wait_for([&] { return p.ran_at.load() >= 0.0; }))
        << "attempt " << attempt;
    if (in_time) {
      ++counted;
      if (p.ran_at.load() < until) ++inside;
    }
    p.quiesce();
    machine.detach(&p);
  }
  if (kThreadSanitizer) return;
  ASSERT_EQ(counted, kTrials) << "too few pushes landed inside the window";
  EXPECT_GE(inside, kTrials * 3 / 4) << inside << " of " << kTrials
                                     << " nodes ran inside the window";
}

// The wake margin starts bounded, follows the observed lateness, and
// caps an outlier (a preempted wake).
TEST(Machine, WakeMarginFollowsLatenessAndClampsOutliers) {
  rt::WakeMargin m;
  EXPECT_GT(m.seconds(), 0.0);
  EXPECT_LE(m.seconds(), rt::WakeMargin::kMaxSeconds);
  for (int i = 0; i < 200; ++i) m.observe(6e-6);
  EXPECT_NEAR(m.seconds(), 6e-6, 1e-9);
  m.observe(0.02);
  EXPECT_LE(m.seconds(), 6e-6 + rt::WakeMargin::kMaxSeconds / 8 + 1e-12);
  for (int i = 0; i < 200; ++i) m.observe(0.02);
  EXPECT_LE(m.seconds(), rt::WakeMargin::kMaxSeconds);
  for (int i = 0; i < 200; ++i) m.observe(-1e-3);
  EXPECT_GE(m.seconds(), 0.0);
  EXPECT_LT(m.seconds(), 1e-9);
}

// An overloaded paced run that sheds (as in
// Degradation.OverloadedPacedRunShedsWholeFrames), on a pool that outlives
// it: a shed frame never closes at a sink, and must not keep a worker
// watching for it. The run completes, sheds whole frames, keeps the
// surviving outputs exact, and leaves the pool idle after finish().
TEST(Runtime, PacedCloseWatchSkipsShedFrames) {
  const Size2 frame{10, 8};
  const int frames = 6;
  CompiledApp app = compile(apps::sobel_app(frame, 200.0, frames, 100.0));
  rt::Machine machine(2);
  Mapping mapping = app.mapping;
  mapping.cores = machine.cores();
  for (int& c : mapping.core_of) c %= machine.cores();

  fault::DegradationPolicy pol;
  pol.shed = true;
  pol.rate_hz = 1e6;  // 1 us period: every post-anchor frame misses
  pol.max_pending_sheds = 1;
  pol.cooldown_frames = 1;
  fault::DegradationController ctrl(pol);
  RuntimeOptions opt;
  opt.pace_inputs = true;
  opt.degradation = &ctrl;
  GraphProgram p(app.graph, mapping, opt, machine);
  p.start();
  ASSERT_TRUE(wait_for([&] { return p.done() || p.failed(); }));
  const RuntimeResult r = p.finish();
  ASSERT_TRUE(r.completed) << r.error;

  constexpr double kIdle = 0.05;
  const double cpu0 = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::duration<double>(kIdle));
  const double cpu = process_cpu_seconds() - cpu0;
  EXPECT_LT(cpu, 0.1 * kIdle) << "CPU seconds over an idle " << kIdle
                              << " s after the run";

  EXPECT_GE(r.frames_shed, 1) << "overloaded run never shed";
  const std::vector<std::int64_t> shed = ctrl.shed_frames();
  const auto& res =
      dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
  ASSERT_EQ(res.frames().size(), static_cast<size_t>(frames) - shed.size());
  size_t out_idx = 0;
  for (int f = 0; f < frames; ++f) {
    if (std::find(shed.begin(), shed.end(), f) != shed.end()) continue;
    const Tile sob = ref::sobel(ref::make_frame(frame, f, default_pixel_fn()));
    for (int y = 0; y < sob.height(); ++y)
      for (int x = 0; x < sob.width(); ++x)
        ASSERT_EQ(res.frames()[out_idx].at(x, y),
                  sob.at(x, y) > 100.0 ? 1.0 : 0.0)
            << "source frame " << f << " at (" << x << ',' << y << ')';
    ++out_idx;
  }
  EXPECT_EQ(ctrl.frames_completed() + ctrl.frames_shed(), frames);
}

}  // namespace
}  // namespace bpp
