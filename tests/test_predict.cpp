// Differential tests for the compositional performance predictor
// (src/predict): on deterministic graphs whose machine parameters are
// dyadic rationals (power-of-two clock, quarter-cycle word costs) every
// simulator event time is an exact double, so the predicted steady-state
// period and per-core per-frame busy cycles are asserted bit-identical
// (==) to the simulator — not within a tolerance. The per-frame demand is
// isolated by differencing two runs (F and F+1 frames), which cancels
// warmup and end-of-stream costs exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "apps/pipelines.h"
#include "apps/random_chain.h"
#include "compiler/pipeline.h"
#include "compiler/report.h"
#include "kernels/feedback.h"
#include "kernels/kernels.h"
#include "obs/deadline.h"
#include "obs/frames.h"
#include "obs/recorder.h"
#include "predict/cost_table.h"
#include "predict/predict.h"
#include "predict/report.h"
#include "runtime/runtime.h"
#include "service/admission.h"
#include "sim/simulator.h"
#include "tools/cli.h"

namespace bpp {
namespace {

/// Dyadic machine: every per-firing cycle count is a multiple of 1/4 and
/// the clock is a power of two, so cycles/clock divisions are exact in
/// IEEE double arithmetic.
MachineSpec dyadic_machine(double clock_hz = 16777216.0 /* 2^24 */) {
  MachineSpec m;
  m.clock_hz = clock_hz;
  m.read_cost = 0.25;
  m.write_cost = 0.25;
  m.context_switch = 2.0;
  return m;
}

enum class StageKind { Sobel, Median3, Scale, Threshold, Down2 };

/// input -> [stages...] -> result, as the compiler sees user graphs. The
/// stage set is restricted to kernels with static cycle counts and no
/// parameter inputs, so the whole chain is exactly analyzable.
Graph make_chain(Size2 frame, double rate, int frames,
                 const std::vector<StageKind>& stages) {
  Graph g;
  Kernel* prev = &g.add<InputKernel>("input", frame, rate, frames);
  int idx = 0;
  for (StageKind s : stages) {
    const std::string n = "stage" + std::to_string(idx++);
    Kernel* k = nullptr;
    switch (s) {
      case StageKind::Sobel:
        k = &g.add<SobelKernel>(n);
        break;
      case StageKind::Median3:
        k = &g.add<MedianKernel>(n, 3, 3);
        break;
      case StageKind::Scale:
        k = &g.add_kernel(make_scale(n, 0.5, 8.0));
        break;
      case StageKind::Threshold:
        k = &g.add_kernel(make_threshold(n, 96.0));
        break;
      case StageKind::Down2:
        k = &g.add<DownsampleKernel>(n, 2);
        break;
    }
    g.connect(*prev, "out", *k, "in");
    prev = k;
  }
  auto& out = g.add<OutputKernel>("result");
  g.connect(*prev, "out", out, "in");
  return g;
}

CompiledApp compile_chain(Size2 frame, double rate, int frames,
                          const std::vector<StageKind>& stages,
                          const MachineSpec& m, bool multiplex = true,
                          bool parallelize = true) {
  CompileOptions opt;
  opt.machine = m;
  opt.multiplex = multiplex;
  opt.parallelize = parallelize;
  return compile(make_chain(frame, rate, frames, stages), opt);
}

SimResult simulate_app(CompiledApp& app) {
  SimOptions so;
  so.machine = app.options.machine;
  return simulate(app.graph, app.mapping, so);
}

/// The core bit-exactness harness: per-core busy cycles and firings of
/// exactly one steady-state frame, isolated by differencing an F-frame and
/// an (F+1)-frame run of the same compiled app, must equal the predicted
/// per-frame numbers with no tolerance at all.
void expect_exact_frame_delta(Size2 frame, double rate, int frames,
                              const std::vector<StageKind>& stages,
                              const MachineSpec& m, bool multiplex = true,
                              bool parallelize = true) {
  CompiledApp base = compile_chain(frame, rate, frames, stages, m, multiplex,
                                   parallelize);
  CompiledApp more = compile_chain(frame, rate, frames + 1, stages, m,
                                   multiplex, parallelize);
  const predict::Prediction pred = predict::predict(base);
  SCOPED_TRACE("exact=" + std::to_string(pred.exact));

  SimResult a = simulate_app(base);
  SimResult b = simulate_app(more);
  ASSERT_TRUE(a.completed) << a.diagnostics;
  ASSERT_TRUE(b.completed) << b.diagnostics;

  ASSERT_TRUE(pred.exact);
  ASSERT_EQ(pred.cores.size(), a.cores.size());
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (size_t c = 0; c < a.cores.size(); ++c) {
    SCOPED_TRACE("core " + std::to_string(c));
    const double delta = b.cores[c].busy_cycles() - a.cores[c].busy_cycles();
    EXPECT_EQ(pred.cores[c].busy_cycles_per_frame, delta);
    double predicted_firings = 0.0;
    for (const auto& kp : pred.kernels)
      if (!kp.is_source &&
          base.mapping.core_of[static_cast<size_t>(kp.kernel)] ==
              static_cast<int>(c))
        predicted_firings += kp.firings;
    EXPECT_EQ(std::lround(predicted_firings),
              b.cores[c].firings - a.cores[c].firings);
  }

  // The steady sink cadence must match bit for bit as well. The last
  // completion also absorbs the end-of-stream tail (EOS forwards interleave
  // with the final frame on multiplexed cores), so the steady window is
  // every consecutive delta except the final one.
  const std::vector<double>* t = b.frame_times();
  ASSERT_NE(t, nullptr);
  ASSERT_GE(t->size(), 3u);
  for (size_t i = 1; i + 1 < t->size(); ++i) {
    SCOPED_TRACE("frame delta " + std::to_string(i));
    EXPECT_EQ(pred.steady_period_seconds, (*t)[i] - (*t)[i - 1]);
  }
  // The averaged measure (which includes that tail) still agrees to within
  // a vanishing relative error.
  EXPECT_NEAR(b.steady_frame_period(), pred.steady_period_seconds,
              1e-4 * pred.steady_period_seconds);
}

TEST(PredictExact, SingleSobelChainFrameDelta) {
  expect_exact_frame_delta({16, 16}, 64.0, 3, {StageKind::Sobel},
                           dyadic_machine());
}

TEST(PredictExact, PointwiseChainFrameDelta) {
  expect_exact_frame_delta({16, 8}, 32.0, 3,
                           {StageKind::Scale, StageKind::Threshold},
                           dyadic_machine());
}

TEST(PredictExact, MixedChainFrameDelta) {
  expect_exact_frame_delta({32, 16}, 16.0, 3,
                           {StageKind::Median3, StageKind::Down2,
                            StageKind::Sobel},
                           dyadic_machine());
}

TEST(PredictExact, OneToOneMappingFrameDelta) {
  expect_exact_frame_delta({16, 16}, 64.0, 3, {StageKind::Sobel},
                           dyadic_machine(), /*multiplex=*/false);
}

TEST(PredictExact, OverloadedChainPacesAtBottleneck) {
  // A clock slow enough that the pipeline cannot hold the input rate, with
  // parallelization disabled so the compiled graph stays exactly
  // analyzable. The predicted (stretched) period must match the steady
  // completion cadence bit for bit, and the verdict must flip.
  const MachineSpec m = dyadic_machine(524288.0 /* 2^19 */);
  CompiledApp app = compile_chain({16, 16}, 64.0, 6,
                                  {StageKind::Median3, StageKind::Sobel}, m,
                                  /*multiplex=*/true, /*parallelize=*/false);
  const predict::Prediction pred = predict::predict(app);
  ASSERT_TRUE(pred.exact);
  ASSERT_GT(pred.bottleneck_utilization, 1.0);
  EXPECT_FALSE(pred.meets_realtime);
  EXPECT_GT(pred.steady_period_seconds, pred.input_period_seconds);

  SimResult r = simulate_app(app);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  const std::vector<double>* t = r.frame_times();
  ASSERT_NE(t, nullptr);
  ASSERT_GE(t->size(), 4u);
  // Skip the first delta (warmup backlog forming) and the last (EOS tail).
  for (size_t i = 2; i + 1 < t->size(); ++i) {
    SCOPED_TRACE("frame delta " + std::to_string(i));
    EXPECT_EQ(pred.steady_period_seconds, (*t)[i] - (*t)[i - 1]);
  }
}

// ---------------------------------------------------------------------------
// Composition rules: the per-kernel arithmetic the predictor is built on.

TEST(PredictComposition, BusyCyclesComposeFromParts) {
  // busy = context_switch * firings + read/write word costs + run cycles,
  // for every non-source kernel — the machine model applied termwise.
  CompiledApp app = compile_chain({16, 16}, 64.0, 3,
                                  {StageKind::Median3, StageKind::Sobel},
                                  dyadic_machine());
  const predict::Prediction pred = predict::predict(app);
  ASSERT_TRUE(pred.exact);
  int checked = 0;
  for (const auto& kp : pred.kernels) {
    if (kp.is_source) continue;
    EXPECT_DOUBLE_EQ(kp.busy_cycles,
                     2.0 * kp.firings + 0.25 * (kp.read_words + kp.write_words) +
                         kp.run_cycles)
        << kp.name;
    ++checked;
  }
  EXPECT_GE(checked, 4);  // 2 stages + at least 1 buffer + sink
}

TEST(PredictComposition, TokenForwardsOnlyOnForwardingKernels) {
  // Compute kernels have no token methods, so the LoadMap must price
  // their end-of-line/end-of-frame forwards; buffers and sinks consume
  // tokens in real methods and must show none. The predictor reads the
  // forwards from the LoadMap.
  CompiledApp app = compile_chain({16, 16}, 64.0, 3, {StageKind::Sobel},
                                  dyadic_machine());
  const predict::Prediction pred = predict::predict(app);
  ASSERT_TRUE(pred.exact);
  for (const auto& kp : pred.kernels) {
    if (kp.is_source) continue;
    EXPECT_EQ(kp.forwards,
              app.loads.of(kp.kernel).forwards_per_second / kp.rate_hz)
        << kp.name;
    if (kp.name.rfind("stage", 0) == 0) {
      EXPECT_GT(kp.forwards, 0.0) << kp.name;
      // Each forward is one extra firing with a 2-cycle FSM step.
      EXPECT_GT(kp.firings, kp.forwards) << kp.name;
    } else {
      EXPECT_EQ(kp.forwards, 0.0) << kp.name;
    }
  }
}

TEST(PredictComposition, FanoutWritesChargePerChannel) {
  // The analysis prices writes per port; the engines charge per out-CHANNEL.
  // A producer feeding two consumers must be billed twice.
  auto build = [](int consumers) {
    Graph g;
    auto& in = g.add<InputKernel>("input", Size2{16, 8}, 32.0, 3);
    Kernel& scale = g.add_kernel(make_scale("fanned", 0.5, 8.0));
    g.connect(in, "out", scale, "in");
    for (int i = 0; i < consumers; ++i) {
      const std::string n = std::to_string(i);
      Kernel& thr = g.add_kernel(make_threshold("thr" + n, 96.0));
      auto& out = g.add<OutputKernel>("result" + n);
      g.connect(scale, "out", thr, "in");
      g.connect(thr, "out", out, "in");
    }
    CompileOptions opt;
    opt.machine = dyadic_machine();
    return compile(std::move(g), opt);
  };
  CompiledApp one = build(1);
  CompiledApp two = build(2);
  const predict::Prediction p1 = predict::predict(one);
  const predict::Prediction p2 = predict::predict(two);
  ASSERT_TRUE(p1.exact);
  ASSERT_TRUE(p2.exact);
  auto writes_of = [](const predict::Prediction& p, const std::string& name) {
    for (const auto& kp : p.kernels)
      if (kp.name == name) return kp.write_words;
    ADD_FAILURE() << name << " not predicted";
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(writes_of(p2, "fanned"), 2.0 * writes_of(p1, "fanned"));
}

TEST(PredictComposition, SourcesAreFree) {
  // Sources model the sensor: scheduled off-core, zero demand, excluded
  // from the bottleneck.
  CompiledApp app = compile_chain({16, 16}, 64.0, 3, {StageKind::Sobel},
                                  dyadic_machine());
  const predict::Prediction pred = predict::predict(app);
  bool saw_source = false;
  for (const auto& kp : pred.kernels)
    if (kp.is_source) {
      saw_source = true;
      EXPECT_EQ(kp.busy_cycles, 0.0) << kp.name;
      EXPECT_EQ(kp.utilization, 0.0) << kp.name;
    }
  EXPECT_TRUE(saw_source);
  for (const auto& cp : pred.cores)
    if (cp.source_only) {
      EXPECT_NE(cp.core, pred.bottleneck_core);
    }
}

// ---------------------------------------------------------------------------
// Calibration: the microbench cost table.

TEST(PredictCostTable, LongestContainedKeyWins) {
  predict::CostTable t;
  t.set("conv", 10.0);
  t.set("conv2d_3x3", 20.0);
  EXPECT_DOUBLE_EQ(t.cycles_for("blur_conv2d_3x3_1"), 20.0);
  EXPECT_DOUBLE_EQ(t.cycles_for("deconv_stage"), 10.0);
  EXPECT_LT(t.cycles_for("median_3x3"), 0.0);
  EXPECT_EQ(t.size(), 2u);
}

TEST(PredictCostTable, ParseBenchCostsFiltersIsaAndScalesUnits) {
  const std::string json = R"({"benchmarks": [
    {"name": "sobel/scalar", "real_time": 1000.0, "time_unit": "ns"},
    {"name": "sobel/avx2", "real_time": 250.0, "time_unit": "ns"},
    {"name": "median_3x3/scalar", "real_time": 2.0, "time_unit": "us"},
    {"name": "noslash", "real_time": 5.0, "time_unit": "ns"}
  ]})";
  const predict::CostTable t = predict::parse_bench_costs(json, "scalar", 1e9);
  EXPECT_EQ(t.size(), 2u);  // avx2 entry and the slashless name skipped
  EXPECT_DOUBLE_EQ(t.cycles_for("sobel"), 1000.0);     // 1000ns at 1GHz
  EXPECT_DOUBLE_EQ(t.cycles_for("median_3x3"), 2000.0);  // 2us at 1GHz
  const predict::CostTable v = predict::parse_bench_costs(json, "avx2", 1e9);
  EXPECT_DOUBLE_EQ(v.cycles_for("sobel"), 250.0);
}

TEST(PredictCostTable, ParseBenchCostsThrowsOnMalformedJson) {
  EXPECT_THROW(predict::parse_bench_costs("not json at all", "scalar", 1e6),
               Error);
}

TEST(PredictCostTable, CalibrationOverridesMatchingKernelsOnly) {
  CompiledApp app = compile_chain({16, 16}, 64.0, 3, {StageKind::Sobel},
                                  dyadic_machine());
  const predict::Prediction plain = predict::predict(app);
  predict::PredictOptions opt;
  opt.costs.set("stage", 1.0e6);  // absurdly expensive measured cost
  const predict::Prediction cal = predict::predict(app, opt);
  for (size_t i = 0; i < cal.kernels.size(); ++i) {
    const auto& kp = cal.kernels[i];
    // Containment matching: "stage" also hits the inserted
    // "buffer_stage0_in", exactly as a family key is meant to.
    if (kp.name.find("stage") != std::string::npos) {
      EXPECT_TRUE(kp.calibrated) << kp.name;
      EXPECT_GT(kp.utilization, plain.kernels[i].utilization) << kp.name;
    } else {
      EXPECT_FALSE(kp.calibrated) << kp.name;
      EXPECT_DOUBLE_EQ(kp.busy_cycles, plain.kernels[i].busy_cycles)
          << kp.name;
    }
  }
  EXPECT_GT(cal.bottleneck_utilization, plain.bottleneck_utilization);
}

// ---------------------------------------------------------------------------
// Deadline verdicts.

TEST(PredictVerdict, UnderloadedMeetsExactlyItsPeriod) {
  CompiledApp app = compile_chain({16, 16}, 64.0, 3, {StageKind::Scale},
                                  dyadic_machine());
  const predict::Prediction pred = predict::predict(app);
  ASSERT_LE(pred.bottleneck_utilization, 1.0);
  EXPECT_TRUE(pred.meets_realtime);
  EXPECT_EQ(pred.steady_period_seconds, pred.input_period_seconds);
  EXPECT_GT(pred.critical_path_seconds, pred.input_period_seconds);
}

// ---------------------------------------------------------------------------
// One demand model: the admission ledger and the predictor both price the
// LoadMap, so their per-core utilizations are the same numbers.

TEST(PredictOneModel, LedgerEqualsPredictorPerCoreAcrossApps) {
  const char* names[] = {"fig1", "bayer", "histogram", "parallel-buffer",
                         "multi-conv", "pipeline", "sobel", "downsample",
                         "separable", "motion", "feedback", "radio",
                         "analytics"};
  const struct {
    Size2 frame;
    double rate;
  } configs[] = {{{48, 36}, 180.0}, {{64, 48}, 150.0}};
  for (const char* name : names)
    for (const auto& c : configs) {
      SCOPED_TRACE(std::string(name) + " " + std::to_string(c.frame.w) +
                   "x" + std::to_string(c.frame.h));
      CompiledApp app = compile(apps::named_app(name, c.frame, c.rate, 2));
      const std::vector<double> ledger = service::vcore_utilization(
          app.graph, app.loads, app.mapping, app.options.machine);
      const predict::Prediction pred = predict::predict(app);
      EXPECT_GT(pred.steady_period_seconds, 0.0);
      ASSERT_EQ(pred.cores.size(), ledger.size());
      for (size_t k = 0; k < ledger.size(); ++k)
        EXPECT_NEAR(pred.cores[k].utilization, ledger[k], 1e-12)
            << "core " << k;
    }
}

// ---------------------------------------------------------------------------
// The shared table formatter and the prediction report.

TEST(PredictReport, TextTableAlignsDeclaredColumns) {
  TextTable t;
  t.column("name", TextTable::Align::Left);
  t.column("value");
  t.row({"a", "1.5"});
  t.row({"longer", "10.25"});
  std::ostringstream os;
  t.write(os);
  EXPECT_EQ(os.str(),
            "  name    value\n"
            "  a         1.5\n"
            "  longer  10.25\n");
}

TEST(PredictReport, TextTableRejectsRowsWiderThanHeader) {
  TextTable t;
  t.column("only");
  EXPECT_THROW(t.row({"a", "b"}), Error);
  TextTable untyped;
  EXPECT_THROW(untyped.row({"cell"}), Error);  // rows before columns
}

TEST(PredictReport, ComparisonRendersAbsentMeasurementsAsDash) {
  const double nan = std::nan("");
  const std::string s = comparison_string(
      {{"steady period (us)", 125.0, 125.0, nan, 2},
       {"avg utilization (%)", 42.5, nan, nan, 1}});
  EXPECT_NE(s.find("steady period (us)"), std::string::npos);
  EXPECT_NE(s.find("125.00"), std::string::npos);
  EXPECT_NE(s.find("42.5"), std::string::npos);
  EXPECT_NE(s.find('-'), std::string::npos);
  EXPECT_EQ(s.find("nan"), std::string::npos);
}

TEST(PredictReport, PredictionStringStatesTheVerdict) {
  CompiledApp app = compile_chain({16, 16}, 64.0, 3, {StageKind::Sobel},
                                  dyadic_machine());
  const std::string s =
      predict::prediction_string(predict::predict(app));
  EXPECT_NE(s.find("performance prediction"), std::string::npos);
  EXPECT_NE(s.find("exact composition"), std::string::npos);
  EXPECT_NE(s.find("bottleneck"), std::string::npos);
  EXPECT_NE(s.find("verdict: meets real time"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The Fig. 13 benchmark suite: predictor vs simulator within the
// documented tolerance (DESIGN.md §7) on every paper benchmark.

/// Stated accuracy bound vs the simulator on the benchmark suite; the
/// CI accuracy gate uses the same number.
constexpr double kSimTolerance = 0.005;

struct SuiteCase {
  const char* name;
  Graph (*build)();
};

Graph suite_bayer() { return apps::bayer_app({64, 48}, 150.0, 4); }
Graph suite_bayer_fast() { return apps::bayer_app({64, 48}, 450.0, 4); }
Graph suite_hist() { return apps::histogram_app({64, 48}, 150.0, 4, 32); }
Graph suite_hist_fast() { return apps::histogram_app({64, 48}, 450.0, 4, 32); }
Graph suite_parbuf() { return apps::parallel_buffer_app({64, 24}, 90.0, 4); }
Graph suite_mconv() { return apps::multi_convolution_app({48, 36}, 150.0, 4); }
Graph suite_fig11_ss() { return apps::figure1_app({48, 36}, 180.0, 4, 64); }
Graph suite_fig11_sf() { return apps::figure1_app({48, 36}, 420.0, 4, 64); }
Graph suite_fig11_bs() { return apps::figure1_app({96, 72}, 60.0, 4, 64); }
Graph suite_fig11_bf() { return apps::figure1_app({96, 72}, 130.0, 4, 64); }
Graph suite_fig1b() { return apps::figure1_app({64, 48}, 150.0, 4, 64); }

const SuiteCase kFig13Suite[] = {
    {"bayer", suite_bayer},         {"bayer_fast", suite_bayer_fast},
    {"histogram", suite_hist},      {"histogram_fast", suite_hist_fast},
    {"parallel_buffer", suite_parbuf}, {"multi_conv", suite_mconv},
    {"fig11_SS", suite_fig11_ss},   {"fig11_SF", suite_fig11_sf},
    {"fig11_BS", suite_fig11_bs},   {"fig11_BF", suite_fig11_bf},
    {"fig1b", suite_fig1b},
};

// Names each case by its suite name; gtest would otherwise print the
// pointers' bytes, which change with every run.
void PrintTo(const SuiteCase& c, std::ostream* os) { *os << c.name; }

class Fig13Predict : public ::testing::TestWithParam<SuiteCase> {};

TEST_P(Fig13Predict, PeriodWithinDocumentedToleranceOfSimulator) {
  CompiledApp app = compile(GetParam().build());
  const predict::Prediction pred = predict::predict(app);
  SimResult r = simulate_app(app);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  const double sim = r.steady_frame_period();
  ASSERT_GT(sim, 0.0);
  EXPECT_NEAR(pred.steady_period_seconds, sim, kSimTolerance * sim);
  // The suite runs under the greedy mapping's utilization budget, so the
  // predictor must conclude the schedule closes. (The simulator's own
  // realtime_met flag is stricter — it also trips on transient warmup
  // input lag — so it is not asserted here.)
  EXPECT_TRUE(pred.meets_realtime);
}

INSTANTIATE_TEST_SUITE_P(Suite, Fig13Predict, ::testing::ValuesIn(kFig13Suite));

// ---------------------------------------------------------------------------
// Differential property tests over the randomized-pipeline generator:
// every shape (windowed/trimmed chains, resampling, two-branch fan-out,
// feedback) must predict within the documented tolerance of the
// simulator, across seeds and machine pressures.

using apps::splitmix;

/// One random stage; windowed picks exercise trim alignment, Down2
/// exercises resampling.
Kernel* random_stage(Graph& g, std::uint64_t pick, int idx, Size2& left) {
  const std::string n = "stage" + std::to_string(idx);
  switch (pick % 7) {
    case 0: {
      auto& k = g.add<ConvolutionKernel>(n, 3, 3);
      g.connect(g.add<ConstSource>(n + "_c", apps::blur_coeff3x3()), "out", k,
                "coeff");
      left = {left.w - 2, left.h - 2};
      return &k;
    }
    case 1: {
      auto& k = g.add<ConvolutionKernel>(n, 5, 5);
      g.connect(g.add<ConstSource>(n + "_c", apps::blur_coeff5x5()), "out", k,
                "coeff");
      left = {left.w - 4, left.h - 4};
      return &k;
    }
    case 2:
      left = {left.w - 2, left.h - 2};
      return &g.add<MedianKernel>(n, 3, 3);
    case 3:
      left = {left.w - 2, left.h - 2};
      return &g.add<SobelKernel>(n);
    case 4:
      return &g.add_kernel(make_scale(n, 0.5, 8.0));
    case 5:
      return &g.add_kernel(make_threshold(n, 96.0));
    default:
      if (left.w % 2 || left.h % 2) return &g.add_kernel(make_scale(n, 1, 0));
      left = {left.w / 2, left.h / 2};
      return &g.add<DownsampleKernel>(n, 2);
  }
}

void expect_prediction_tracks_simulator(CompiledApp& app, int seed) {
  const predict::Prediction pred = predict::predict(app);
  SimResult r = simulate_app(app);
  ASSERT_TRUE(r.completed) << "seed " << seed << ": " << r.diagnostics;
  const double sim = r.steady_frame_period();
  ASSERT_GT(sim, 0.0) << "seed " << seed;
  EXPECT_NEAR(pred.steady_period_seconds, sim, kSimTolerance * sim)
      << "seed " << seed << " exact=" << pred.exact
      << " util=" << pred.bottleneck_utilization;
}

class RandomChainPredict : public ::testing::TestWithParam<int> {};

TEST_P(RandomChainPredict, PeriodAgreesWithSimulator) {
  const int seed = GetParam();
  std::uint64_t rng = 0xC0FFEE ^ (static_cast<std::uint64_t>(seed) << 20);
  const Size2 frame{static_cast<int>(24 + splitmix(rng) % 16),
                    static_cast<int>(20 + splitmix(rng) % 10)};
  const double rate = 50.0 + static_cast<double>(splitmix(rng) % 300);
  Graph g;
  Kernel* prev = &g.add<InputKernel>("input", frame, rate, 5);
  Size2 left = frame;
  const int n = 1 + static_cast<int>(splitmix(rng) % 4);
  for (int i = 0; i < n && left.w > 10 && left.h > 10; ++i) {
    Kernel* k = random_stage(g, splitmix(rng), i, left);
    g.connect(*prev, "out", *k, "in");
    prev = k;
  }
  auto& out = g.add<OutputKernel>("result");
  g.connect(*prev, "out", out, "in");
  CompileOptions opt;
  const std::uint64_t m = splitmix(rng);
  if (m & 1) opt.machine.clock_hz /= 2;  // vary the pressure
  if (m & 2) opt.reuse_opt = true;
  CompiledApp app = compile(std::move(g), opt);
  expect_prediction_tracks_simulator(app, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainPredict, ::testing::Range(0, 8));

class RandomFanoutPredict : public ::testing::TestWithParam<int> {};

TEST_P(RandomFanoutPredict, PeriodAgreesWithSimulator) {
  // input fans out to two windowed branches with different halos (the
  // alignment pass trims); a subtract joins them.
  const int seed = GetParam();
  std::uint64_t rng = 0xBEEF ^ (static_cast<std::uint64_t>(seed) << 18);
  const Size2 frame{static_cast<int>(26 + splitmix(rng) % 12),
                    static_cast<int>(24 + splitmix(rng) % 8)};
  Graph g;
  auto& in = g.add<InputKernel>("input", frame, 60.0, 5);
  Size2 l1 = frame, l2 = frame;
  Kernel* a = random_stage(g, splitmix(rng) % 4, 0, l1);
  Kernel* b = random_stage(g, splitmix(rng) % 4, 1, l2);
  Kernel& sub = g.add_kernel(make_subtract("diff"));
  auto& out = g.add<OutputKernel>("result");
  g.connect(in, "out", *a, "in");
  g.connect(in, "out", *b, "in");
  g.connect(*a, "out", sub, "in0");
  g.connect(*b, "out", sub, "in1");
  g.connect(sub, "out", out, "in");
  CompileOptions opt;
  if (splitmix(rng) & 1) opt.machine.clock_hz /= 2;
  CompiledApp app = compile(std::move(g), opt);
  expect_prediction_tracks_simulator(app, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFanoutPredict, ::testing::Range(0, 8));

class RandomFeedbackPredict : public ::testing::TestWithParam<int> {};

TEST_P(RandomFeedbackPredict, PeriodAgreesWithSimulator) {
  // y_t = alpha x_t + (1-alpha) y_{t-1} right after the source, then a
  // random suffix: the predictor must skip the back edge when walking
  // the critical path yet still price the loop kernels.
  const int seed = GetParam();
  std::uint64_t rng = 0xFEEDB ^ (static_cast<std::uint64_t>(seed) << 19);
  const Size2 frame{static_cast<int>(20 + splitmix(rng) % 12),
                    static_cast<int>(18 + splitmix(rng) % 8)};
  const double rate = 40.0 + static_cast<double>(splitmix(rng) % 100);
  Graph g;
  auto& input = g.add<InputKernel>("input", frame, rate, 5);
  auto& mix = g.add<TemporalMixKernel>("mix", 0.25);
  auto& init = g.add<InitialValueKernel>("loopInit", frame, rate, 0.0);
  g.connect(input, "out", mix, "x");
  g.connect(init, "out", mix, "prev");
  g.connect(mix, "out", init, "in");
  Kernel* prev = &mix;
  Size2 left = frame;
  const int n = 1 + static_cast<int>(splitmix(rng) % 3);
  for (int i = 0; i < n && left.w > 10 && left.h > 10; ++i) {
    Kernel* k = random_stage(g, splitmix(rng), i, left);
    g.connect(*prev, "out", *k, "in");
    prev = k;
  }
  auto& out = g.add<OutputKernel>("result");
  g.connect(*prev, "out", out, "in");
  CompileOptions opt;
  if (splitmix(rng) & 1) opt.machine.clock_hz /= 2;
  CompiledApp app = compile(std::move(g), opt);
  expect_prediction_tracks_simulator(app, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFeedbackPredict, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// No false misses: on a simulated run that holds its rate, DeadlineMonitor
// at zero slack reports no missed frame. Its one lateness tolerance (one
// input pixel period) absorbs the phase of each frame's last pixel, on the
// named apps, the Fig. 13 suite and random chains. Runs that really fall
// behind still miss.

/// Frames the monitor calls missed on a traced simulation of `app`, at
/// zero slack against the app's declared schedule, on a machine
/// `slowdown` times slower than the one it was compiled for.
long simulated_misses(const CompiledApp& app, double slowdown = 1.0) {
  Graph g = app.graph.clone();
  obs::Recorder rec;
  SimOptions so;
  so.machine = app.options.machine;
  so.machine.clock_hz /= slowdown;
  so.recorder = &rec;
  const SimResult r = simulate(g, app.mapping, so);
  EXPECT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(rec.trace().dropped_events, 0u);
  obs::DeadlineMonitor mon(declared_schedule(app, 1.0));
  mon.observe(obs::analyze_frames(rec.trace()));
  EXPECT_GT(mon.frames(), 0);
  return mon.misses();
}

/// A named app compiled as bpc compiles it by default.
CompiledApp compile_as_bpc(const char* name, double rate, int frames) {
  const cli::Args bpc;
  CompileOptions opt;
  opt.machine = bpc.machine;
  opt.align_policy = bpc.policy;
  opt.reuse_opt = bpc.reuse;
  opt.multiplex = bpc.multiplex;
  return compile(apps::named_app(name, bpc.frame, rate, frames, bpc.bins),
                 opt);
}

TEST(NoFalseMiss, NamedAppsAtBpcDefaults) {
  // motion is left out: its first frame skips the search and completes
  // early, so the anchored schedule runs ahead of the later frames.
  for (const char* name :
       {"fig1", "bayer", "histogram", "parallel-buffer", "multi-conv",
        "pipeline", "sobel", "downsample", "separable", "feedback", "radio",
        "analytics"})
    for (const int frames : {2, 4, 8}) {
      SCOPED_TRACE(std::string(name) + " x" + std::to_string(frames));
      EXPECT_EQ(simulated_misses(
                    compile_as_bpc(name, cli::Args{}.rate, frames)),
                0);
    }
}

TEST(NoFalseMiss, Fig13Suite) {
  for (const SuiteCase& c : kFig13Suite) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(simulated_misses(compile(c.build())), 0);
  }
}

TEST(NoFalseMiss, RandomChains) {
  for (int seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::uint64_t rng = 0xC0FFEE ^ (static_cast<std::uint64_t>(seed) << 20);
    const Size2 frame{static_cast<int>(20 + splitmix(rng) % 16),
                      static_cast<int>(18 + splitmix(rng) % 10)};
    const double rate = 50.0 + static_cast<double>(splitmix(rng) % 300);
    Size2 left = frame;
    const std::vector<apps::Stage> stages = apps::random_stages(rng, 4, left);
    Graph g;
    Kernel* prev = &g.add<InputKernel>("input", frame, rate, 4);
    for (size_t i = 0; i < stages.size(); ++i) {
      Kernel* k = stages[i].append(g, static_cast<int>(i));
      g.connect(*prev, "out", *k, "in");
      prev = k;
    }
    g.connect(*prev, "out", g.add<OutputKernel>("result"), "in");
    CompileOptions opt;
    if (splitmix(rng) & 1) opt.machine.clock_hz /= 2;  // vary the pressure
    EXPECT_EQ(simulated_misses(compile(std::move(g), opt)), 0);
  }
}

TEST(NoFalseMiss, RunsThatFallBehindStillMiss) {
  // motion at 180 Hz really drifts (predicted utilization 1.19).
  EXPECT_GE(simulated_misses(compile_as_bpc("motion", 180.0, 8)), 7);
  // fig1 compiled for its machine but run on one 50x slower.
  EXPECT_GE(simulated_misses(compile_as_bpc("fig1", 180.0, 4), 50.0), 1);
}

// ---------------------------------------------------------------------------
// The threaded host runtime: wall-clock cadence of a paced run must land
// within the (much looser — the host is not the model machine) documented
// runtime tolerance of the prediction.

TEST(PredictRuntime, PacedHostRunTracksPredictedPeriod) {
  // 25% runtime tolerance (DESIGN.md §7): scheduler jitter and the
  // recorder make host wall-clock cadence far noisier than the simulator.
  constexpr double kRunTolerance = 0.25;
  CompileOptions opt;
  CompiledApp app = compile(
      make_chain({24, 20}, 50.0, 6, {StageKind::Scale, StageKind::Sobel}),
      opt);
  const predict::Prediction pred = predict::predict(app);
  ASSERT_TRUE(pred.meets_realtime);  // 50 Hz is easy for the host
  obs::Recorder rec;
  RuntimeOptions ropt;
  ropt.pace_inputs = true;
  ropt.recorder = &rec;
  const RuntimeResult r = run_threaded(app.graph, app.mapping, ropt);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  const obs::FrameReport frames = obs::analyze_frames(rec.trace());
  ASSERT_GT(frames.period.count, 0);
  EXPECT_NEAR(frames.period.mean, pred.steady_period_seconds,
              kRunTolerance * pred.steady_period_seconds);
}

}  // namespace
}  // namespace bpp
