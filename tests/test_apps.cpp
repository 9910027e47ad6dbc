// Benchmark application builders: every Fig. 13 program compiles, runs,
// and matches its golden reference end to end.

#include <gtest/gtest.h>

#include "apps/pipelines.h"
#include "compiler/pipeline.h"
#include "kernels/kernels.h"
#include "ref/reference.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"

namespace bpp {
namespace {

const OutputKernel& result_of(const Graph& g) {
  return dynamic_cast<const OutputKernel&>(g.by_name("result"));
}

TEST(Apps, BayerMatchesReference) {
  const Size2 frame{16, 12};
  CompiledApp app = compile(apps::bayer_app(frame, 100.0, 2));
  ASSERT_TRUE(run_sequential(app.graph).completed);
  const auto& out = result_of(app.graph);
  ASSERT_EQ(out.frames().size(), 2u);
  for (int f = 0; f < 2; ++f) {
    const Tile mosaic = ref::make_frame(frame, f, default_pixel_fn());
    const Tile want = ref::bayer_demosaic(mosaic);
    ASSERT_EQ(out.frames()[static_cast<size_t>(f)].size(), want.size());
    for (int y = 0; y < want.height(); ++y)
      for (int x = 0; x < want.width(); ++x)
        EXPECT_NEAR(out.frames()[static_cast<size_t>(f)].at(x, y),
                    want.at(x, y), 1e-9)
            << f << ' ' << x << ' ' << y;
  }
}

TEST(Apps, HistogramMatchesReference) {
  const Size2 frame{20, 16};
  const int bins = 16;
  CompiledApp app = compile(apps::histogram_app(frame, 200.0, 2, bins));
  ASSERT_TRUE(run_sequential(app.graph).completed);
  const auto& out = result_of(app.graph);
  ASSERT_EQ(out.tiles().size(), 2u);
  std::vector<double> uppers(static_cast<size_t>(bins));
  for (int i = 0; i < bins; ++i)
    uppers[static_cast<size_t>(i)] = 256.0 * (i + 1) / bins;
  for (int f = 0; f < 2; ++f) {
    const Tile img = ref::make_frame(frame, f, default_pixel_fn());
    const auto want = ref::histogram(img, uppers);
    for (int i = 0; i < bins; ++i)
      EXPECT_EQ(static_cast<long>(out.tiles()[static_cast<size_t>(f)].at(i, 0)),
                want[static_cast<size_t>(i)]);
  }
}

TEST(Apps, MultiConvolutionMatchesReference) {
  const Size2 frame{24, 20};
  CompiledApp app = compile(apps::multi_convolution_app(frame, 60.0, 1));
  ASSERT_TRUE(run_sequential(app.graph).completed);
  const auto& out = result_of(app.graph);
  ASSERT_EQ(out.frames().size(), 1u);

  const Tile img = ref::make_frame(frame, 0, default_pixel_fn());
  const Tile s1 = ref::convolve(img, apps::blur_coeff3x3());
  const Tile s2 = ref::convolve(s1, apps::blur_coeff3x3());
  const Tile want = ref::convolve(s2, apps::blur_coeff5x5());
  ASSERT_EQ(out.frames()[0].size(), want.size());
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      EXPECT_NEAR(out.frames()[0].at(x, y), want.at(x, y), 1e-9);
}

TEST(Apps, SobelThresholdMatchesReference) {
  const Size2 frame{18, 14};
  const double level = 60.0;
  CompiledApp app = compile(apps::sobel_app(frame, 60.0, 1, level));
  ASSERT_TRUE(run_sequential(app.graph).completed);
  const auto& out = result_of(app.graph);
  ASSERT_EQ(out.frames().size(), 1u);

  const Tile img = ref::make_frame(frame, 0, default_pixel_fn());
  const Tile grad = ref::sobel(img);
  for (int y = 0; y < grad.height(); ++y)
    for (int x = 0; x < grad.width(); ++x)
      EXPECT_DOUBLE_EQ(out.frames()[0].at(x, y),
                       grad.at(x, y) > level ? 1.0 : 0.0);
}

TEST(Apps, DownsampleConvMatchesReference) {
  const Size2 frame{20, 16};
  CompiledApp app = compile(apps::downsample_app(frame, 60.0, 1));
  ASSERT_TRUE(run_sequential(app.graph).completed);
  const auto& out = result_of(app.graph);
  ASSERT_EQ(out.frames().size(), 1u);

  const Tile img = ref::make_frame(frame, 0, default_pixel_fn());
  const Tile want =
      ref::convolve(ref::downsample(img, 2), apps::blur_coeff3x3());
  ASSERT_EQ(out.frames()[0].size(), want.size());
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      EXPECT_NEAR(out.frames()[0].at(x, y), want.at(x, y), 1e-9);
}

TEST(Apps, ParallelBufferMatchesReference) {
  const Size2 frame{40, 20};
  CompiledApp app = compile(apps::parallel_buffer_app(frame, 40.0, 1));
  // Storage pressure must have split the 9x9 buffer on this machine.
  ASSERT_FALSE(app.parallelization.buffer_splits.empty());
  ASSERT_TRUE(run_sequential(app.graph).completed);

  const Tile img = ref::make_frame(frame, 0, default_pixel_fn());
  const Tile want = ref::convolve(img, Tile(Size2{9, 9}, 1.0 / 81.0));
  const auto& out = result_of(app.graph);
  ASSERT_EQ(out.frames().size(), 1u);
  ASSERT_EQ(out.frames()[0].size(), want.size());
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      EXPECT_NEAR(out.frames()[0].at(x, y), want.at(x, y), 1e-9);
}

struct TagCase {
  const char* tag;
};

// Names each case by its tag; gtest would otherwise print the pointer's
// bytes, which change with every run.
void PrintTo(const TagCase& c, std::ostream* os) { *os << c.tag; }

class Fig11Configs : public ::testing::TestWithParam<TagCase> {};

TEST_P(Fig11Configs, CompileRunMatchReference) {
  const std::string tag = GetParam().tag;
  for (const auto& cfg : apps::fig11_configs()) {
    if (tag != cfg.tag) continue;
    const int bins = 64;
    CompiledApp app = compile(apps::figure1_app(cfg.frame, cfg.rate_hz, 1, bins));
    ASSERT_TRUE(run_sequential(app.graph).completed);
    const Tile img = ref::make_frame(cfg.frame, 0, default_pixel_fn());
    const auto want = ref::figure1_histogram(img, apps::blur_coeff5x5(),
                                             apps::diff_bins(bins));
    const auto& out = result_of(app.graph);
    ASSERT_EQ(out.tiles().size(), 1u);
    for (int i = 0; i < bins; ++i)
      EXPECT_EQ(static_cast<long>(out.tiles()[0].at(i, 0)),
                want[static_cast<size_t>(i)])
          << tag << " bin " << i;
    return;
  }
  FAIL() << "unknown tag " << tag;
}

INSTANTIATE_TEST_SUITE_P(AllFour, Fig11Configs,
                         ::testing::Values(TagCase{"SS"}, TagCase{"BS"},
                                           TagCase{"SF"}, TagCase{"BF"}));

TEST(Apps, Fig11ShapesFollowThePaper) {
  // Fig. 11's qualitative claims: faster rates replicate the computation
  // kernels more; bigger inputs split the buffers.
  std::map<std::string, CompiledApp> apps_by_tag;
  for (const auto& cfg : apps::fig11_configs())
    apps_by_tag.emplace(cfg.tag,
                        compile(apps::figure1_app(cfg.frame, cfg.rate_hz, 1, 64)));

  auto factor = [&](const char* tag, const char* kernel) {
    const auto& f = apps_by_tag.at(tag).parallelization.factors;
    auto it = f.find(kernel);
    return it == f.end() ? 1 : it->second;
  };

  EXPECT_GT(factor("SF", "conv5x5"), factor("SS", "conv5x5"));
  EXPECT_GT(factor("BF", "conv5x5"), factor("BS", "conv5x5"));
  EXPECT_GE(factor("SF", "median3x3"), factor("SS", "median3x3"));
  EXPECT_GT(factor("SF", "histogram"), 1);
  EXPECT_GT(factor("BF", "histogram"), 1);

  EXPECT_FALSE(apps_by_tag.at("BS").parallelization.buffer_splits.empty());
  EXPECT_FALSE(apps_by_tag.at("BF").parallelization.buffer_splits.empty());
}


TEST(Apps, SeparableBlurEqualsFull2D) {
  // (5x1) then (1x5) binomial convolution equals the full 5x5 filter —
  // non-square windows through buffering, alignment, and parallelization.
  const Size2 frame{24, 20};
  CompiledApp app = compile(apps::separable_blur_app(frame, 150.0, 1));
  ASSERT_TRUE(run_sequential(app.graph).completed);
  const auto& out = result_of(app.graph);
  ASSERT_EQ(out.frames().size(), 1u);

  const Tile img = ref::make_frame(frame, 0, default_pixel_fn());
  const Tile want = ref::convolve(img, apps::blur_coeff5x5());
  ASSERT_EQ(out.frames()[0].size(), want.size());
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      EXPECT_NEAR(out.frames()[0].at(x, y), want.at(x, y), 1e-9);
}

TEST(Apps, SeparableBlurBuffersAreOneDimensional) {
  CompiledApp app = compile(apps::separable_blur_app({24, 20}, 150.0, 1));
  // The horizontal stage needs no row buffering (5x1 window -> [Wx2]);
  // the vertical stage needs 2x5 rows.
  bool horiz = false, vert = false;
  for (const auto& b : app.buffers) {
    if (b.consumer.rfind("blurH", 0) == 0) {
      EXPECT_EQ(b.annotation, "[24x2]");
      horiz = true;
    }
    if (b.consumer.rfind("blurV", 0) == 0) {
      EXPECT_EQ(b.annotation, "[20x10]");
      vert = true;
    }
  }
  EXPECT_TRUE(horiz);
  EXPECT_TRUE(vert);
}


TEST(Apps, AnalyticsFlagshipMatchesComposedReference) {
  // The full composition: temporal IIR -> separable blur -> {edge branch
  // (sobel, threshold, dilate), histogram branch (serial merge)}.
  const Size2 frame{24, 20};
  const int frames = 3, bins = 16;
  const double alpha = 0.4, level = 120.0;
  CompiledApp app = compile(apps::analytics_app(frame, 100.0, frames, alpha,
                                                level, bins));
  ASSERT_TRUE(run_sequential(app.graph).completed);

  const auto& edges = dynamic_cast<const OutputKernel&>(app.graph.by_name("edges"));
  const auto& stats = dynamic_cast<const OutputKernel&>(app.graph.by_name("stats"));
  ASSERT_EQ(edges.frames().size(), static_cast<size_t>(frames));
  ASSERT_EQ(stats.tiles().size(), static_cast<size_t>(frames));

  std::vector<double> uppers(static_cast<size_t>(bins));
  for (int i = 0; i < bins; ++i)
    uppers[static_cast<size_t>(i)] = 256.0 * (i + 1) / bins;

  Tile prev(frame);
  for (int f = 0; f < frames; ++f) {
    const Tile x = ref::make_frame(frame, f, default_pixel_fn());
    Tile y(frame);
    for (int j = 0; j < frame.h; ++j)
      for (int i = 0; i < frame.w; ++i)
        y.at(i, j) = alpha * x.at(i, j) + (1 - alpha) * prev.at(i, j);
    prev = y;

    const Tile blurred = ref::convolve(y, apps::blur_coeff5x5());
    // Edge branch.
    Tile grad = ref::sobel(blurred);
    for (int j = 0; j < grad.height(); ++j)
      for (int i = 0; i < grad.width(); ++i)
        grad.at(i, j) = grad.at(i, j) > level ? 1.0 : 0.0;
    const Tile cleaned = ref::dilate(grad, 3, 3);
    ASSERT_EQ(edges.frames()[static_cast<size_t>(f)].size(), cleaned.size());
    for (int j = 0; j < cleaned.height(); ++j)
      for (int i = 0; i < cleaned.width(); ++i)
        ASSERT_DOUBLE_EQ(edges.frames()[static_cast<size_t>(f)].at(i, j),
                         cleaned.at(i, j))
            << "frame " << f;
    // Statistics branch.
    const auto want = ref::histogram(blurred, uppers);
    for (int i = 0; i < bins; ++i)
      EXPECT_EQ(static_cast<long>(stats.tiles()[static_cast<size_t>(f)].at(i, 0)),
                want[static_cast<size_t>(i)])
          << "frame " << f << " bin " << i;
  }
}

TEST(Apps, AnalyticsParallelizesAndMeetsRealTime) {
  CompiledApp app = compile(apps::analytics_app({48, 36}, 320.0, 2));
  // The separable blur stages and sobel should replicate at this rate.
  EXPECT_FALSE(app.parallelization.factors.empty());
  SimOptions opt;
  opt.machine = app.options.machine;
  Graph g = app.graph.clone();
  const SimResult r = simulate(g, app.mapping, opt);
  EXPECT_TRUE(r.completed) << r.diagnostics;
  EXPECT_TRUE(r.realtime_met) << r.max_input_lag_seconds;
}

}  // namespace
}  // namespace bpp
