// Computation kernels vs the golden references: convolution (with
// coefficient reload), median, Sobel, Bayer demosaic, element-wise
// operations, resampling, histogram and merge.

#include <gtest/gtest.h>

#include "apps/pipelines.h"
#include "compiler/pipeline.h"
#include "kernels/kernels.h"
#include "ref/reference.h"
#include "runtime/runtime.h"
#include "test_util.h"

namespace bpp {
namespace {

using testutil::ItemSink;
using testutil::px;
using testutil::ScriptedSource;
using testutil::scanline_items;
using testutil::token;

/// Run a single windowed kernel (already fed by a suitable buffer) over one
/// frame and collect the 1x1 outputs row-major.
template <class K, class... Args>
std::vector<double> run_windowed(Size2 frame, Size2 win,
                                 const std::function<double(int, int)>& value,
                                 Args&&... kernel_args) {
  Graph g;
  auto& src = g.add<ScriptedSource>("src", scanline_items(frame, value), frame);
  auto& buf = g.add<BufferKernel>("buf", Size2{1, 1}, win, Step2{1, 1}, frame);
  auto& k = g.add<K>("k", std::forward<Args>(kernel_args)...);
  auto& sink = g.add<ItemSink>("sink");
  g.connect(src, "out", buf, "in");
  g.connect(buf, "out", k, "in");
  g.connect(k, "out", sink, "in");
  if (k.input_index("coeff") >= 0) {
    // Identity coefficients unless the caller connects its own source.
    Tile delta(win);
    delta.at(win.w / 2, win.h / 2) = 1.0;
    auto& c = g.add<ConstSource>("coeff", delta);
    g.connect(c, "out", k, "coeff");
  }
  EXPECT_TRUE(run_sequential(g).completed);
  std::vector<double> out;
  for (double v : sink.log)
    if (v > -1000.0) out.push_back(v);
  return out;
}

Tile test_frame(Size2 s, int seed = 0) {
  return ref::make_frame(s, seed, default_pixel_fn());
}

TEST(Convolution, MatchesReferenceWithBlurCoefficients) {
  const Size2 frame{12, 9};
  const Tile img = test_frame(frame);
  const Tile coeff = apps::blur_coeff5x5();

  Graph g;
  auto& src = g.add<ScriptedSource>(
      "src", scanline_items(frame, [&](int x, int y) { return img.at(x, y); }),
      frame);
  auto& buf = g.add<BufferKernel>("buf", Size2{1, 1}, Size2{5, 5}, Step2{1, 1},
                                  frame);
  auto& conv = g.add<ConvolutionKernel>("conv", 5, 5);
  auto& csrc = g.add<ConstSource>("coeff", coeff);
  auto& sink = g.add<ItemSink>("sink");
  g.connect(src, "out", buf, "in");
  g.connect(buf, "out", conv, "in");
  g.connect(csrc, "out", conv, "coeff");
  g.connect(conv, "out", sink, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  const Tile want = ref::convolve(img, coeff);
  ASSERT_EQ(sink.data_count(), want.words());
  size_t n = 0;
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x) {
      while (sink.log[n] <= -1000.0) ++n;
      EXPECT_NEAR(sink.log[n++], want.at(x, y), 1e-9);
    }
}

TEST(Convolution, CoefficientReloadMidStream) {
  // Frame 1 convolved with delta, frame 2 with 2*delta: the "coeff" input
  // reloads between frames, exercising shared private state (§II-B).
  const Size2 frame{6, 6};
  std::vector<Item> data;
  for (int f = 0; f < 2; ++f) {
    auto s = scanline_items(frame, [](int x, int y) { return 1.0 + x + y; },
                            false);
    data.insert(data.end(), s.begin(), s.end());
  }
  data.push_back(token(tok::kEndOfStream));

  Tile delta(3, 3);
  delta.at(1, 1) = 1.0;
  Tile twice(3, 3);
  twice.at(1, 1) = 2.0;

  Graph g;
  auto& src = g.add<ScriptedSource>("src", data, frame);
  auto& buf = g.add<BufferKernel>("buf", Size2{1, 1}, Size2{3, 3}, Step2{1, 1},
                                  frame);
  auto& conv = g.add<ConvolutionKernel>("conv", 3, 3);
  // A scripted source delivering a second coefficient tile after the first.
  auto& csrc = g.add<ScriptedSource>(
      "coeff", std::vector<Item>{delta, twice, token(tok::kEndOfStream)},
      Size2{3, 3});
  // Coefficient granularity: the scripted source claims 1x1; override spec.
  csrc.output_spec(0).window = {3, 3};
  csrc.output_spec(0).step = {3, 3};
  auto& sink = g.add<ItemSink>("sink");
  g.connect(src, "out", buf, "in");
  g.connect(buf, "out", conv, "in");
  g.connect(csrc, "out", conv, "coeff");
  g.connect(conv, "out", sink, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  std::vector<double> out;
  for (double v : sink.log)
    if (v > -1000.0) out.push_back(v);
  const long per_frame = 16;  // 4x4 iterations
  ASSERT_EQ(static_cast<long>(out.size()), 2 * per_frame);
  // loadCoeff takes priority whenever a tile waits on "coeff", so in the
  // sequential engine both reloads land before the first window: every
  // output is the window center value scaled by 2 (shared private state
  // between methods, §II-B).
  size_t n = 0;
  for (int f = 0; f < 2; ++f)
    for (int wy = 0; wy < 4; ++wy)
      for (int wx = 0; wx < 4; ++wx)
        EXPECT_NEAR(out[n++], 2.0 * (1.0 + (wx + 1) + (wy + 1)), 1e-9);
}

TEST(Median, MatchesReference) {
  const Size2 frame{10, 8};
  const Tile img = test_frame(frame, 3);
  const auto got = run_windowed<MedianKernel>(
      frame, {3, 3}, [&](int x, int y) { return img.at(x, y); }, 3, 3);
  const Tile want = ref::median(img, 3, 3);
  ASSERT_EQ(static_cast<long>(got.size()), want.words());
  size_t n = 0;
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      EXPECT_DOUBLE_EQ(got[n++], want.at(x, y));
}

TEST(Median, FiveByFive) {
  const Size2 frame{9, 9};
  const Tile img = test_frame(frame, 7);
  const auto got = run_windowed<MedianKernel>(
      frame, {5, 5}, [&](int x, int y) { return img.at(x, y); }, 5, 5);
  const Tile want = ref::median(img, 5, 5);
  ASSERT_EQ(static_cast<long>(got.size()), want.words());
  size_t n = 0;
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      EXPECT_DOUBLE_EQ(got[n++], want.at(x, y));
}

TEST(Sobel, MatchesReference) {
  const Size2 frame{9, 7};
  const Tile img = test_frame(frame, 5);
  const auto got = run_windowed<SobelKernel>(
      frame, {3, 3}, [&](int x, int y) { return img.at(x, y); });
  const Tile want = ref::sobel(img);
  ASSERT_EQ(static_cast<long>(got.size()), want.words());
  size_t n = 0;
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      EXPECT_DOUBLE_EQ(got[n++], want.at(x, y));
}

TEST(Elementwise, BinaryOps) {
  Graph g;
  auto& a = g.add<ScriptedSource>(
      "a", std::vector<Item>{px(5), px(2), token(tok::kEndOfStream)});
  auto& b = g.add<ScriptedSource>(
      "b", std::vector<Item>{px(3), px(8), token(tok::kEndOfStream)});
  Kernel& sub = g.add_kernel(make_absdiff("ad"));
  auto& sink = g.add<ItemSink>("sink");
  g.connect(a, "out", sub, "in0");
  g.connect(b, "out", sub, "in1");
  g.connect(sub, "out", sink, "in");
  ASSERT_TRUE(run_sequential(g).completed);
  std::vector<double> got;
  for (double v : sink.log)
    if (v > -1000.0) got.push_back(v);
  EXPECT_EQ(got, (std::vector<double>{2, 6}));
}

TEST(Elementwise, UnaryFactories) {
  struct Case {
    std::unique_ptr<UnaryOpKernel> k;
    double in, want;
  };
  std::vector<Case> cases;
  cases.push_back({make_scale("s", 2.0, 1.0), 3.0, 7.0});
  cases.push_back({make_threshold("t", 5.0), 6.0, 1.0});
  cases.push_back({make_threshold("t2", 5.0), 4.0, 0.0});
  cases.push_back({make_clamp("c", 0.0, 10.0), 12.0, 10.0});
  cases.push_back({make_clamp("c2", 0.0, 10.0), -2.0, 0.0});
  for (auto& c : cases) {
    Graph g;
    auto& src = g.add<ScriptedSource>(
        "src", std::vector<Item>{px(c.in), token(tok::kEndOfStream)});
    Kernel& k = g.add_kernel(std::move(c.k));
    auto& sink = g.add<ItemSink>("sink");
    g.connect(src, "out", k, "in");
    g.connect(k, "out", sink, "in");
    ASSERT_TRUE(run_sequential(g).completed);
    ASSERT_EQ(sink.data_count(), 1);
    EXPECT_DOUBLE_EQ(sink.log.front(), c.want);
  }
}

TEST(Bayer, WindowRuleMatchesReference) {
  const Size2 frame{12, 10};
  const Tile mosaic = test_frame(frame, 11);
  const Tile want = ref::bayer_demosaic(mosaic);
  // Direct window check (the streaming path is covered by the app test).
  const Size2 it = iteration_count(frame, {4, 4}, {2, 2});
  for (int wy = 0; wy < it.h; ++wy)
    for (int wx = 0; wx < it.w; ++wx) {
      const Tile cell = BayerDemosaicKernel::demosaic_window(
          mosaic.crop(wx * 2, wy * 2, {4, 4}));
      for (int j = 0; j < 2; ++j)
        for (int i = 0; i < 2; ++i)
          EXPECT_DOUBLE_EQ(cell.at(i, j), want.at(wx * 2 + i, wy * 2 + j));
    }
}

TEST(Sampling, DownsampleAveragesBlocks) {
  const Size2 frame{6, 4};
  const Tile img = test_frame(frame, 2);
  Graph g;
  auto& src = g.add<ScriptedSource>(
      "src", scanline_items(frame, [&](int x, int y) { return img.at(x, y); }),
      frame);
  auto& buf = g.add<BufferKernel>("buf", Size2{1, 1}, Size2{2, 2}, Step2{2, 2},
                                  frame);
  auto& down = g.add<DownsampleKernel>("down", 2);
  auto& sink = g.add<ItemSink>("sink");
  g.connect(src, "out", buf, "in");
  g.connect(buf, "out", down, "in");
  g.connect(down, "out", sink, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  const Tile want = ref::downsample(img, 2);
  std::vector<double> got;
  for (double v : sink.log)
    if (v > -1000.0) got.push_back(v);
  ASSERT_EQ(static_cast<long>(got.size()), want.words());
  size_t n = 0;
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      EXPECT_DOUBLE_EQ(got[n++], want.at(x, y));
}

TEST(Sampling, FractionalOffsetDeclared) {
  DownsampleKernel d("d", 2);
  d.ensure_configured();
  EXPECT_EQ(d.input(0).spec.offset, (Offset2{0.5, 0.5}));  // §II-A footnote 2
}

TEST(Histogram, CountsAndFinishesPerFrame) {
  // Two frames of 4 values each; bins configured to [0,10,20,30).
  std::vector<Item> items;
  for (int f = 0; f < 2; ++f) {
    for (double v : {1.0, 11.0, 11.0, 25.0 + f}) items.push_back(px(v));
    items.push_back(token(tok::kEndOfFrame, f));
  }
  items.push_back(token(tok::kEndOfStream));

  Graph g;
  auto& src = g.add<ScriptedSource>("src", items);
  auto& hist = g.add<HistogramKernel>("hist", 3);
  auto& bins = g.add<ConstSource>("bins", HistogramKernel::uniform_bins(3, 0, 30));
  auto& sink = g.add<OutputKernel>("out", Size2{3, 1});
  g.connect(src, "out", hist, "in");
  g.connect(bins, "out", hist, "bins");
  g.connect(hist, "out", sink, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  ASSERT_EQ(sink.tiles().size(), 2u);
  for (const Tile& t : sink.tiles()) {
    EXPECT_EQ(t.at(0, 0), 1.0);  // value 1
    EXPECT_EQ(t.at(1, 0), 2.0);  // the two 11s
    EXPECT_EQ(t.at(2, 0), 1.0);  // 25/26
  }
}

TEST(HistogramMerge, AccumulatesExpectedPartials) {
  HistogramMergeKernel merge("m", 4);
  merge.ensure_configured();
  merge.on_upstream_parallelized(0, 3);
  EXPECT_EQ(merge.expected(), 3);

  ExecContext ctx;
  Fifo<Emission> emissions;
  ctx.bind_output(emissions);
  Tile partial(Size2{4, 1}, 1.0);
  for (int i = 0; i < 2; ++i) {
    ctx.reset();
    Item it = partial;
    ctx.bind_input(0, &it);
    merge.invoke(0, ctx);
    EXPECT_TRUE(emissions.empty());  // waiting for the third partial
  }
  ctx.reset();
  Item it = partial;
  ctx.bind_input(0, &it);
  merge.invoke(0, ctx);
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(as_tile(emissions[0].item).at(2, 0), 3.0);
}

TEST(OutputKernel, ReassemblesFrames) {
  const Size2 frame{4, 3};
  Graph g;
  auto& src = g.add<ScriptedSource>(
      "src", scanline_items(frame, [](int x, int y) { return x + 10.0 * y; }),
      frame);
  auto& out = g.add<OutputKernel>("out");
  g.connect(src, "out", out, "in");
  ASSERT_TRUE(run_sequential(g).completed);
  ASSERT_EQ(out.frames().size(), 1u);
  EXPECT_EQ(out.frames()[0].size(), frame);
  EXPECT_EQ(out.frames()[0].at(3, 2), 23.0);
  EXPECT_TRUE(out.finished());
  EXPECT_EQ(out.tokens_seen(tok::kEndOfLine), 3);
}


TEST(Morphology, ErodeDilateMatchReference) {
  const Size2 frame{10, 8};
  const Tile img = test_frame(frame, 9);
  for (auto op : {MorphologyKernel::Op::Erode, MorphologyKernel::Op::Dilate}) {
    const auto got = run_windowed<MorphologyKernel>(
        frame, {3, 3}, [&](int x, int y) { return img.at(x, y); }, op, 3, 3);
    const Tile want = op == MorphologyKernel::Op::Erode ? ref::erode(img, 3, 3)
                                                        : ref::dilate(img, 3, 3);
    ASSERT_EQ(static_cast<long>(got.size()), want.words());
    size_t n = 0;
    for (int y = 0; y < want.height(); ++y)
      for (int x = 0; x < want.width(); ++x)
        EXPECT_DOUBLE_EQ(got[n++], want.at(x, y));
  }
}

TEST(Morphology, OpeningIsErodeThenDilate) {
  // A morphological opening pipeline through the compiler: erode 3x3 then
  // dilate 3x3, compared against the composed reference.
  const Size2 frame{14, 12};
  Graph g;
  auto& in = g.add<InputKernel>("input", frame, 60.0, 1);
  auto& er = g.add<MorphologyKernel>("erode", MorphologyKernel::Op::Erode, 3, 3);
  auto& di = g.add<MorphologyKernel>("dilate", MorphologyKernel::Op::Dilate, 3, 3);
  auto& out = g.add<OutputKernel>("result");
  g.connect(in, "out", er, "in");
  g.connect(er, "out", di, "in");
  g.connect(di, "out", out, "in");

  CompiledApp app = compile(std::move(g));
  ASSERT_TRUE(run_sequential(app.graph).completed);
  const Tile img = test_frame(frame, 0);
  const Tile want = ref::dilate(ref::erode(img, 3, 3), 3, 3);
  const auto& res = dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
  ASSERT_EQ(res.frames().size(), 1u);
  ASSERT_EQ(res.frames()[0].size(), want.size());
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      EXPECT_DOUBLE_EQ(res.frames()[0].at(x, y), want.at(x, y));
}


// ---- declaration digest -----------------------------------------------------
// FNV-1a over what the eight one-input, one-method window kernels declare
// (ports, methods, scheduling hints) and over the bits one firing of a
// clone writes for a fixed window. Input values are small dyadic rationals,
// so every backend's dot product sums them exactly.

void digest_spec(const PortSpec& s, testutil::Fnv1a& h) {
  h.str(s.name);
  h.pod(s.window.w);
  h.pod(s.window.h);
  h.pod(s.step.x);
  h.pod(s.step.y);
  h.pod(s.offset.x);
  h.pod(s.offset.y);
  h.pod(s.replicated);
}

void digest_kernel(Kernel& k, testutil::Fnv1a& h) {
  k.ensure_configured();
  h.str(k.name());
  h.pod(k.inputs().size());
  for (const InputPort& p : k.inputs()) digest_spec(p.spec, h);
  h.pod(k.outputs().size());
  for (const OutputPort& p : k.outputs()) digest_spec(p.spec, h);
  h.pod(k.methods().size());
  for (const MethodDef& m : k.methods()) {
    h.str(m.name);
    h.pod(m.res.cycles);
    h.pod(m.res.memory_words);
    h.pod(m.inputs.size());
    for (int i : m.inputs) h.pod(i);
    h.pod(m.trigger_token.has_value());
    h.pod(m.trigger_token.value_or(-1));
    h.pod(m.outputs.size());
    for (int o : m.outputs) h.pod(o);
    h.pod(m.token_outputs.size());
    for (const TokenEmission& t : m.token_outputs) {
      h.pod(t.port);
      h.pod(t.cls);
      h.pod(t.max_per_frame);
    }
  }
  h.pod(k.parallel_kind());
  h.str(k.dot_shape());
  h.pod(k.pending_capacity());
  h.pod(k.state_memory());

  // One firing of a clone on a fixed window.
  const std::unique_ptr<Kernel> copy = k.clone();
  Tile win(k.input(0).spec.window);
  for (int y = 0; y < win.height(); ++y)
    for (int x = 0; x < win.width(); ++x)
      win.at(x, y) = ((x * 5 + y * 11) % 17) / 8.0 - 1.0;
  Item in = std::move(win);
  ExecContext ctx;
  Fifo<Emission> emissions;
  ctx.bind_output(emissions);
  ctx.bind_input(0, &in);
  copy->invoke(0, ctx);
  h.pod(emissions.size());
  for (size_t i = 0; i < emissions.size(); ++i) {
    const Emission& e = emissions[i];
    h.pod(e.port);
    h.pod(e.charge_words);
    const Tile& t = as_tile(e.item);
    h.pod(t.width());
    h.pod(t.height());
    for (int y = 0; y < t.height(); ++y)
      for (int x = 0; x < t.width(); ++x) h.pod(t.at(x, y));
  }
}

TEST(KernelLibrary, WindowKernelDeclarationsDigest) {
  using Op = MorphologyKernel::Op;
  std::vector<std::unique_ptr<Kernel>> kernels;
  kernels.push_back(std::make_unique<MedianKernel>("med3", 3, 3));
  kernels.push_back(std::make_unique<MedianKernel>("med5", 5, 5));
  kernels.push_back(std::make_unique<MedianKernel>("med4x3", 4, 3));
  kernels.push_back(std::make_unique<MorphologyKernel>("ero3", Op::Erode, 3, 3));
  kernels.push_back(std::make_unique<MorphologyKernel>("dil5x3", Op::Dilate, 5, 3));
  kernels.push_back(std::make_unique<MorphologyKernel>("ero2", Op::Erode, 2, 2));
  kernels.push_back(std::make_unique<SobelKernel>("sobel"));
  kernels.push_back(std::make_unique<DownsampleKernel>("down2", 2));
  kernels.push_back(std::make_unique<DownsampleKernel>("down3", 3));
  kernels.push_back(std::make_unique<DownsampleKernel>("down4", 4));
  kernels.push_back(std::make_unique<UpsampleKernel>("up1", 1));
  kernels.push_back(std::make_unique<UpsampleKernel>("up2", 2));
  kernels.push_back(std::make_unique<UpsampleKernel>("up3", 3));
  kernels.push_back(std::make_unique<FirDecimateKernel>(
      "fir3", std::vector<double>{0.25, 0.5, 0.25}));
  kernels.push_back(std::make_unique<FirDecimateKernel>(
      "fir4", std::vector<double>{0.125, -0.5, 0.75, 2.0}, 2));
  kernels.push_back(std::make_unique<FirDecimateKernel>(
      "fir9", std::vector<double>(9, 0.0625), 3));
  kernels.push_back(make_threshold("thresh", 0.25));
  kernels.push_back(make_scale("scale", 1.5, -0.25));
  kernels.push_back(make_clamp("clamp", -0.5, 0.5));
  kernels.push_back(make_abs("abs"));
  kernels.push_back(std::make_unique<BayerDemosaicKernel>("bayer"));

  const std::uint64_t golden[] = {
      0xe858fa938968d949ULL, 0x0ef9245fcb3419ebULL, 0x3a0a459ecf84320fULL,
      0x43bb5ba3f4173195ULL, 0x01bdb062f88eec31ULL, 0x222afd99a0689634ULL,
      0xe4f84cae91d135b5ULL, 0x0839fad05cc7a945ULL, 0xa7a80b466044e1b1ULL,
      0x6f8a9fcca8641184ULL, 0x013833cdab708d8aULL, 0x155c371f669ee058ULL,
      0x8ba0c1c38fc5d504ULL, 0xaf3c64570e1b3e3bULL, 0x1eba20b01ef0629dULL,
      0x5e5d8ef8cd60b8d8ULL, 0x4cad945ee524ef19ULL, 0x55f6ead38514940bULL,
      0x45c760504d285c9eULL, 0xef36312aeed35fbfULL, 0x05dc9a866a89fbf0ULL,
  };
  ASSERT_EQ(kernels.size(), std::size(golden));
  for (size_t i = 0; i < kernels.size(); ++i) {
    SCOPED_TRACE(kernels[i]->name());
    testutil::Fnv1a h;
    digest_kernel(*kernels[i], h);
    EXPECT_EQ(h.value(), golden[i]);
  }
}

}  // namespace
}  // namespace bpp
