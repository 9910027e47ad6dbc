// Extension features: user control tokens with declared rates (§II-C),
// mirror padding (§III-C), and dynamic resource bounds with runtime
// exceptions (the conclusions' future work).

#include <gtest/gtest.h>

#include "apps/pipelines.h"
#include "compiler/pipeline.h"
#include "kernels/kernels.h"
#include "ref/reference.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace bpp {
namespace {

using testutil::ItemSink;
using testutil::ScriptedSource;
using testutil::scanline_items;

// ---------------------------------------------------- user control tokens

Graph event_app(Size2 frame, double rate, int frames, double level,
                double max_events, long handler_cycles = 500) {
  Graph g;
  auto& in = g.add<InputKernel>("input", frame, rate, frames);
  auto& det = g.add<EventDetectKernel>("detect", level, max_events);
  auto& hand = g.add<EventHandlerKernel>("handler", handler_cycles);
  auto& out = g.add<OutputKernel>("result");
  g.connect(in, "out", det, "in");
  g.connect(det, "out", hand, "in");
  g.connect(hand, "out", out, "in");
  return g;
}

TEST(UserTokens, EmittedInOrderAndHandled) {
  Graph g = event_app({16, 8}, 50.0, 2, 150.0, 16.0);
  ASSERT_TRUE(run_sequential(g).completed);
  const auto& det = dynamic_cast<const EventDetectKernel&>(g.by_name("detect"));
  const auto& hand = dynamic_cast<const EventHandlerKernel&>(g.by_name("handler"));
  EXPECT_GT(det.events_emitted(), 0);
  EXPECT_EQ(hand.events_handled(), det.events_emitted());
  // The handler's recalibration (shared private state) took effect.
  EXPECT_LT(hand.gain(), 1.0);
}

TEST(UserTokens, RateBoundIsEnforced) {
  // Level 0 would fire on nearly every rising pixel; the declared bound
  // caps emissions per frame, excess crossings are suppressed.
  Graph g = event_app({16, 8}, 50.0, 2, 120.0, 2.0);
  ASSERT_TRUE(run_sequential(g).completed);
  const auto& det = dynamic_cast<const EventDetectKernel&>(g.by_name("detect"));
  EXPECT_LE(det.events_emitted(), 2 * 2);  // <= bound x frames
  EXPECT_GT(det.events_suppressed(), 0);
}

TEST(UserTokens, UndeclaredEmissionRejected) {
  class Rogue final : public Kernel {
   public:
    Rogue() : Kernel("rogue") {}
    void configure() override {
      create_input("in", {1, 1});
      create_output("out", {1, 1});
      auto& m = register_method("m", Resources{2, 0}, &Rogue::fire);
      method_input(m, "in");
      method_output(m, "out");
    }
    [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
      return std::make_unique<Rogue>(*this);
    }

   private:
    void fire() { emit_token("out", tok::kFirstUser + 3); }  // undeclared!
  };
  Rogue k;
  k.ensure_configured();
  ExecContext ctx;
  Fifo<Emission> emissions;
  ctx.bind_output(emissions);
  Item in = testutil::px(1);
  ctx.bind_input(0, &in);
  EXPECT_THROW(k.invoke(0, ctx), ExecutionError);
}

TEST(UserTokens, DataflowBudgetsHandlerCost) {
  // §II-C: the handler's cycles are charged at the declared maximum rate.
  Graph g = event_app({16, 8}, 50.0, 1, 200.0, /*max_events=*/8.0,
                      /*handler_cycles=*/500);
  const DataflowResult df = analyze(g);
  const KernelId h = g.find("handler");
  const StreamInfo& s = df.channel[static_cast<size_t>(*g.in_channel(h, 0))];
  EXPECT_DOUBLE_EQ(s.token_rate(tok::kThresholdEvent), 8.0);
  const KernelAnalysis& a = df.kernel[static_cast<size_t>(h)];
  // pass: 6 cycles x 128 pixels; onEvent: 500 x 8.
  EXPECT_EQ(a.cycles_per_frame, 6L * 128 + 500L * 8);
}

TEST(UserTokens, RatesForwardThroughUnrelatedKernels) {
  // A scale kernel between detector and handler forwards the token and
  // its declared rate.
  Graph g;
  auto& in = g.add<InputKernel>("input", Size2{16, 8}, 50.0, 1);
  auto& det = g.add<EventDetectKernel>("detect", 200.0, 4.0);
  Kernel& mid = g.add_kernel(make_scale("mid", 1.0, 0.0));
  auto& hand = g.add<EventHandlerKernel>("handler");
  auto& out = g.add<OutputKernel>("result");
  g.connect(in, "out", det, "in");
  g.connect(det, "out", mid, "in");
  g.connect(mid, "out", hand, "in");
  g.connect(hand, "out", out, "in");
  const DataflowResult df = analyze(g);
  const StreamInfo& s =
      df.channel[static_cast<size_t>(*g.in_channel(g.find("handler"), 0))];
  EXPECT_DOUBLE_EQ(s.token_rate(tok::kThresholdEvent), 4.0);
  // End-to-end: events survive the middle kernel.
  ASSERT_TRUE(run_sequential(g).completed);
  EXPECT_EQ(dynamic_cast<const EventHandlerKernel&>(g.by_name("handler"))
                .events_handled(),
            dynamic_cast<const EventDetectKernel&>(g.by_name("detect"))
                .events_emitted());
}

TEST(UserTokens, DeclarationValidation) {
  EXPECT_THROW(EventDetectKernel("d", 1.0, 0.0), GraphError);  // no rate
  class ReservedClass final : public Kernel {
   public:
    ReservedClass() : Kernel("r") {}
    void configure() override {
      create_input("in", {1, 1});
      create_output("out", {1, 1});
      auto& m = register_method("m", Resources{1, 0}, &ReservedClass::noop);
      method_input(m, "in");
      method_output(m, "out");
      method_token_output(m, "out", tok::kEndOfFrame, 1.0);  // reserved!
    }
    [[nodiscard]] std::unique_ptr<Kernel> clone() const override { return nullptr; }

   private:
    void noop() {}
  };
  ReservedClass k;
  EXPECT_THROW(k.ensure_configured(), GraphError);
}

// ------------------------------------------------------------ mirror pad

struct MirrorCase {
  Size2 frame;
  Border border;
};

class MirrorPad : public ::testing::TestWithParam<MirrorCase> {};

TEST_P(MirrorPad, MatchesTilePadded) {
  const auto& c = GetParam();
  auto value = [](int x, int y) { return 1.0 + 3 * x + 17 * y; };
  Graph g;
  auto& src = g.add<ScriptedSource>("src", scanline_items(c.frame, value), c.frame);
  auto& pad = g.add<MirrorPadKernel>("mpad", c.border, c.frame);
  auto& out = g.add<OutputKernel>("result");
  g.connect(src, "out", pad, "in");
  g.connect(pad, "out", out, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  Tile in(c.frame);
  for (int y = 0; y < c.frame.h; ++y)
    for (int x = 0; x < c.frame.w; ++x) in.at(x, y) = value(x, y);
  const Tile want = in.padded(c.border, /*mirror=*/true);
  ASSERT_EQ(out.frames().size(), 1u);
  EXPECT_EQ(out.frames()[0], want);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MirrorPad,
    ::testing::Values(MirrorCase{{6, 5}, {1, 1, 1, 1}},
                      MirrorCase{{6, 5}, {2, 3, 1, 0}},
                      MirrorCase{{4, 4}, {3, 3, 3, 3}},
                      MirrorCase{{8, 2}, {0, 1, 0, 1}},
                      MirrorCase{{5, 7}, {4, 0, 0, 6}}));

TEST(MirrorPadKernel, RejectsOversizedBorder) {
  EXPECT_THROW(MirrorPadKernel("m", {6, 0, 0, 0}, {6, 6}), GraphError);
}

TEST(MirrorPadKernel, MultiFrame) {
  const Size2 frame{5, 4};
  std::vector<Item> items;
  for (int f = 0; f < 2; ++f) {
    auto s = scanline_items(frame, [f](int x, int y) { return f * 50 + x + 7 * y; },
                            false);
    items.insert(items.end(), s.begin(), s.end());
  }
  items.push_back(testutil::token(tok::kEndOfStream));
  Graph g;
  auto& src = g.add<ScriptedSource>("src", items, frame);
  auto& pad = g.add<MirrorPadKernel>("mpad", Border{1, 1, 1, 1}, frame);
  auto& out = g.add<OutputKernel>("result");
  g.connect(src, "out", pad, "in");
  g.connect(pad, "out", out, "in");
  ASSERT_TRUE(run_sequential(g).completed);
  ASSERT_EQ(out.frames().size(), 2u);
  EXPECT_EQ(out.frames()[0].size(), (Size2{7, 6}));
}

TEST(MirrorPadPolicy, AlignsAndMatchesReference) {
  const Size2 frame{20, 16};
  CompileOptions opt;
  opt.machine = machines::roomy();
  opt.align_policy = AlignPolicy::MirrorPad;
  CompiledApp app = compile(apps::figure1_app(frame, 25.0, 1, 16), opt);
  // A mirrorpad kernel was inserted upstream of the convolution.
  bool found = false;
  for (int k = 0; k < app.graph.kernel_count(); ++k)
    found = found ||
            dynamic_cast<const MirrorPadKernel*>(&app.graph.kernel(k)) != nullptr;
  ASSERT_TRUE(found);
  ASSERT_TRUE(run_sequential(app.graph).completed);

  const Tile img = ref::make_frame(frame, 0, default_pixel_fn());
  const auto want = ref::figure1_histogram_mirror_padded(
      img, apps::blur_coeff5x5(), apps::diff_bins(16));
  const auto& out = dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
  ASSERT_EQ(out.tiles().size(), 1u);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(static_cast<long>(out.tiles()[0].at(i, 0)), want[static_cast<size_t>(i)])
        << "bin " << i;
}

TEST(MirrorPadPolicy, DiffersFromZeroPad) {
  const Size2 frame{20, 16};
  const Tile img = ref::make_frame(frame, 0, default_pixel_fn());
  const auto zero = ref::figure1_histogram_padded(img, apps::blur_coeff5x5(),
                                                  apps::diff_bins(16));
  const auto mirror = ref::figure1_histogram_mirror_padded(
      img, apps::blur_coeff5x5(), apps::diff_bins(16));
  EXPECT_NE(zero, mirror);
}

// --------------------------------------------- dynamic resource bounds

Graph motion_app(Size2 frame, double rate, int frames, long bound = 0) {
  Graph g;
  auto& in = g.add<InputKernel>("input", frame, rate, frames);
  auto& buf = g.add<BufferKernel>("blocks", Size2{1, 1}, Size2{4, 4},
                                  Step2{4, 4}, frame);
  auto& mot = g.add<MotionEstimateKernel>("motion", frame, 2, bound);
  auto& out = g.add<OutputKernel>("result");
  g.connect(in, "out", buf, "in");
  g.connect(buf, "out", mot, "in");
  g.connect(mot, "out", out, "in");
  return g;
}

TEST(DynamicResources, MotionSearchRunsAndReportsVectors) {
  Graph g = motion_app({16, 16}, 50.0, 3);
  ASSERT_TRUE(run_sequential(g).completed);
  const auto& out = dynamic_cast<const OutputKernel&>(g.by_name("result"));
  // 16 blocks per frame, 3 frames of magnitudes (frame 0 searches nothing).
  EXPECT_EQ(out.tiles().size(), 48u);
}

TEST(DynamicResources, WithinWorstCaseBoundNoExceptions) {
  Graph g = motion_app({16, 16}, 50.0, 3);  // bound = worst case
  const SimResult r = simulate(g, map_one_to_one(g), SimOptions{});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.resource_exception_count, 0);
}

TEST(DynamicResources, TightBoundRaisesRuntimeExceptions) {
  // Allocate far less than the search can use: the simulator reports the
  // firings that exceeded their budget (conclusions' "runtime exceptions").
  Graph g = motion_app({16, 16}, 50.0, 3, /*bound=*/60);
  const SimResult r = simulate(g, map_one_to_one(g), SimOptions{});
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.resource_exception_count, 0);
  ASSERT_FALSE(r.resource_exceptions.empty());
  const ResourceException& e = r.resource_exceptions.front();
  EXPECT_EQ(e.kernel, "motion");
  EXPECT_EQ(e.method, "estimate");
  EXPECT_GT(e.used_cycles, e.bound_cycles);
}

TEST(DynamicResources, DynamicCyclesDriveTiming) {
  // Identical graphs, one with an artificially cheap reported cost, show
  // different simulated spans under an unservicable input rate.
  class FixedDynamic final : public Kernel {
   public:
    FixedDynamic(std::string name, long report)
        : Kernel(std::move(name)), report_(report) {}
    void configure() override {
      create_input("in", {1, 1});
      create_output("out", {1, 1});
      auto& m = register_method("m", Resources{100000, 4}, &FixedDynamic::run);
      method_input(m, "in");
      method_output(m, "out");
    }
    [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
      return std::make_unique<FixedDynamic>(*this);
    }

   private:
    void run() {
      report_cycles(report_);
      write_output("out", read_input("in"));
    }
    long report_;
  };

  auto span = [](long cycles) {
    Graph g;
    auto& in = g.add<InputKernel>("input", Size2{8, 8}, 1e6, 1);
    Kernel& k = g.add_kernel(std::make_unique<FixedDynamic>("dyn", cycles));
    auto& out = g.add<OutputKernel>("result");
    g.connect(in, "out", k, "in");
    g.connect(k, "out", out, "in");
    const SimResult r = simulate(g, map_one_to_one(g), SimOptions{});
    EXPECT_TRUE(r.completed);
    return r.sim_seconds;
  };
  EXPECT_GT(span(50000), 2.0 * span(1000));
}

}  // namespace
}  // namespace bpp
