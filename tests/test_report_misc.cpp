// Coverage for the reporting/census helpers, DOT export of compiled
// graphs, upsampling, engine determinism, and machine-model presets.

#include <gtest/gtest.h>

#include "apps/pipelines.h"
#include "compiler/pipeline.h"
#include "compiler/report.h"
#include "core/dot_export.h"
#include "kernels/kernels.h"
#include "ref/reference.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace bpp {
namespace {

TEST(Report, CensusClassifiesKernels) {
  CompiledApp app = compile(apps::figure1_app({48, 36}, 180.0, 1, 64));
  const GraphCensus c = census(app.graph);
  EXPECT_EQ(c.total, app.graph.kernel_count());
  EXPECT_EQ(c.sources, 3);
  EXPECT_GE(c.buffers, 3);       // median buffer + conv slices
  EXPECT_GE(c.splits_joins, 4);  // RR splits/joins + column split pair
  EXPECT_EQ(c.insets, 1);
  EXPECT_EQ(c.total,
            c.sources + c.computation + c.buffers + c.splits_joins + c.insets);
}

TEST(Report, CensusCountsPadsWithInsets) {
  // Both pad policies replace fig1's trim by one pad kernel.
  for (AlignPolicy policy : {AlignPolicy::Pad, AlignPolicy::MirrorPad}) {
    CompileOptions opt;
    opt.align_policy = policy;
    const CompiledApp app = compile(apps::figure1_app({48, 36}, 180.0, 1), opt);
    EXPECT_NE(report_string(app).find(" 1 inset/pad, "), std::string::npos);
  }
}

TEST(Report, StringContainsEveryTransformation) {
  CompiledApp app = compile(apps::figure1_app({96, 72}, 130.0, 1, 64));
  const std::string r = report_string(app);
  EXPECT_NE(r.find("alignment edits"), std::string::npos);
  EXPECT_NE(r.find("buffers inserted"), std::string::npos);
  EXPECT_NE(r.find("replication factors"), std::string::npos);
  EXPECT_NE(r.find("buffer split"), std::string::npos);
  EXPECT_NE(r.find("mapping:"), std::string::npos);
  EXPECT_NE(r.find("[96x10]"), std::string::npos);  // paper-style annotation
}

TEST(DotExport, CompiledGraphShowsShapes) {
  CompiledApp app = compile(apps::figure1_app({48, 36}, 180.0, 1, 64));
  const std::string dot = to_dot(app.graph);
  EXPECT_NE(dot.find("shape=parallelogram"), std::string::npos);  // buffers
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);        // split/join
  EXPECT_NE(dot.find("shape=invhouse"), std::string::npos);       // inset
}

TEST(Upsample, MatchesReference) {
  const Size2 frame{6, 4};
  Graph g;
  auto& in = g.add<InputKernel>("input", frame, 50.0, 1);
  auto& up = g.add<UpsampleKernel>("up2", 2);
  auto& out = g.add<OutputKernel>("result", Size2{2, 2});
  g.connect(in, "out", up, "in");
  g.connect(up, "out", out, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  const Tile img = ref::make_frame(frame, 0, default_pixel_fn());
  const Tile want = ref::upsample(img, 2);
  ASSERT_EQ(out.frames().size(), 1u);
  ASSERT_EQ(out.frames()[0].size(), want.size());
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      EXPECT_DOUBLE_EQ(out.frames()[0].at(x, y), want.at(x, y));
}

TEST(Upsample, ScaleShrinksInAnalysis) {
  Graph g;
  auto& in = g.add<InputKernel>("input", Size2{6, 4}, 50.0, 1);
  auto& up = g.add<UpsampleKernel>("up2", 2);
  auto& out = g.add<OutputKernel>("result", Size2{2, 2});
  g.connect(in, "out", up, "in");
  g.connect(up, "out", out, "in");
  const DataflowResult df = analyze(g);
  const StreamInfo& s =
      df.channel[static_cast<size_t>(*g.in_channel(g.find("result"), 0))];
  EXPECT_EQ(s.frame, (Size2{12, 8}));
  EXPECT_EQ(s.scale, (Offset2{0.5, 0.5}));
}

TEST(Simulator, DeterministicAcrossRuns) {
  // Two simulations of the same compiled app give byte-identical timing.
  CompiledApp app = compile(apps::figure1_app({32, 24}, 200.0, 2, 16));
  SimOptions opt;
  opt.machine = app.options.machine;
  Graph g1 = app.graph.clone();
  Graph g2 = app.graph.clone();
  const SimResult a = simulate(g1, app.mapping, opt);
  const SimResult b = simulate(g2, app.mapping, opt);
  EXPECT_EQ(a.total_firings, b.total_firings);
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (size_t c = 0; c < a.cores.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.cores[c].run_cycles, b.cores[c].run_cycles);
    EXPECT_DOUBLE_EQ(a.cores[c].read_cycles, b.cores[c].read_cycles);
    EXPECT_DOUBLE_EQ(a.cores[c].write_cycles, b.cores[c].write_cycles);
  }
}

TEST(Machines, PresetsAreSane) {
  EXPECT_GT(machines::embedded().clock_hz, 0.0);
  EXPECT_LT(machines::small_memory().mem_words, machines::embedded().mem_words);
  EXPECT_GT(machines::roomy().clock_hz, machines::embedded().clock_hz);
  EXPECT_DOUBLE_EQ(machines::embedded().cycle_seconds(),
                   1.0 / machines::embedded().clock_hz);
}

TEST(Multiplex, PinningSurvivesReuseStriping) {
  CompileOptions opt;
  opt.reuse_opt = true;
  opt.machine.mem_words = 4096;
  CompiledApp app = compile(apps::figure1_app({48, 36}, 420.0, 1, 64), opt);
  const auto pinned = multiplex_pinned(app.graph);
  // The reuse-linked slice buffers sit right behind the input's column
  // split: they are initial input buffers and must be pinned.
  int pinned_buffers = 0;
  for (KernelId k : pinned)
    if (dynamic_cast<const BufferKernel*>(&app.graph.kernel(k))) ++pinned_buffers;
  EXPECT_GE(pinned_buffers, 2);
}

TEST(LoadModel, DividedScalesRates) {
  LoadModel l;
  l.cycles_per_second = 100.0;
  l.read_words_per_second = 40.0;
  l.write_words_per_second = 20.0;
  l.firings_per_second = 10.0;
  l.memory_words = 512;
  const LoadModel d = l.divided(4);
  EXPECT_DOUBLE_EQ(d.cycles_per_second, 25.0);
  EXPECT_DOUBLE_EQ(d.read_words_per_second, 10.0);
  EXPECT_EQ(d.memory_words, 512);  // state is per-replica, not divided

  MachineSpec m;
  m.clock_hz = 1000.0;
  m.read_cost = 1.0;
  m.write_cost = 1.0;
  m.context_switch = 0.0;
  EXPECT_DOUBLE_EQ(l.utilization(m), (100.0 + 40.0 + 20.0) / 1000.0);
  EXPECT_DOUBLE_EQ(l.compute_utilization(m), 0.1);
}

}  // namespace
}  // namespace bpp
