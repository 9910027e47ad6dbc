// Parallelization pass (paper §IV): replication sizing, split/join
// insertion, dependency-edge caps, replicated inputs, lane-connected
// pipelines, and functional equivalence of the transformed graphs.

#include <gtest/gtest.h>

#include <cstdio>

#include "apps/pipelines.h"
#include "compiler/pipeline.h"
#include "compiler/report.h"
#include "core/dot_export.h"
#include "core/validation.h"
#include "kernels/kernels.h"
#include "ref/reference.h"
#include "runtime/runtime.h"
#include "test_util.h"

namespace bpp {
namespace {

TEST(RequiredParallelism, FirstOrderFormula) {
  MachineSpec m;
  m.clock_hz = 10e6;
  m.target_utilization = 0.9;
  LoadModel l;
  l.cycles_per_second = 4.5e6;  // util 0.45
  EXPECT_EQ(required_parallelism(l, m), 1);
  l.cycles_per_second = 9.1e6;  // util 0.91 > 0.9
  EXPECT_EQ(required_parallelism(l, m), 2);
  l.cycles_per_second = 36e6;  // util 3.6 -> exactly 4
  EXPECT_EQ(required_parallelism(l, m), 4);
  l.cycles_per_second = 0.0;
  EXPECT_EQ(required_parallelism(l, m), 1);
  // I/O access time counts too.
  l.read_words_per_second = 50e6;  // x m.read_cost (0.2) = 10e6 cycles
  EXPECT_EQ(required_parallelism(LoadModel{0, 50e6, 0, 0, 0}, m), 2);
}

CompiledApp compiled_fig1(const char* tag) {
  for (const auto& c : apps::fig11_configs())
    if (std::string(c.tag) == tag)
      return compile(apps::figure1_app(c.frame, c.rate_hz, 1, 64));
  throw std::runtime_error("unknown tag");
}

TEST(Parallelize, SmallSlowReplicatesFiltersTwice) {
  const CompiledApp app = compiled_fig1("SS");
  const auto& f = app.parallelization.factors;
  ASSERT_TRUE(f.count("conv5x5"));
  EXPECT_EQ(f.at("conv5x5"), 2);
  ASSERT_TRUE(f.count("median3x3"));
  EXPECT_EQ(f.at("median3x3"), 2);
  EXPECT_FALSE(f.count("histogram"));  // one instance suffices when slow
  EXPECT_FALSE(f.count("subtract"));
}

TEST(Parallelize, FastRatesAddHistogramParallelism) {
  const CompiledApp app = compiled_fig1("SF");
  const auto& f = app.parallelization.factors;
  EXPECT_GE(f.at("conv5x5"), 4);
  EXPECT_GE(f.at("median3x3"), 3);
  ASSERT_TRUE(f.count("histogram"));
  EXPECT_EQ(f.at("histogram"), 2);
}

TEST(Parallelize, DependencyEdgeKeepsMergeSerial) {
  // Fig. 1(b): the dependency edge from the input bounds the merge kernel
  // to one instance per frame no matter the rate.
  const CompiledApp app = compiled_fig1("BF");
  EXPECT_FALSE(app.parallelization.factors.count("merge"));
  EXPECT_GE(app.parallelization.factors.at("histogram"), 2);
  // The merge kernel was told how many partial histograms to expect.
  const auto& merge = dynamic_cast<const HistogramMergeKernel&>(
      app.graph.by_name("merge"));
  EXPECT_EQ(merge.expected(), app.parallelization.factors.at("histogram"));
}

TEST(Parallelize, ReplicatedInputsGetReplicateKernels) {
  const CompiledApp app = compiled_fig1("SF");
  // The coefficient source must feed every conv replica through a
  // replicate kernel, not a split (Fig. 4 "Replicate").
  EXPECT_GE(app.parallelization.replicates_inserted, 2);  // coeff + bins
  int found = 0;
  for (int k = 0; k < app.graph.kernel_count(); ++k)
    if (dynamic_cast<const ReplicateKernel*>(&app.graph.kernel(k))) ++found;
  EXPECT_EQ(found, app.parallelization.replicates_inserted);
}

TEST(Parallelize, ReplicaNamingFollowsPaper) {
  const CompiledApp app = compiled_fig1("SS");
  // Fig. 4: "5x5 Conv_0", "5x5 Conv_1", ...
  EXPECT_GE(app.graph.find("conv5x5_0"), 0);
  EXPECT_GE(app.graph.find("conv5x5_1"), 0);
  EXPECT_EQ(app.graph.find("conv5x5"), -1);
  EXPECT_GE(app.graph.find("median3x3_0"), 0);
}

TEST(Parallelize, TransformedGraphValidates) {
  for (const char* tag : {"SS", "BS", "SF", "BF"}) {
    const CompiledApp app = compiled_fig1(tag);
    EXPECT_TRUE(validate(app.graph).empty()) << tag;
  }
}

TEST(Parallelize, PipelineLaneConnections) {
  // §IV-B: a dependency-edged pipeline of equal-cost stages replicates as
  // whole pipelines — stage1_j connects straight to stage2_j.
  MachineSpec m;  // defaults; stage cycles chosen to demand ~3x
  const Size2 frame{48, 36};
  const double rate = 150.0;
  CompileOptions opt;
  opt.machine = m;
  CompiledApp app =
      compile(apps::pipeline_app(frame, rate, 1, /*stage_cycles=*/300), opt);

  ASSERT_TRUE(app.parallelization.factors.count("stage1"));
  const int p = app.parallelization.factors.at("stage1");
  EXPECT_GT(p, 1);
  EXPECT_EQ(app.parallelization.factors.at("stage2"), p);
  EXPECT_EQ(app.parallelization.lane_connections, 1);

  // Lane check: stage1_j's only consumer is stage2_j.
  for (int j = 0; j < p; ++j) {
    const KernelId s1 = app.graph.find("stage1_" + std::to_string(j));
    ASSERT_GE(s1, 0);
    const auto outs = app.graph.out_channels(s1);
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(app.graph.kernel(app.graph.channel(outs[0]).dst_kernel).name(),
              "stage2_" + std::to_string(j));
  }
}

TEST(Parallelize, PipelineLanesComputeCorrectly) {
  CompileOptions opt;
  CompiledApp app = compile(apps::pipeline_app({24, 18}, 150.0, 2, 300), opt);
  ASSERT_TRUE(run_sequential(app.graph).completed);
  const auto& out = dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
  ASSERT_EQ(out.frames().size(), 2u);
  for (size_t f = 0; f < 2; ++f) {
    const Tile img = ref::make_frame({24, 18}, static_cast<int>(f),
                                     default_pixel_fn());
    for (int y = 0; y < 18; ++y)
      for (int x = 0; x < 24; ++x) {
        const double s1 = 0.5 * img.at(x, y) + 1.0;
        const double want = s1 > 64.0 ? s1 : 0.0;
        EXPECT_DOUBLE_EQ(out.frames()[f].at(x, y), want);
      }
  }
}

TEST(Parallelize, SerialKernelsNeverReplicate) {
  // Even at absurd rates, Serial kernels stay single.
  MachineSpec slow;
  slow.clock_hz = 1e5;  // drastically underpowered
  CompileOptions opt;
  opt.machine = slow;
  Graph g = apps::histogram_app({16, 12}, 100.0, 1);
  CompiledApp app = compile(std::move(g), opt);
  EXPECT_FALSE(app.parallelization.factors.count("merge"));
  EXPECT_EQ(app.graph.find("merge"), app.graph.find("merge"));  // still one
}

TEST(Parallelize, DisabledLeavesGraphUntouched) {
  CompileOptions opt;
  opt.parallelize = false;
  CompiledApp app = compile(apps::figure1_app({48, 36}, 420.0, 1, 64), opt);
  EXPECT_TRUE(app.parallelization.factors.empty());
  EXPECT_EQ(app.parallelization.splits_inserted, 0);
  EXPECT_GE(app.graph.find("conv5x5"), 0);  // not renamed
}

TEST(Parallelize, RoomyMachineNeedsNoParallelism) {
  CompileOptions opt;
  opt.machine = machines::roomy();
  CompiledApp app = compile(apps::figure1_app({48, 36}, 420.0, 1, 64), opt);
  EXPECT_TRUE(app.parallelization.factors.empty());
}

TEST(Parallelize, SplitJoinCountsAreConsistent) {
  const CompiledApp app = compiled_fig1("SF");
  int splits = 0, joins = 0;
  for (int k = 0; k < app.graph.kernel_count(); ++k) {
    if (dynamic_cast<const SplitKernel*>(&app.graph.kernel(k))) ++splits;
    if (dynamic_cast<const JoinKernel*>(&app.graph.kernel(k))) ++joins;
  }
  // Buffer splits add one split+join pair each beyond the recorded RR ones.
  const int buffer_pairs =
      static_cast<int>(app.parallelization.buffer_splits.size());
  EXPECT_EQ(splits, app.parallelization.splits_inserted + buffer_pairs);
  EXPECT_EQ(joins, app.parallelization.joins_inserted + buffer_pairs);
}


TEST(Parallelize, SplitBufferBehindReplicatedProducer) {
  // Regression: a storage-split buffer whose producer was itself
  // replicated must route through the producer's join (found by the
  // analytics app at 96x72 @ 150 Hz: blurH x2 feeding a 920-word buffer).
  CompiledApp app = compile(apps::analytics_app({96, 72}, 150.0, 1));
  EXPECT_TRUE(validate(app.graph).empty());
  ASSERT_TRUE(app.parallelization.factors.count("blurH"));
  ASSERT_FALSE(app.parallelization.buffer_splits.empty());
  ASSERT_TRUE(run_sequential(app.graph).completed);
  // Functional spot check: edge frames exist and are the right size.
  const auto& edges = dynamic_cast<const OutputKernel&>(app.graph.by_name("edges"));
  ASSERT_EQ(edges.frames().size(), 1u);
  EXPECT_EQ(edges.frames()[0].size(), (Size2{88, 64}));
}


// ---- golden digests ---------------------------------------------------------
// The compiler's whole output pinned bit for bit: the Graphviz export, the
// report, both mappings, every kernel's ports and methods, every channel
// (dead ones too, so creation order shows), every LoadMap entry and every
// analysed stream. The report's first line is pinned by its census
// counts rather than its wording. Any change to what the passes insert,
// in what order, under which names or with which modeled loads shows.

using testutil::Fnv1a;

void digest_port(const PortSpec& p, Fnv1a& h) {
  h.str(p.name);
  h.pod(p.window.w);
  h.pod(p.window.h);
  h.pod(p.step.x);
  h.pod(p.step.y);
  h.pod(p.offset.x);
  h.pod(p.offset.y);
  h.pod(p.replicated);
}

void digest_mapping(const Mapping& m, Fnv1a& h) {
  h.pod(m.cores);
  h.pod(m.core_of.size());
  for (int core : m.core_of) h.pod(core);
}

void digest_compiled(const CompiledApp& app, Fnv1a& h) {
  const Graph& g = app.graph;
  h.str(to_dot(g));
  const std::string report = report_string(app);
  h.str(report.substr(report.find('\n') + 1));
  const GraphCensus c = census(g);
  for (int n : {c.total, c.sources, c.computation, c.buffers, c.splits_joins,
                c.insets})
    h.pod(n);
  digest_mapping(app.one_to_one, h);
  digest_mapping(app.mapping, h);
  h.pod(g.kernel_count());
  for (KernelId k = 0; k < g.kernel_count(); ++k) {
    const Kernel& kn = g.kernel(k);
    h.str(kn.name());
    h.pod(kn.parallel_kind());
    h.pod(kn.pending_capacity());
    for (const InputPort& p : kn.inputs()) digest_port(p.spec, h);
    for (const OutputPort& p : kn.outputs()) digest_port(p.spec, h);
    h.pod(kn.methods().size());
    for (const MethodDef& m : kn.methods()) {
      h.str(m.name);
      h.pod(m.res.cycles);
      h.pod(m.res.memory_words);
      for (int i : m.inputs) h.pod(i);
      h.pod(m.trigger_token.value_or(-1));
      for (int o : m.outputs) h.pod(o);
      for (const TokenEmission& t : m.token_outputs) {
        h.pod(t.port);
        h.pod(t.cls);
        h.pod(t.max_per_frame);
      }
    }
  }
  h.pod(g.channel_count());
  for (ChannelId ch = 0; ch < g.channel_count(); ++ch) {
    const Channel& c2 = g.channel(ch);
    h.pod(c2.src_kernel);
    h.pod(c2.src_port);
    h.pod(c2.dst_kernel);
    h.pod(c2.dst_port);
    h.pod(c2.alive);
  }
  h.pod(app.loads.size());
  for (KernelId k = 0; k < app.loads.size(); ++k) {
    const LoadModel& l = app.loads.of(k);
    h.pod(l.cycles_per_second);
    h.pod(l.read_words_per_second);
    h.pod(l.write_words_per_second);
    h.pod(l.firings_per_second);
    h.pod(l.forwards_per_second);
    h.pod(l.memory_words);
  }
  h.pod(app.analysis.channel.size());
  for (const StreamInfo& s : app.analysis.channel) {
    h.pod(s.frame.w);
    h.pod(s.frame.h);
    h.pod(s.item.w);
    h.pod(s.item.h);
    h.pod(s.item_step.x);
    h.pod(s.item_step.y);
    h.pod(s.items_per_frame);
    h.pod(s.grid.w);
    h.pod(s.grid.h);
    h.pod(s.rate_hz);
    h.pod(s.inset.x);
    h.pod(s.inset.y);
    h.pod(s.scale.x);
    h.pod(s.scale.y);
    h.pod(s.pixel_space);
    h.pod(s.origin);
    for (const auto& [cls, rate] : s.token_rates) {
      h.pod(cls);
      h.pod(rate);
    }
  }
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(CompiledGraph, GoldenDigests) {
  // Every named app at the bpc defaults under each alignment policy, with
  // and without the Fig. 9 reuse striping.
  const std::pair<const char*, std::uint64_t> apps[] = {
      {"fig1", 0x2394023f3d1cc16aULL},
      {"bayer", 0x1004c0042281d893ULL},
      {"histogram", 0x2f1cbbc097091ebfULL},
      {"parallel-buffer", 0x5dee9d049d5745d5ULL},
      {"multi-conv", 0xd2b3ce72566096c4ULL},
      {"pipeline", 0xfb817b6b59db2577ULL},
      {"sobel", 0x4fc66d8ca21810ddULL},
      {"downsample", 0x0c9a8b028a893defULL},
      {"separable", 0x091c4da317906d1dULL},
      {"motion", 0xdb14e3fbf4364871ULL},
      {"feedback", 0xc163b56fb86cb695ULL},
      {"radio", 0xf4c3304773864e55ULL},
      {"analytics", 0x97b59644696516e9ULL},
  };
  for (const auto& [name, want] : apps) {
    Fnv1a h;
    for (AlignPolicy policy :
         {AlignPolicy::Trim, AlignPolicy::Pad, AlignPolicy::MirrorPad}) {
      for (bool reuse : {false, true}) {
        CompileOptions opt;
        opt.align_policy = policy;
        opt.reuse_opt = reuse;
        digest_compiled(compile(apps::named_app(name, {48, 36}, 180.0, 2), opt),
                        h);
      }
    }
    EXPECT_EQ(h.value(), want) << name << " digest " << hex(h.value());
  }
  // The Fig. 11 configurations, whose big inputs column-split buffers.
  const std::uint64_t fig11[] = {0x1c6721d3d19053e5ULL, 0x5048a9371bb14d57ULL,
                                 0x54074737dda915a3ULL, 0xad95f6bb8b6156beULL};
  const std::vector<apps::Fig11Config> configs = apps::fig11_configs();
  ASSERT_EQ(configs.size(), std::size(fig11));
  for (size_t i = 0; i < configs.size(); ++i) {
    Fnv1a h;
    digest_compiled(
        compile(apps::figure1_app(configs[i].frame, configs[i].rate_hz, 2)), h);
    EXPECT_EQ(h.value(), fig11[i])
        << configs[i].tag << " digest " << hex(h.value());
  }
}

}  // namespace
}  // namespace bpp
