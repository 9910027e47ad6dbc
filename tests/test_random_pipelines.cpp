// Randomized end-to-end property tests: seeded random kernel chains (and
// two-branch difference graphs) are compiled — buffering, alignment,
// parallelization, multiplexing — executed, and compared bit-exactly
// against the composed scalar reference. This is the broadest invariant
// in the system: every transformation is semantics-preserving.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "apps/pipelines.h"
#include "apps/random_chain.h"
#include "compiler/pipeline.h"
#include "fault/degradation.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "kernels/feedback.h"
#include "kernels/kernels.h"
#include "ref/reference.h"
#include "runtime/runtime.h"

namespace bpp {
namespace {

using apps::random_stages;
using apps::splitmix;
using apps::Stage;

class RandomChain : public ::testing::TestWithParam<int> {};

TEST_P(RandomChain, CompiledChainMatchesComposedReference) {
  std::uint64_t rng = 0xC0FFEE ^ (static_cast<std::uint64_t>(GetParam()) << 20);
  const Size2 frame{static_cast<int>(20 + splitmix(rng) % 16),
                    static_cast<int>(18 + splitmix(rng) % 10)};
  const double rate = 50.0 + static_cast<double>(splitmix(rng) % 300);
  Size2 left = frame;
  const std::vector<Stage> stages = random_stages(rng, 4, left);

  Graph g;
  Kernel* prev = &g.add<InputKernel>("input", frame, rate, 1);
  for (size_t i = 0; i < stages.size(); ++i) {
    Kernel* k = stages[i].append(g, static_cast<int>(i));
    g.connect(*prev, "out", *k, "in");
    prev = k;
  }
  auto& out = g.add<OutputKernel>("result");
  g.connect(*prev, "out", out, "in");

  CompileOptions opt;
  if (splitmix(rng) & 1) opt.machine.clock_hz /= 2;  // vary the pressure
  opt.reuse_opt = (splitmix(rng) & 2) != 0;
  CompiledApp app = compile(std::move(g), opt);
  ASSERT_TRUE(run_sequential(app.graph).completed)
      << stages.size() << " stages, frame " << to_string(frame);

  Tile want = ref::make_frame(frame, 0, default_pixel_fn());
  for (const Stage& s : stages) want = s.reference(want);

  const auto& res = dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
  ASSERT_EQ(res.frames().size(), 1u) << "stages=" << stages.size();
  ASSERT_EQ(res.frames()[0].size(), want.size());
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      ASSERT_NEAR(res.frames()[0].at(x, y), want.at(x, y), 1e-9)
          << "seed " << GetParam() << " at (" << x << ',' << y << ')';
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChain, ::testing::Range(0, 24));

class RandomDiff : public ::testing::TestWithParam<int> {};

TEST_P(RandomDiff, TwoBranchDifferenceAlignsAndMatches) {
  // input -> (windowed A, windowed B) -> subtract -> histogram-less sink.
  // The branches have random halos, so the alignment pass must trim.
  std::uint64_t rng = 0xBEEF ^ (static_cast<std::uint64_t>(GetParam()) << 18);
  const Size2 frame{static_cast<int>(22 + splitmix(rng) % 12),
                    static_cast<int>(20 + splitmix(rng) % 8)};

  auto windowed = [&](Graph& g, const std::string& name,
                      std::uint64_t pick) -> Kernel* {
    switch (pick % 4) {
      case 0: {
        auto& k = g.add<ConvolutionKernel>(name, 3, 3);
        g.connect(g.add<ConstSource>(name + "_c", apps::blur_coeff3x3()), "out",
                  k, "coeff");
        return &k;
      }
      case 1: {
        auto& k = g.add<ConvolutionKernel>(name, 5, 5);
        g.connect(g.add<ConstSource>(name + "_c", apps::blur_coeff5x5()), "out",
                  k, "coeff");
        return &k;
      }
      case 2:
        return &g.add<MedianKernel>(name, 3, 3);
      default:
        return &g.add<SobelKernel>(name);
    }
  };
  auto reference = [&](const Tile& in, std::uint64_t pick) {
    switch (pick % 4) {
      case 0:
        return ref::convolve(in, apps::blur_coeff3x3());
      case 1:
        return ref::convolve(in, apps::blur_coeff5x5());
      case 2:
        return ref::median(in, 3, 3);
      default:
        return ref::sobel(in);
    }
  };
  auto inset_of = [](std::uint64_t pick) { return pick % 4 == 1 ? 2 : 1; };

  const std::uint64_t pa = splitmix(rng);
  const std::uint64_t pb = splitmix(rng);

  Graph g;
  auto& in = g.add<InputKernel>("input", frame, 60.0, 1);
  Kernel* a = windowed(g, "branchA", pa);
  Kernel* b = windowed(g, "branchB", pb);
  Kernel& sub = g.add_kernel(make_subtract("diff"));
  auto& out = g.add<OutputKernel>("result");
  g.connect(in, "out", *a, "in");
  g.connect(in, "out", *b, "in");
  g.connect(*a, "out", sub, "in0");
  g.connect(*b, "out", sub, "in1");
  g.connect(sub, "out", out, "in");

  CompiledApp app = compile(std::move(g));
  ASSERT_TRUE(run_sequential(app.graph).completed);

  // Composed reference with trim alignment.
  const Tile img = ref::make_frame(frame, 0, default_pixel_fn());
  Tile ra = reference(img, pa);
  Tile rb = reference(img, pb);
  const int ia = inset_of(pa), ib = inset_of(pb);
  const int common = std::max(ia, ib);
  ra = ref::crop(ra, {common - ia, common - ia, common - ia, common - ia});
  rb = ref::crop(rb, {common - ib, common - ib, common - ib, common - ib});
  const Tile want = ref::subtract(ra, rb);

  const auto& res = dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
  ASSERT_EQ(res.frames().size(), 1u);
  ASSERT_EQ(res.frames()[0].size(), want.size());
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      ASSERT_NEAR(res.frames()[0].at(x, y), want.at(x, y), 1e-9)
          << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDiff, ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// Split/join in the middle of a random chain: a random prefix fans out
// into two windowed branches, the join subtracts them (after the
// alignment pass trims halos), and a random suffix continues downstream.

class RandomFanOut : public ::testing::TestWithParam<int> {};

TEST_P(RandomFanOut, MidChainSplitJoinMatchesReference) {
  std::uint64_t rng = 0xFA17 ^ (static_cast<std::uint64_t>(GetParam()) << 16);
  const Size2 frame{static_cast<int>(26 + splitmix(rng) % 8),
                    static_cast<int>(24 + splitmix(rng) % 6)};

  auto windowed = [&](Graph& g, const std::string& name,
                      std::uint64_t pick) -> Kernel* {
    switch (pick % 4) {
      case 0: {
        auto& k = g.add<ConvolutionKernel>(name, 3, 3);
        g.connect(g.add<ConstSource>(name + "_c", apps::blur_coeff3x3()), "out",
                  k, "coeff");
        return &k;
      }
      case 1: {
        auto& k = g.add<ConvolutionKernel>(name, 5, 5);
        g.connect(g.add<ConstSource>(name + "_c", apps::blur_coeff5x5()), "out",
                  k, "coeff");
        return &k;
      }
      case 2:
        return &g.add<MedianKernel>(name, 3, 3);
      default:
        return &g.add<SobelKernel>(name);
    }
  };
  auto branch_ref = [&](const Tile& in, std::uint64_t pick) {
    switch (pick % 4) {
      case 0:
        return ref::convolve(in, apps::blur_coeff3x3());
      case 1:
        return ref::convolve(in, apps::blur_coeff5x5());
      case 2:
        return ref::median(in, 3, 3);
      default:
        return ref::sobel(in);
    }
  };
  auto inset_of = [](std::uint64_t pick) { return pick % 4 == 1 ? 2 : 1; };

  Size2 left = frame;
  const std::vector<Stage> prefix = random_stages(rng, 2, left);
  const std::uint64_t pa = splitmix(rng);
  const std::uint64_t pb = splitmix(rng);
  const int ia = inset_of(pa), ib = inset_of(pb);
  const int common = std::max(ia, ib);
  Size2 joined = {left.w - 2 * common, left.h - 2 * common};
  if (joined.w < 8 || joined.h < 8) GTEST_SKIP() << "prefix ate the frame";
  const std::vector<Stage> suffix = random_stages(rng, 2, joined);

  Graph g;
  Kernel* prev = &g.add<InputKernel>("input", frame, 60.0, 1);
  for (size_t i = 0; i < prefix.size(); ++i) {
    Kernel* k = prefix[i].append(g, static_cast<int>(i));
    g.connect(*prev, "out", *k, "in");
    prev = k;
  }
  Kernel* a = windowed(g, "branchA", pa);
  Kernel* b = windowed(g, "branchB", pb);
  Kernel& join = g.add_kernel(make_subtract("join"));
  g.connect(*prev, "out", *a, "in");
  g.connect(*prev, "out", *b, "in");
  g.connect(*a, "out", join, "in0");
  g.connect(*b, "out", join, "in1");
  prev = &join;
  for (size_t i = 0; i < suffix.size(); ++i) {
    Kernel* k = suffix[i].append(g, 100 + static_cast<int>(i));
    g.connect(*prev, "out", *k, "in");
    prev = k;
  }
  auto& out = g.add<OutputKernel>("result");
  g.connect(*prev, "out", out, "in");

  CompiledApp app = compile(std::move(g));
  ASSERT_TRUE(run_sequential(app.graph).completed);

  Tile img = ref::make_frame(frame, 0, default_pixel_fn());
  for (const Stage& s : prefix) img = s.reference(img);
  Tile ra = branch_ref(img, pa);
  Tile rb = branch_ref(img, pb);
  ra = ref::crop(ra, {common - ia, common - ia, common - ia, common - ia});
  rb = ref::crop(rb, {common - ib, common - ib, common - ib, common - ib});
  Tile want = ref::subtract(ra, rb);
  for (const Stage& s : suffix) want = s.reference(want);

  const auto& res = dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
  ASSERT_EQ(res.frames().size(), 1u);
  ASSERT_EQ(res.frames()[0].size(), want.size());
  for (int y = 0; y < want.height(); ++y)
    for (int x = 0; x < want.width(); ++x)
      ASSERT_NEAR(res.frames()[0].at(x, y), want.at(x, y), 1e-9)
          << "seed " << GetParam() << " at (" << x << ',' << y << ')';
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFanOut, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// A feedback stage feeding a random suffix: the IIR recurrence
// y_t = alpha x_t + (1-alpha) y_{t-1} makes every frame depend on its
// predecessors, so loop priming, convergence, and per-frame ordering all
// have to hold for the composed reference to match. The loop sits right
// after the source (windowed stages inside a loop shrink its frame, which
// the compiler now rejects — see AnalysisErrors.TrimmedLoopInputRejected);
// the random stages consume the loop's output downstream.

class RandomFeedback : public ::testing::TestWithParam<int> {};

TEST_P(RandomFeedback, RecurrenceIntoChainMatchesReference) {
  std::uint64_t rng = 0xFEEDB ^ (static_cast<std::uint64_t>(GetParam()) << 19);
  const Size2 frame{static_cast<int>(20 + splitmix(rng) % 12),
                    static_cast<int>(18 + splitmix(rng) % 8)};
  const double rate = 40.0 + static_cast<double>(splitmix(rng) % 100);
  const int frames = 3;
  const double alpha = (splitmix(rng) & 1) ? 0.25 : 0.5;
  Size2 left = frame;
  const std::vector<Stage> stages = random_stages(rng, 3, left);

  Graph g;
  auto& input = g.add<InputKernel>("input", frame, rate, frames);
  auto& mix = g.add<TemporalMixKernel>("mix", alpha);
  auto& init = g.add<InitialValueKernel>("loopInit", frame, rate, 0.0);
  g.connect(input, "out", mix, "x");
  g.connect(init, "out", mix, "prev");
  g.connect(mix, "out", init, "in");
  Kernel* prev = &mix;
  for (size_t i = 0; i < stages.size(); ++i) {
    Kernel* k = stages[i].append(g, static_cast<int>(i));
    g.connect(*prev, "out", *k, "in");
    prev = k;
  }
  auto& out = g.add<OutputKernel>("result");
  g.connect(*prev, "out", out, "in");

  CompiledApp app = compile(std::move(g));
  ASSERT_TRUE(run_sequential(app.graph).completed);

  const auto& res = dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
  ASSERT_EQ(res.frames().size(), static_cast<size_t>(frames));
  Tile prev_y(frame);  // y_{-1} = 0 (the loop's initial value)
  for (int f = 0; f < frames; ++f) {
    const Tile x = ref::make_frame(frame, f, default_pixel_fn());
    Tile y(frame);
    for (int j = 0; j < frame.h; ++j)
      for (int i = 0; i < frame.w; ++i)
        y.at(i, j) = alpha * x.at(i, j) + (1 - alpha) * prev_y.at(i, j);
    Tile want = y;
    for (const Stage& s : stages) want = s.reference(want);
    ASSERT_EQ(res.frames()[static_cast<size_t>(f)].size(), want.size());
    for (int j = 0; j < want.height(); ++j)
      for (int i = 0; i < want.width(); ++i)
        ASSERT_NEAR(res.frames()[static_cast<size_t>(f)].at(i, j),
                    want.at(i, j), 1e-9)
            << "seed " << GetParam() << " frame " << f;
    prev_y = y;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFeedback, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Fault-injected random chains: jitter, overruns, stalls, slow cores and
// delivery delays reorder and retime everything, but values never change.

class FaultedRandomChain : public ::testing::TestWithParam<int> {};

TEST_P(FaultedRandomChain, TimingFaultsNeverChangeValues) {
  std::uint64_t rng = 0xFA0173 ^ (static_cast<std::uint64_t>(GetParam()) << 21);
  const Size2 frame{static_cast<int>(20 + splitmix(rng) % 16),
                    static_cast<int>(18 + splitmix(rng) % 10)};
  const double rate = 50.0 + static_cast<double>(splitmix(rng) % 300);
  const int frames = 2;
  Size2 left = frame;
  const std::vector<Stage> stages = random_stages(rng, 4, left);

  Graph g;
  Kernel* prev = &g.add<InputKernel>("input", frame, rate, frames);
  for (size_t i = 0; i < stages.size(); ++i) {
    Kernel* k = stages[i].append(g, static_cast<int>(i));
    g.connect(*prev, "out", *k, "in");
    prev = k;
  }
  auto& out = g.add<OutputKernel>("result");
  g.connect(*prev, "out", out, "in");
  CompiledApp app = compile(std::move(g));

  fault::FaultPlan p = fault::parse_plan(
      "{\"kernels\": [{\"jitter\": 0.3, \"overrun_prob\": 0.15, "
      "\"overrun_factor\": 4.0, \"stall_prob\": 0.03, "
      "\"stall_seconds\": 8e-5}], "
      "\"cores\": [{\"core\": 1, \"throttle\": 1.5}], "
      "\"delivery\": [{\"match\": \"stage*\", \"prob\": 0.08, "
      "\"delay_seconds\": 4e-5}]}");
  fault::Injector inj(p, static_cast<std::uint64_t>(GetParam()));
  RuntimeOptions ropt;
  ropt.injector = &inj;
  const RuntimeResult r = run_threaded(app.graph, app.mapping, ropt);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_GT(r.faults_injected, 0) << "plan matched nothing";

  const auto& res = dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
  ASSERT_EQ(res.frames().size(), static_cast<size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    Tile want = ref::make_frame(frame, f, default_pixel_fn());
    for (const Stage& s : stages) want = s.reference(want);
    ASSERT_EQ(res.frames()[static_cast<size_t>(f)].size(), want.size());
    for (int y = 0; y < want.height(); ++y)
      for (int x = 0; x < want.width(); ++x)
        ASSERT_NEAR(res.frames()[static_cast<size_t>(f)].at(x, y),
                    want.at(x, y), 1e-9)
            << "seed " << GetParam() << " frame " << f << " at (" << x << ','
            << y << ')';
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultedRandomChain, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Shedding random chains: under an impossible deadline the source drops
// whole frames at frame boundaries — survivors stay bit-exact and in
// source order, and the shed/completed accounting covers every frame.

class ShedRandomChain : public ::testing::TestWithParam<int> {};

TEST_P(ShedRandomChain, ShedsWholeFramesOnlyAndSurvivorsStayExact) {
  std::uint64_t rng = 0x5EDD ^ (static_cast<std::uint64_t>(GetParam()) << 17);
  const Size2 frame{static_cast<int>(14 + splitmix(rng) % 8),
                    static_cast<int>(12 + splitmix(rng) % 6)};
  const double rate = 200.0;  // 5 ms per frame, paced
  const int frames = 5;
  Size2 left = frame;
  const std::vector<Stage> stages = random_stages(rng, 3, left);

  Graph g;
  Kernel* prev = &g.add<InputKernel>("input", frame, rate, frames);
  for (size_t i = 0; i < stages.size(); ++i) {
    Kernel* k = stages[i].append(g, static_cast<int>(i));
    g.connect(*prev, "out", *k, "in");
    prev = k;
  }
  auto& out = g.add<OutputKernel>("result");
  g.connect(*prev, "out", out, "in");
  CompiledApp app = compile(std::move(g));

  fault::DegradationPolicy pol;
  pol.shed = true;
  pol.rate_hz = 1e6;  // 1 us deadline: every post-anchor frame misses
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

  const std::vector<std::int64_t> shed = ctrl.shed_frames();
  const auto& res = dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
  ASSERT_EQ(res.frames().size(), static_cast<size_t>(frames) - shed.size());
  size_t out_idx = 0;
  for (int f = 0; f < frames; ++f) {
    if (std::find(shed.begin(), shed.end(), f) != shed.end()) continue;
    Tile want = ref::make_frame(frame, f, default_pixel_fn());
    for (const Stage& s : stages) want = s.reference(want);
    ASSERT_EQ(res.frames()[out_idx].size(), want.size());
    for (int y = 0; y < want.height(); ++y)
      for (int x = 0; x < want.width(); ++x)
        ASSERT_NEAR(res.frames()[out_idx].at(x, y), want.at(x, y), 1e-9)
            << "seed " << GetParam() << " source frame " << f;
    ++out_idx;
  }
  EXPECT_EQ(ctrl.frames_completed() + ctrl.frames_shed(), frames);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShedRandomChain, ::testing::Range(0, 4));

}  // namespace
}  // namespace bpp
