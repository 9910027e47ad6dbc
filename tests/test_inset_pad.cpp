// Inset (trim) and pad kernels (paper §III-C): pixel-exact edge handling
// and token rewriting to the new frame geometry.

#include <gtest/gtest.h>

#include "kernels/border.h"
#include "runtime/runtime.h"
#include "test_util.h"

namespace bpp {
namespace {

using testutil::ItemSink;
using testutil::ScriptedSource;
using testutil::scanline_items;

struct TrimCase {
  Size2 frame;
  Border border;
};

class InsetTrim : public ::testing::TestWithParam<TrimCase> {};

TEST_P(InsetTrim, KeepsExactlyTheInterior) {
  const auto& c = GetParam();
  auto value = [](int x, int y) { return x + 100.0 * y; };

  Graph g;
  auto& src = g.add<ScriptedSource>("src", scanline_items(c.frame, value), c.frame);
  auto& inset = g.add<InsetKernel>("inset", c.border, c.frame);
  auto& sink = g.add<ItemSink>("sink");
  g.connect(src, "out", inset, "in");
  g.connect(inset, "out", sink, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  const Size2 of = inset.out_frame();
  EXPECT_EQ(sink.data_count(), of.area());
  EXPECT_EQ(sink.token_count(tok::kEndOfLine), of.h);
  EXPECT_EQ(sink.token_count(tok::kEndOfFrame), 1);

  size_t n = 0;
  for (int y = 0; y < of.h; ++y)
    for (int x = 0; x < of.w; ++x) {
      while (n < sink.log.size() && sink.log[n] <= -1000.0) ++n;
      ASSERT_LT(n, sink.log.size());
      EXPECT_DOUBLE_EQ(sink.log[n++],
                       value(x + c.border.left, y + c.border.top));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InsetTrim,
    ::testing::Values(TrimCase{{8, 6}, {1, 1, 1, 1}},
                      TrimCase{{8, 6}, {0, 0, 0, 0}},
                      TrimCase{{8, 6}, {2, 0, 0, 3}},
                      TrimCase{{5, 5}, {2, 2, 2, 2}},
                      TrimCase{{10, 3}, {4, 0, 5, 0}},
                      TrimCase{{6, 9}, {0, 4, 0, 4}}));

TEST(InsetKernel, RejectsEmptyResult) {
  EXPECT_THROW(InsetKernel("x", {3, 0, 3, 0}, {6, 6}), GraphError);
  EXPECT_THROW(InsetKernel("x", {-1, 0, 0, 0}, {6, 6}), GraphError);
}

TEST(InsetKernel, MultiFrameStateReset) {
  const Size2 frame{5, 4};
  std::vector<Item> items;
  for (int f = 0; f < 2; ++f) {
    auto s = scanline_items(frame, [f](int x, int y) { return f * 100 + x + 10 * y; },
                            false);
    items.insert(items.end(), s.begin(), s.end());
  }
  items.push_back(testutil::token(tok::kEndOfStream));

  Graph g;
  auto& src = g.add<ScriptedSource>("src", items, frame);
  auto& inset = g.add<InsetKernel>("inset", Border{1, 1, 1, 1}, frame);
  auto& sink = g.add<ItemSink>("sink");
  g.connect(src, "out", inset, "in");
  g.connect(inset, "out", sink, "in");
  ASSERT_TRUE(run_sequential(g).completed);
  EXPECT_EQ(sink.data_count(), 2L * 3 * 2);
  EXPECT_EQ(sink.token_count(tok::kEndOfFrame), 2);
}

struct PadCase {
  Size2 frame;
  Border border;
};

class PadZero : public ::testing::TestWithParam<PadCase> {};

TEST_P(PadZero, SurroundsWithZeros) {
  const auto& c = GetParam();
  auto value = [](int x, int y) { return 1.0 + x + 100.0 * y; };  // nonzero

  Graph g;
  auto& src = g.add<ScriptedSource>("src", scanline_items(c.frame, value), c.frame);
  auto& pad = g.add<PadKernel>("pad", c.border, c.frame);
  auto& sink = g.add<ItemSink>("sink");
  g.connect(src, "out", pad, "in");
  g.connect(pad, "out", sink, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  const Size2 of = pad.out_frame();
  EXPECT_EQ(sink.data_count(), of.area());
  EXPECT_EQ(sink.token_count(tok::kEndOfLine), of.h);

  size_t n = 0;
  for (int y = 0; y < of.h; ++y)
    for (int x = 0; x < of.w; ++x) {
      while (n < sink.log.size() && sink.log[n] <= -1000.0) ++n;
      ASSERT_LT(n, sink.log.size());
      const int sx = x - c.border.left;
      const int sy = y - c.border.top;
      const bool interior =
          sx >= 0 && sx < c.frame.w && sy >= 0 && sy < c.frame.h;
      EXPECT_DOUBLE_EQ(sink.log[n++], interior ? value(sx, sy) : 0.0)
          << "at (" << x << ',' << y << ')';
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PadZero,
    ::testing::Values(PadCase{{4, 3}, {1, 1, 1, 1}},
                      PadCase{{4, 3}, {0, 0, 0, 0}},
                      PadCase{{4, 3}, {2, 0, 0, 1}},
                      PadCase{{2, 2}, {3, 3, 3, 3}},
                      PadCase{{6, 1}, {0, 2, 0, 2}}));

TEST(PadKernel, TrimOfPadIsIdentity) {
  // pad by b then trim by b must reproduce the stream exactly.
  const Size2 frame{6, 5};
  const Border b{2, 1, 1, 2};
  auto value = [](int x, int y) { return 3.0 + x * y; };

  Graph g;
  auto& src = g.add<ScriptedSource>("src", scanline_items(frame, value), frame);
  auto& pad = g.add<PadKernel>("pad", b, frame);
  auto& inset = g.add<InsetKernel>(
      "inset", b, Size2{frame.w + b.left + b.right, frame.h + b.top + b.bottom});
  auto& sink = g.add<ItemSink>("sink");
  g.connect(src, "out", pad, "in");
  g.connect(pad, "out", inset, "in");
  g.connect(inset, "out", sink, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  size_t n = 0;
  for (int y = 0; y < frame.h; ++y)
    for (int x = 0; x < frame.w; ++x) {
      while (n < sink.log.size() && sink.log[n] <= -1000.0) ++n;
      ASSERT_LT(n, sink.log.size());
      EXPECT_DOUBLE_EQ(sink.log[n++], value(x, y));
    }
  EXPECT_EQ(sink.data_count(), frame.area());
}

TEST(InsetPad, CustomStreamTransforms) {
  StreamInfo in;
  in.frame = {10, 8};
  in.inset = {2.0, 2.0};
  in.scale = {1.0, 1.0};
  in.items_per_frame = 80;
  in.grid = {10, 8};

  InsetKernel tr("t", {1, 1, 1, 1}, {10, 8});
  auto out = tr.custom_output_stream(0, in);
  ASSERT_TRUE(out);
  EXPECT_EQ(out->frame, (Size2{8, 6}));
  EXPECT_EQ(out->inset, (Offset2{3.0, 3.0}));

  PadKernel pd("p", {1, 1, 1, 1}, {10, 8});
  out = pd.custom_output_stream(0, in);
  ASSERT_TRUE(out);
  EXPECT_EQ(out->frame, (Size2{12, 10}));
  EXPECT_EQ(out->inset, (Offset2{1.0, 1.0}));
}

TEST(InsetPad, SerialParallelKind) {
  // Scan-order FSMs must never be round-robin replicated.
  EXPECT_EQ(InsetKernel("t", {1, 1, 1, 1}, {8, 8}).parallel_kind(),
            ParKind::Serial);
  EXPECT_EQ(PadKernel("p", {1, 1, 1, 1}, {8, 8}).parallel_kind(),
            ParKind::Serial);
}

}  // namespace
}  // namespace bpp
