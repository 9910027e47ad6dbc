// Split/join/replicate FSMs (paper §IV-A, §IV-C, Fig. 10): round-robin
// distribution and collection, column-range splitting with halo
// replication, run-length joining, and token broadcast/collapse.

#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/multiplex.h"
#include "kernels/border.h"
#include "kernels/split_join.h"
#include "obs/recorder.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace bpp {
namespace {

using testutil::ItemSink;
using testutil::px;
using testutil::ScriptedSource;
using testutil::token;

std::vector<Item> numbered(int n, bool frame_tokens = true) {
  std::vector<Item> items;
  for (int i = 0; i < n; ++i) items.push_back(px(i));
  if (frame_tokens) {
    items.push_back(token(tok::kEndOfFrame));
  }
  items.push_back(token(tok::kEndOfStream));
  return items;
}

struct RRCase {
  int branches;
  int items;
};

class RoundRobinRoundTrip : public ::testing::TestWithParam<RRCase> {};

TEST_P(RoundRobinRoundTrip, SplitThenJoinIsIdentity) {
  const auto& c = GetParam();
  Graph g;
  auto& src = g.add<ScriptedSource>("src", numbered(c.items));
  auto& split = g.add<SplitKernel>("split", c.branches, Size2{1, 1}, Step2{1, 1});
  auto& join = g.add<JoinKernel>("join", c.branches, Size2{1, 1}, Step2{1, 1});
  auto& sink = g.add<ItemSink>("sink");
  g.connect(src, "out", split, "in");
  for (int i = 0; i < c.branches; ++i)
    g.connect(split, "out" + std::to_string(i), join, "in" + std::to_string(i));
  g.connect(join, "out", sink, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  ASSERT_EQ(sink.data_count(), c.items);
  int expect = 0;
  for (double v : sink.log)
    if (v > -1000.0) {
      EXPECT_DOUBLE_EQ(v, expect++);
    }
  // One EOF collapsed from the broadcast copies.
  EXPECT_EQ(sink.token_count(tok::kEndOfFrame), 1);
  EXPECT_EQ(sink.token_count(tok::kEndOfStream), 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RoundRobinRoundTrip,
                         ::testing::Values(RRCase{2, 10}, RRCase{3, 10},
                                           RRCase{3, 9}, RRCase{4, 7},
                                           RRCase{1, 5}, RRCase{5, 23}));

TEST(SplitKernel, RoundRobinResetsAtEndOfFrame) {
  // 5 items over 2 branches, then EOF, then 4 more: after the EOF the
  // round-robin pointer restarts at branch 0, so branch 0 receives items
  // 0,2,4 of frame 1 and 5,7 of frame 2.
  std::vector<Item> items;
  for (int i = 0; i < 5; ++i) items.push_back(px(i));
  items.push_back(token(tok::kEndOfFrame));
  for (int i = 5; i < 9; ++i) items.push_back(px(i));
  items.push_back(token(tok::kEndOfFrame));
  items.push_back(token(tok::kEndOfStream));

  Graph g;
  auto& src = g.add<ScriptedSource>("src", items);
  auto& split = g.add<SplitKernel>("split", 2, Size2{1, 1}, Step2{1, 1});
  auto& s0 = g.add<ItemSink>("s0");
  auto& s1 = g.add<ItemSink>("s1");
  g.connect(split, "out0", s0, "in");
  g.connect(split, "out1", s1, "in");
  g.connect(src, "out", split, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  std::vector<double> d0, d1;
  for (double v : s0.log)
    if (v > -1000.0) d0.push_back(v);
  for (double v : s1.log)
    if (v > -1000.0) d1.push_back(v);
  EXPECT_EQ(d0, (std::vector<double>{0, 2, 4, 5, 7}));
  EXPECT_EQ(d1, (std::vector<double>{1, 3, 6, 8}));
  // Tokens broadcast to every branch.
  EXPECT_EQ(s0.token_count(tok::kEndOfFrame), 2);
  EXPECT_EQ(s1.token_count(tok::kEndOfFrame), 2);
  EXPECT_EQ(s1.token_count(tok::kEndOfStream), 1);
}

TEST(SplitKernel, ColumnRangesReplicateOverlap) {
  // Fig. 10: a 12-wide line split into [0,7) and [5,12): columns 5 and 6
  // go to both branches.
  std::vector<Item> items;
  for (int x = 0; x < 12; ++x) items.push_back(px(x));
  items.push_back(token(tok::kEndOfLine));
  for (int x = 0; x < 12; ++x) items.push_back(px(100 + x));
  items.push_back(token(tok::kEndOfLine));
  items.push_back(token(tok::kEndOfFrame));
  items.push_back(token(tok::kEndOfStream));

  Graph g;
  auto& src = g.add<ScriptedSource>("src", items);
  auto& split = g.add<SplitKernel>(
      "split", std::vector<std::pair<int, int>>{{0, 7}, {5, 12}}, 12,
      Size2{1, 1}, Step2{1, 1});
  auto& s0 = g.add<ItemSink>("s0");
  auto& s1 = g.add<ItemSink>("s1");
  g.connect(src, "out", split, "in");
  g.connect(split, "out0", s0, "in");
  g.connect(split, "out1", s1, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  std::vector<double> d0, d1;
  for (double v : s0.log)
    if (v > -1000.0) d0.push_back(v);
  for (double v : s1.log)
    if (v > -1000.0) d1.push_back(v);
  EXPECT_EQ(d0, (std::vector<double>{0, 1, 2, 3, 4, 5, 6,
                                     100, 101, 102, 103, 104, 105, 106}));
  EXPECT_EQ(d1, (std::vector<double>{5, 6, 7, 8, 9, 10, 11,
                                     105, 106, 107, 108, 109, 110, 111}));
  EXPECT_EQ(s0.token_count(tok::kEndOfLine), 2);
  EXPECT_EQ(s1.token_count(tok::kEndOfLine), 2);
}

TEST(SplitKernel, ColumnRangeValidation) {
  EXPECT_THROW(SplitKernel("s", std::vector<std::pair<int, int>>{{0, 13}}, 12,
                           Size2{1, 1}, Step2{1, 1}),
               GraphError);
  EXPECT_THROW(SplitKernel("s", std::vector<std::pair<int, int>>{{5, 5}}, 12,
                           Size2{1, 1}, Step2{1, 1}),
               GraphError);
  EXPECT_THROW(SplitKernel("s", 0, Size2{1, 1}, Step2{1, 1}), GraphError);
}

TEST(JoinKernel, RunLengthCollectsPerLineRuns) {
  // Branch feeds: b0 delivers 3 items + EOL per line, b1 delivers 2 + EOL;
  // the join emits 0,1,2 from b0 then 10,11 from b1 per line.
  std::vector<Item> b0items, b1items;
  for (int line = 0; line < 2; ++line) {
    for (int i = 0; i < 3; ++i) b0items.push_back(px(line * 100 + i));
    b0items.push_back(token(tok::kEndOfLine, line));
    for (int i = 0; i < 2; ++i) b1items.push_back(px(line * 100 + 10 + i));
    b1items.push_back(token(tok::kEndOfLine, line));
  }
  b0items.push_back(token(tok::kEndOfFrame));
  b0items.push_back(token(tok::kEndOfStream));
  b1items.push_back(token(tok::kEndOfFrame));
  b1items.push_back(token(tok::kEndOfStream));

  Graph g;
  auto& src0 = g.add<ScriptedSource>("src0", b0items);
  auto& src1 = g.add<ScriptedSource>("src1", b1items);
  auto& join = g.add<JoinKernel>("join", std::vector<int>{3, 2}, Size2{1, 1},
                                 Step2{1, 1});
  auto& sink = g.add<ItemSink>("sink");
  g.connect(src0, "out", join, "in0");
  g.connect(src1, "out", join, "in1");
  g.connect(join, "out", sink, "in");
  ASSERT_TRUE(run_sequential(g).completed);

  std::vector<double> data;
  for (double v : sink.log)
    if (v > -1000.0) data.push_back(v);
  EXPECT_EQ(data, (std::vector<double>{0, 1, 2, 10, 11,
                                       100, 101, 102, 110, 111}));
  EXPECT_EQ(sink.token_count(tok::kEndOfLine), 2);
  EXPECT_EQ(sink.token_count(tok::kEndOfFrame), 1);
}

TEST(JoinKernel, RunLengthSkipsZeroRuns) {
  JoinKernel j("j", std::vector<int>{0, 2, 0, 1}, Size2{1, 1}, Step2{1, 1});
  j.ensure_configured();
  // First active branch is 1; consume pattern 1,1,3 per line — verified via
  // decide_custom inspection.
  Item d = px(1);
  auto head = [&](int p) -> const Item* { return p == 1 ? &d : nullptr; };
  FireDecision dec;
  ASSERT_TRUE(j.decide_custom({0, 1, 2, 3}, head, dec));
  EXPECT_EQ(dec.pop_inputs, (std::vector<int>{1}));
}

TEST(SplitJoin, SinkCountsFramesAfterForwardersTakeTheirInput) {
  // Split, join and inset move each tile out of the engine's popped item
  // (Kernel::take_input). The engines read only tokens after a firing, so
  // the sink's end-of-frame and end-of-stream accounting is unchanged:
  // both frames end and the run completes, on both engines.
  const Size2 frame{4, 3};
  std::vector<Item> items;
  for (int f = 0; f < 2; ++f) {
    for (int y = 0; y < frame.h; ++y) {
      for (int x = 0; x < frame.w; ++x) items.push_back(px(100 * f + 10 * y + x));
      items.push_back(token(tok::kEndOfLine, y));
    }
    items.push_back(token(tok::kEndOfFrame, f));
  }
  items.push_back(token(tok::kEndOfStream));
  auto build = [&](Graph& g) -> ItemSink& {
    auto& src = g.add<ScriptedSource>("src", items);
    auto& split = g.add<SplitKernel>("split", 2, Size2{1, 1}, Step2{1, 1});
    auto& join = g.add<JoinKernel>("join", 2, Size2{1, 1}, Step2{1, 1});
    auto& inset = g.add<InsetKernel>("inset", Border{1, 1, 1, 1}, frame);
    auto& sink = g.add<ItemSink>("sink");
    g.connect(src, "out", split, "in");
    for (int i = 0; i < 2; ++i)
      g.connect(split, "out" + std::to_string(i), join, "in" + std::to_string(i));
    g.connect(join, "out", inset, "in");
    g.connect(inset, "out", sink, "in");
    return sink;
  };
  const std::vector<double> want{
      11, 12, -(1000.0 + tok::kEndOfLine), -(1000.0 + tok::kEndOfFrame),
      111, 112, -(1000.0 + tok::kEndOfLine), -(1000.0 + tok::kEndOfFrame),
      -(1000.0 + tok::kEndOfStream)};

  Graph gs;
  ItemSink& sim_sink = build(gs);
  const SimResult sr = simulate(gs, map_one_to_one(gs));
  ASSERT_TRUE(sr.completed);
  ASSERT_NE(sr.frame_times(gs.id_of(sim_sink)), nullptr);
  EXPECT_EQ(sr.frame_times(gs.id_of(sim_sink))->size(), 2u);
  EXPECT_EQ(sim_sink.log, want);

  Graph gh;
  ItemSink& host_sink = build(gh);
  obs::Recorder rec;
  RuntimeOptions opt;
  opt.recorder = &rec;
  const RuntimeResult hr = run_threaded(gh, map_one_to_one(gh), opt);
  ASSERT_TRUE(hr.completed);  // the sink counted its end-of-stream
  std::vector<int> frame_ends;  // frame indices, from the EOF payloads
  for (const obs::TraceEvent& e : rec.trace().events)
    if (e.kind == obs::EventKind::kFrameEnd && e.kernel == gh.id_of(host_sink))
      frame_ends.push_back(e.method);
  std::sort(frame_ends.begin(), frame_ends.end());
  EXPECT_EQ(frame_ends, (std::vector<int>{0, 1}));
  EXPECT_EQ(host_sink.log, want);
}

TEST(ReplicateKernel, CopiesToAllBranches) {
  Graph g;
  auto& src = g.add<ScriptedSource>("src", numbered(4));
  auto& rep = g.add<ReplicateKernel>("rep", 3, Size2{1, 1}, Step2{1, 1});
  auto& s0 = g.add<ItemSink>("s0");
  auto& s1 = g.add<ItemSink>("s1");
  auto& s2 = g.add<ItemSink>("s2");
  g.connect(src, "out", rep, "in");
  g.connect(rep, "out0", s0, "in");
  g.connect(rep, "out1", s1, "in");
  g.connect(rep, "out2", s2, "in");
  ASSERT_TRUE(run_sequential(g).completed);
  for (ItemSink* s : {&s0, &s1, &s2}) {
    EXPECT_EQ(s->data_count(), 4);
    EXPECT_EQ(s->token_count(tok::kEndOfFrame), 1);
    EXPECT_EQ(s->token_count(tok::kEndOfStream), 1);
  }
}

/// Fires `k`'s data method once on a heap-stored 4x4 tile of `v`; returns
/// the tile's original storage block and the emissions.
std::pair<const double*, std::vector<Emission>> fire_heap_tile(Kernel& k,
                                                               double v) {
  Item in = Tile(Size2{4, 4}, v);
  const double* block = as_tile(in).data();
  ExecContext ctx;
  Fifo<Emission> out;
  ctx.bind_output(out);
  ctx.bind_input(0, &in);
  k.invoke(0, ctx);
  std::vector<Emission> emitted;
  while (!out.empty()) {
    emitted.push_back(std::move(out.front()));
    out.pop_front();
  }
  return {block, std::move(emitted)};
}

TEST(SplitJoin, LastReceivingBranchTakesTheTile) {
  // A replicate kernel copies into every branch but the last; the last
  // one gets the popped tile itself, its storage block included.
  ReplicateKernel rep("rep", 3, Size2{4, 4}, Step2{4, 4});
  rep.ensure_configured();
  const auto [block, emitted] = fire_heap_tile(rep, 7.0);
  ASSERT_EQ(emitted.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(emitted[i].port, static_cast<int>(i));
    EXPECT_EQ(as_tile(emitted[i].item).at(0, 0), 7.0);
    EXPECT_EQ(as_tile(emitted[i].item).data() == block, i == 2);
  }
}

TEST(JoinKernel, TokensWaitForAllBranches) {
  JoinKernel j("j", 2, Size2{1, 1}, Step2{1, 1});
  j.ensure_configured();
  Item eof = token(tok::kEndOfFrame);
  // EOF on branch 0 only: wait (branch 1 may still carry frame data).
  auto head1 = [&](int p) -> const Item* { return p == 0 ? &eof : nullptr; };
  FireDecision d1;
  ASSERT_TRUE(j.decide_custom({0, 1}, head1, d1));
  EXPECT_FALSE(d1.fires());
  // EOF on both: the handler fires (resets FSM, forwards one copy).
  Item eof2 = token(tok::kEndOfFrame);
  auto head2 = [&](int p) -> const Item* { return p == 0 ? &eof : &eof2; };
  FireDecision d2;
  ASSERT_TRUE(j.decide_custom({0, 1}, head2, d2));
  EXPECT_EQ(d2.kind, FireDecision::Kind::Method);
  EXPECT_EQ(d2.pop_inputs.size(), 2u);
}

}  // namespace
}  // namespace bpp
