// Firing rules (paper §II-B/§II-C): data triggers, token triggers, and
// automatic in-order forwarding of unhandled control tokens — including
// the multi-input pairing rule of the subtract kernel. Also the firing step
// both engines share around the decision: wiring, fire, drain and frame
// bookkeeping.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <new>
#include <string>

#include "core/firing.h"
#include "core/graph.h"
#include "kernels/convolution.h"
#include "kernels/elementwise.h"
#include "kernels/histogram.h"
#include "kernels/median.h"
#include "kernels/split_join.h"
#include "test_util.h"

// Every allocation in this binary goes through these, plain and
// over-aligned alike (containers of Items use the align_val_t forms), so a
// test can count the heap allocations of a region of code.
namespace {
long g_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a whole, nonzero number of alignment units.
  if (void* p = std::aligned_alloc(a, (n / a + 1) * a)) return p;
  throw std::bad_alloc();
}
// All out of line, so the compiler sees new paired with delete rather than
// malloc with delete (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace bpp {
namespace {

using testutil::px;
using testutil::token;

/// Fixed head items per port for driving decide_fire directly. Passed to
/// decide_fire as-is: HeadFn is a non-owning view, so the callable must
/// outlive the call (a lambda returned from a helper would dangle).
struct Heads {
  std::vector<const Item*> items;
  const Item* operator()(int p) const {
    return p < static_cast<int>(items.size()) ? items[static_cast<size_t>(p)]
                                              : nullptr;
  }
};

/// A head view whose "in" (port 0) reads empty the first time it is asked
/// and `pixel` after that, as when a producer's push lands between two
/// reads of one decision. Every other port is empty.
struct ArrivingHeads {
  const Item* pixel;
  mutable int in_reads = 0;
  const Item* operator()(int p) const {
    if (p != 0) return nullptr;
    return in_reads++ == 0 ? nullptr : pixel;
  }
};

/// Wire `k` the way both engines do: its "in" fed by a source and, when
/// `with_param`, its parameter input `param` by another.
KernelPorts wire_with_param(Graph& g, Kernel& k, const std::string& param,
                            bool with_param) {
  auto& data = g.add<testutil::ScriptedSource>("data", std::vector<Item>{});
  g.connect(data, "out", k, "in");
  if (with_param) {
    auto& p = g.add<testutil::ScriptedSource>("param", std::vector<Item>{});
    g.connect(p, "out", k, param);
  }
  return wire_kernel(g, g.id_of(k));
}

/// The kernels with a parameter input (Fig. 2's dashed edges): port 0 is
/// "in", port 1 the parameter, loaded by method `load`; `run` is the
/// data method.
struct ParamCase {
  std::function<Kernel&(Graph&)> add;
  std::string param, load, run;
  Item param_item, data_item;
};

std::vector<ParamCase> param_cases() {
  return {
      {[](Graph& g) -> Kernel& { return g.add<HistogramKernel>("k", 8); },
       "bins", "configureBins", "count",
       HistogramKernel::uniform_bins(8, 0.0, 8.0), px(3)},
      {[](Graph& g) -> Kernel& { return g.add<ConvolutionKernel>("k", 3, 3); },
       "coeff", "loadCoeff", "runConvolve", Tile(Size2{3, 3}, 1.0),
       Tile(Size2{3, 3}, 2.0)},
  };
}

std::string method_of(const Kernel& k, const FireDecision& d) {
  if (d.kind != FireDecision::Kind::Method) return "<none>";
  return k.methods()[static_cast<size_t>(d.method)].name;
}

TEST(Firing, DataMethodFiresWhenAllInputsHaveData) {
  auto sub = make_subtract("sub");
  sub->ensure_configured();
  Item a = px(1), b = px(2);
  Heads h{{&a, &b}};
  const FireDecision d = decide_fire(*sub, {0, 1}, h);
  ASSERT_EQ(d.kind, FireDecision::Kind::Method);
  EXPECT_EQ(sub->methods()[static_cast<size_t>(d.method)].name, "run");
  EXPECT_EQ(d.pop_inputs, (std::vector<int>{0, 1}));
}

TEST(Firing, DataMethodWaitsForSecondInput) {
  auto sub = make_subtract("sub");
  sub->ensure_configured();
  Item a = px(1);
  Heads h{{&a, nullptr}};
  EXPECT_FALSE(decide_fire(*sub, {0, 1}, h).fires());
}

TEST(Firing, TokenForwardRequiresSameClassOnBothInputs) {
  auto sub = make_subtract("sub");
  sub->ensure_configured();
  Item eol = token(tok::kEndOfLine);
  Item eof = token(tok::kEndOfFrame);

  {  // EOL on in0 only: wait.
    Heads h{{&eol, nullptr}};
    EXPECT_FALSE(decide_fire(*sub, {0, 1}, h).fires());
  }
  {  // EOL vs EOF: wait (mismatched classes never merge).
    Heads h{{&eol, &eof}};
    EXPECT_FALSE(decide_fire(*sub, {0, 1}, h).fires());
  }
  {  // EOL on both: forward one copy to the method's outputs.
    Item eol2 = token(tok::kEndOfLine);
    Heads h{{&eol, &eol2}};
    const FireDecision d = decide_fire(*sub, {0, 1}, h);
    ASSERT_EQ(d.kind, FireDecision::Kind::Forward);
    EXPECT_EQ(d.token, tok::kEndOfLine);
    EXPECT_EQ(d.pop_inputs, (std::vector<int>{0, 1}));
    EXPECT_EQ(d.forward_outputs, (std::vector<int>{0}));
  }
}

TEST(Firing, TokenAndDataMixWaitsForPair) {
  // in0 head is a token, in1 head is data: neither the method nor the
  // forward can act; the streams are momentarily skewed.
  auto sub = make_subtract("sub");
  sub->ensure_configured();
  Item eol = token(tok::kEndOfLine);
  Item d0 = px(3);
  Heads h{{&eol, &d0}};
  EXPECT_FALSE(decide_fire(*sub, {0, 1}, h).fires());
}

TEST(Firing, RegisteredTokenMethodFiresInsteadOfForwarding) {
  HistogramKernel hist("hist", 8);
  hist.ensure_configured();
  Item eof = token(tok::kEndOfFrame, 4);
  Heads h{{&eof, nullptr}};
  // bins unconnected: default ranges, tokens are processed immediately.
  const FireDecision d = decide_fire(hist, {0}, h);
  ASSERT_EQ(d.kind, FireDecision::Kind::Method);
  EXPECT_EQ(hist.methods()[static_cast<size_t>(d.method)].name, "finishCount");
  EXPECT_EQ(d.token, tok::kEndOfFrame);
  EXPECT_EQ(d.payload, 4);
}

TEST(Firing, UnhandledTokenOnOutputlessMethodIsDropped) {
  // Histogram count() has no outputs; an EOL is consumed with no forward.
  HistogramKernel hist("hist", 8);
  hist.ensure_configured();
  Item eol = token(tok::kEndOfLine);
  Heads h{{&eol, nullptr}};
  const FireDecision d = decide_fire(hist, {0}, h);
  ASSERT_EQ(d.kind, FireDecision::Kind::Forward);
  EXPECT_TRUE(d.forward_outputs.empty());
  EXPECT_EQ(d.pop_inputs, (std::vector<int>{0}));
}

TEST(Firing, TokensHeldWhileBinRangesPending) {
  // With the bins input wired but not yet delivered, even frame tokens
  // wait: finishing a count with default ranges would be wrong.
  Graph g;
  auto& hist = g.add<HistogramKernel>("hist", 8);
  const KernelPorts ports = wire_with_param(g, hist, "bins", true);
  Item eof = token(tok::kEndOfFrame);
  Heads h{{&eof, nullptr}};
  EXPECT_FALSE(decide_fire(hist, ports.connected, h).fires());
}

TEST(Firing, HistogramHoldsDataUntilBinsConfigured) {
  Item d0 = px(10);
  {
    Graph g;
    auto& hist = g.add<HistogramKernel>("hist", 8);
    const KernelPorts ports = wire_with_param(g, hist, "bins", true);
    {  // data present, bins pending: wait.
      Heads h{{&d0, nullptr}};
      EXPECT_FALSE(decide_fire(hist, ports.connected, h).fires());
    }
    {  // bins present: configureBins wins.
      Item bins = Tile(Size2{8, 1}, 1.0);
      Heads h{{&d0, &bins}};
      EXPECT_EQ(method_of(hist, decide_fire(hist, ports.connected, h)),
                "configureBins");
    }
  }
  {  // without a wired bins input the default ranges apply immediately.
    Graph g;
    auto& hist = g.add<HistogramKernel>("hist", 8);
    const KernelPorts ports = wire_with_param(g, hist, "bins", false);
    Heads h{{&d0, nullptr}};
    EXPECT_EQ(method_of(hist, decide_fire(hist, ports.connected, h)), "count");
  }
}

TEST(Firing, PendingParameterHoldsDataArrivingMidDecision) {
  // While the parameter is pending, nothing but its load fires, whatever
  // "in" shows, and "in" is not even read: a pixel pushed between two
  // reads of one decision must not fire the data method (a histogram
  // then loses the count when configureBins zeroes its bins).
  for (const ParamCase& c : param_cases()) {
    SCOPED_TRACE(c.param);
    Graph g;
    Kernel& k = c.add(g);
    const KernelPorts ports = wire_with_param(g, k, c.param, true);
    const Item eof = token(tok::kEndOfFrame);
    for (const Item* in : {static_cast<const Item*>(nullptr), &c.data_item,
                           &eof}) {
      Heads h{{in, nullptr}};
      EXPECT_FALSE(decide_fire(k, ports.connected, h).fires());
    }
    ArrivingHeads arriving{&c.data_item};
    EXPECT_EQ(method_of(k, decide_fire(k, ports.connected, arriving)),
              "<none>");
    EXPECT_EQ(arriving.in_reads, 0);
  }
}

TEST(Firing, ParameterLoadsThroughTheSharedStepBeforeData) {
  for (const ParamCase& c : param_cases()) {
    SCOPED_TRACE(c.param);
    Graph g;
    Kernel& k = c.add(g);
    KernelPorts ports = wire_with_param(g, k, c.param, true);
    // Parameter data at the head: its load method fires first.
    FireDecision d = decide_fire(k, ports.connected,
                                 Heads{{&c.data_item, &c.param_item}});
    ASSERT_EQ(method_of(k, d), c.load);
    ExecContext ctx;
    std::vector<Item> popped{c.param_item};
    fire(k, d, popped, ctx, ports.pending);
    // Loaded through the shared fire step: data fires.
    d = decide_fire(k, ports.connected, Heads{{&c.data_item, nullptr}});
    EXPECT_EQ(method_of(k, d), c.run);
  }
}

/// Decide and fire `k` once per head view in `steps`, each of which must
/// fire, and return what the firings emitted.
std::vector<Item> fire_steps(Kernel& k, KernelPorts& ports,
                             const std::vector<Heads>& steps) {
  ExecContext ctx;
  for (const Heads& h : steps) {
    const FireDecision d = decide_fire(k, ports.connected, h);
    EXPECT_TRUE(d.fires());
    std::vector<Item> popped;
    for (int p : d.pop_inputs) popped.push_back(*h(p));
    fire(k, d, popped, ctx, ports.pending);
  }
  std::vector<Item> out;
  for (; !ports.pending.empty(); ports.pending.pop_front())
    out.push_back(ports.pending.front().item);
  return out;
}

TEST(Firing, DataFiresOnTheLoadedParameterOrTheDefault) {
  // Wired, data fires after the parameter loads and on it; unwired, at
  // once on the default: uniform bins over [0, 256), the identity filter.
  const Item pixel = px(3), eof = token(tok::kEndOfFrame);
  const Item bins = HistogramKernel::uniform_bins(8, 0.0, 8.0);
  for (const bool wired : {true, false}) {
    SCOPED_TRACE(wired ? "wired" : "unwired");
    Graph g;
    auto& hist = g.add<HistogramKernel>("hist", 8);
    KernelPorts ports = wire_with_param(g, hist, "bins", wired);
    std::vector<Heads> steps{Heads{{&pixel, nullptr}}, Heads{{&eof, nullptr}}};
    if (wired) steps.insert(steps.begin(), Heads{{&pixel, &bins}});
    const std::vector<Item> out = fire_steps(hist, ports, steps);
    ASSERT_EQ(out.size(), 2u);  // the counts, then the frame's end
    const Tile& counts = as_tile(out[0]);
    for (int b = 0; b < 8; ++b)  // 3 is in [3, 4) loaded, [0, 32) default
      EXPECT_EQ(counts.at(b, 0), b == (wired ? 3 : 0) ? 1.0 : 0.0) << b;
  }

  Tile window(Size2{3, 3}, 2.0);
  window.at(1, 1) = 5.0;
  const Item win = window, coeff = Tile(Size2{3, 3}, 1.0);
  for (const bool wired : {true, false}) {
    SCOPED_TRACE(wired ? "wired" : "unwired");
    Graph g;
    auto& conv = g.add<ConvolutionKernel>("conv", 3, 3);
    KernelPorts ports = wire_with_param(g, conv, "coeff", wired);
    std::vector<Heads> steps{Heads{{&win, nullptr}}};
    if (wired) steps.insert(steps.begin(), Heads{{&win, &coeff}});
    const std::vector<Item> out = fire_steps(conv, ports, steps);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(as_tile(out[0]).at(0, 0), wired ? 21.0 : 5.0);
  }
}

TEST(Firing, MethodPriorityFollowsRegistrationOrder) {
  HistogramKernel hist("hist", 8);
  hist.ensure_configured();
  // Both the bins tile and data available: configureBins is registered
  // first and must win so counting uses the new ranges.
  Item d0 = px(1);
  Item bins = Tile(Size2{8, 1}, 2.0);
  Heads h{{&d0, &bins}};
  const FireDecision d = decide_fire(hist, {0, 1}, h);
  ASSERT_EQ(d.kind, FireDecision::Kind::Method);
  EXPECT_EQ(hist.methods()[static_cast<size_t>(d.method)].name, "configureBins");
}

TEST(Firing, EmptyHeadsNoDecision) {
  auto sub = make_subtract("sub");
  sub->ensure_configured();
  Heads h{{nullptr, nullptr}};
  EXPECT_FALSE(decide_fire(*sub, {0, 1}, h).fires());
}

TEST(Firing, ForwardPayloadPreserved) {
  auto sc = make_scale("s", 2.0, 0.0);
  sc->ensure_configured();
  Item eof = token(tok::kEndOfFrame, 17);
  Heads h{{&eof}};
  const FireDecision d = decide_fire(*sc, {0}, h);
  ASSERT_EQ(d.kind, FireDecision::Kind::Forward);
  EXPECT_EQ(d.payload, 17);
}

TEST(Firing, WarmDecisionsDoNotAllocate) {
  // Both engines decide on every scheduling step and most decisions fail,
  // so a decision object reused across steps must stop allocating once
  // its vectors have grown: not-ready and forward decisions alike.
  auto sub = make_subtract("sub");
  sub->ensure_configured();
  const std::vector<int> connected{0, 1};
  Item d0 = px(1);
  Item eol = token(tok::kEndOfLine), eol2 = token(tok::kEndOfLine);
  Heads not_ready{{&d0, nullptr}};
  Heads forward{{&eol, &eol2}};
  FireDecision d;
  decide_fire_into(*sub, connected, forward, d);  // warm-up
  ASSERT_EQ(d.kind, FireDecision::Kind::Forward);

  const long before = g_allocations;
  bool all_not_ready = true, all_forward = true;
  for (int i = 0; i < 100; ++i) {
    decide_fire_into(*sub, connected, not_ready, d);
    all_not_ready = all_not_ready && !d.fires();
    decide_fire_into(*sub, connected, forward, d);
    all_forward = all_forward && d.kind == FireDecision::Kind::Forward;
  }
  const long allocations = g_allocations - before;
  EXPECT_TRUE(all_not_ready);
  EXPECT_TRUE(all_forward);
  EXPECT_EQ(allocations, 0);
}

TEST(Firing, WireKernelRecordsPortsAndStagesInitialEmissions) {
  Graph g;
  auto& src = g.add<testutil::ScriptedSource>("src", std::vector<Item>{});
  auto& pass = g.add<testutil::PassKernel>("pass");
  auto& a = g.add<testutil::ItemSink>("a");
  auto& b = g.add<testutil::ItemSink>("b");
  const ChannelId in = g.connect(src, "out", pass, "in");
  const ChannelId to_a = g.connect(pass, "out", a, "in");
  const ChannelId to_b = g.connect(pass, "out", b, "in");

  const KernelPorts p = wire_kernel(g, g.id_of(pass));
  EXPECT_EQ(p.connected, (std::vector<int>{0}));
  EXPECT_EQ(p.in_channel, (std::vector<ChannelId>{in}));
  ASSERT_EQ(p.out_channels.size(), 1u);
  EXPECT_EQ(p.out_channels[0], (std::vector<ChannelId>{to_a, to_b}));
  EXPECT_EQ(p.outs, (std::vector<ChannelId>{to_a, to_b}));
  EXPECT_FALSE(p.is_sink);
  EXPECT_TRUE(p.pending.empty());
  EXPECT_TRUE(wire_kernel(g, g.id_of(a)).is_sink);
  EXPECT_FALSE(wire_kernel(g, g.id_of(src)).is_sink);  // no outputs needed
}

TEST(Firing, FireRunsMethodOrForwardsOntoPending) {
  auto sub = make_subtract("sub");
  sub->ensure_configured();
  ExecContext ctx;
  Fifo<Emission> pending;

  std::vector<Item> popped{px(5), px(3)};
  FireDecision d = decide_fire(*sub, {0, 1}, Heads{{&popped[0], &popped[1]}});
  ASSERT_EQ(d.kind, FireDecision::Kind::Method);
  EXPECT_EQ(fire(*sub, d, popped, ctx, pending),
            sub->methods()[static_cast<size_t>(d.method)].res.cycles);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_TRUE(is_data(pending.front().item));
  pending.pop_front();

  popped = {token(tok::kEndOfLine, 4), token(tok::kEndOfLine, 4)};
  d = decide_fire(*sub, {0, 1}, Heads{{&popped[0], &popped[1]}});
  ASSERT_EQ(d.kind, FireDecision::Kind::Forward);
  EXPECT_EQ(fire(*sub, d, popped, ctx, pending), 2);  // one FSM step
  ASSERT_EQ(pending.size(), 1u);  // the pair forwards one copy
  ASSERT_TRUE(is_token(pending.front().item));
  EXPECT_EQ(as_token(pending.front().item).cls, tok::kEndOfLine);
  EXPECT_EQ(as_token(pending.front().item).payload, 4);
}

TEST(Firing, WarmFireStepDoesNotAllocate) {
  // The host runtime fires, stages and drains on every step: once the
  // context and the pending queue have grown, a forward costs no heap.
  auto sub = make_subtract("sub");
  sub->ensure_configured();
  std::vector<Item> popped{token(tok::kEndOfLine), token(tok::kEndOfLine)};
  const FireDecision d =
      decide_fire(*sub, {0, 1}, Heads{{&popped[0], &popped[1]}});
  ASSERT_EQ(d.kind, FireDecision::Kind::Forward);
  ExecContext ctx;
  KernelPorts ports;
  ports.out_channels = {{0}};
  long pushed = 0;
  auto step = [&] {
    fire(*sub, d, popped, ctx, ports.pending);
    fire(*sub, d, popped, ctx, ports.pending);
    return drain_pending(
        ports, [](const std::vector<ChannelId>&) { return true; },
        [&](const std::vector<ChannelId>&, Emission&) { ++pushed; });
  };
  ASSERT_TRUE(step());  // warm-up

  const long before = g_allocations;
  bool drained = true;
  for (int i = 0; i < 100; ++i) drained = step() && drained;
  EXPECT_EQ(g_allocations - before, 0);
  EXPECT_TRUE(drained);
  EXPECT_EQ(pushed, 202);
}

TEST(Firing, WarmDataFireStepDoesNotAllocate) {
  // The common items: a 1x1 tile in, a 1x1 tile out, stored inline; and a
  // 3x3 window, made afresh for every firing as a buffer emits it, whose
  // block the tile block cache serves once warm. Neither step, method and
  // drain included, touches the heap once warm.
  auto sub = make_subtract("sub");
  sub->ensure_configured();
  std::vector<Item> popped{px(5), px(3)};
  const FireDecision d =
      decide_fire(*sub, {0, 1}, Heads{{&popped[0], &popped[1]}});
  ASSERT_EQ(d.kind, FireDecision::Kind::Method);
  MedianKernel median("median", 3, 3);
  median.ensure_configured();
  std::vector<Item> window{Tile(Size2{3, 3}, 4.0)};
  const FireDecision wd = decide_fire(median, {0}, Heads{{&window[0]}});
  ASSERT_EQ(wd.kind, FireDecision::Kind::Method);
  ExecContext ctx;
  KernelPorts ports;
  ports.out_channels = {{0}};
  double sum = 0.0;
  auto step = [&] {
    fire(*sub, d, popped, ctx, ports.pending);
    window[0] = Tile(Size2{3, 3}, 4.0);
    fire(median, wd, window, ctx, ports.pending);
    return drain_pending(
        ports, [](const std::vector<ChannelId>&) { return true; },
        [&](const std::vector<ChannelId>&, Emission& e) {
          sum += as_tile(e.item).at(0, 0);
        });
  };
  ASSERT_TRUE(step());  // warm-up

  long before = g_allocations;
  bool drained = true;
  for (int i = 0; i < 100; ++i) drained = step() && drained;
  EXPECT_EQ(g_allocations - before, 0);
  EXPECT_TRUE(drained);
  EXPECT_EQ(sum, 101 * (2.0 + 4.0));

  // Control: the counter sees tile storage, so the zero above is earned.
  // A tile past the largest cached block allocates on every construction.
  static_assert(11 * 11 + Tile::kPadDoubles > Tile::kMaxCachedDoubles);
  before = g_allocations;
  const Tile frame(11, 11);
  EXPECT_EQ(g_allocations - before, 1);
}

TEST(Firing, WarmJoinDecisionDoesNotAllocate) {
  // A join's decide_custom fills the engine's reused decision in place, so
  // its data and token decisions cost no heap once warm.
  JoinKernel join("join", 2, Size2{1, 1}, Step2{1, 1});
  join.ensure_configured();
  const Item pixel = px(1), eof = token(tok::kEndOfFrame, 7);
  const Heads data{{&pixel, &pixel}}, tokens{{&eof, &eof}};
  const std::vector<int> connected{0, 1};
  FireDecision d;
  auto step = [&] {
    decide_fire_into(join, connected, data, d);
    const bool took = d.kind == FireDecision::Kind::Method &&
                      d.pop_inputs.size() == 1 && d.pop_inputs[0] == 0;
    decide_fire_into(join, connected, tokens, d);
    return took && d.kind == FireDecision::Kind::Method && d.payload == 7 &&
           d.pop_inputs.size() == 2;
  };
  ASSERT_TRUE(step());  // warm-up

  const long before = g_allocations;
  bool decided = true;
  for (int i = 0; i < 100; ++i) decided = step() && decided;
  EXPECT_EQ(g_allocations - before, 0);
  EXPECT_TRUE(decided);
}

TEST(Firing, DrainStopsAtFirstPortWithoutSpace) {
  KernelPorts ports;
  ports.out_channels = {{0}, {1}};
  for (int port : {0, 1, 0}) ports.pending.push_back({port, px(port)});
  std::vector<int> pushed;
  EXPECT_FALSE(drain_pending(
      ports, [](const std::vector<ChannelId>& outs) { return outs[0] == 0; },
      [&](const std::vector<ChannelId>& outs, Emission&) {
        pushed.push_back(outs[0]);
      }));
  EXPECT_EQ(pushed, (std::vector<int>{0}));  // in order: port 1 blocks port 0
  EXPECT_EQ(ports.pending.size(), 2u);
}

TEST(Firing, FifoKeepsOrderAcrossWrapAndGrowth) {
  Fifo<Emission> q;
  std::vector<int> out;
  int next = 0;
  // Net growth of one per round: the head wraps the first ring and the
  // ring later grows while wrapped.
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 3; ++i) q.push_back({next++, token(tok::kEndOfLine)});
    for (int i = 0; i < 2; ++i) {
      out.push_back(q.front().port);
      q.pop_front();
    }
  }
  ASSERT_EQ(q.size(), 12u);
  // Indexed from the front: the walk back over the newest items.
  for (std::size_t i = q.size(); i > 0; --i)
    EXPECT_EQ(q[i - 1].port, 24 + static_cast<int>(i) - 1);
  const Fifo<Emission>& cq = q;
  EXPECT_EQ(cq.front().port, 24);
  while (!q.empty()) {
    out.push_back(q.front().port);
    q.pop_front();
  }
  std::vector<int> want(36);
  for (int i = 0; i < 36; ++i) want[static_cast<size_t>(i)] = i;
  EXPECT_EQ(out, want);
}

TEST(Firing, SinkScanReportsFramesAndCountsEndOfStream) {
  const std::vector<Item> popped{token(tok::kEndOfFrame, 7), px(1),
                                 token(tok::kEndOfStream),
                                 token(tok::kEndOfLine),
                                 token(tok::kEndOfStream)};
  std::vector<std::int64_t> frames;
  EXPECT_EQ(scan_sink_tokens(popped,
                             [&](std::int64_t f) { frames.push_back(f); }),
            2);
  EXPECT_EQ(frames, (std::vector<std::int64_t>{7}));
}

TEST(Firing, FrameCursorOpensAFrameAtTheFirstPixel) {
  FrameCursor c;
  const Item pixel = px(1), eol = token(tok::kEndOfLine),
             eof = token(tok::kEndOfFrame), eos = token(tok::kEndOfStream);
  EXPECT_TRUE(c.step(pixel));  // opens frame 0
  EXPECT_EQ(c.index, 0);
  EXPECT_FALSE(c.step(pixel));
  EXPECT_FALSE(c.step(eol));
  EXPECT_FALSE(c.step(eof));
  EXPECT_TRUE(c.at_start);
  EXPECT_EQ(c.index, 1);
  EXPECT_TRUE(c.step(pixel));  // opens frame 1
  EXPECT_FALSE(c.step(eof));
  EXPECT_FALSE(c.step(eos));
  EXPECT_EQ(c.index, 2);
}

}  // namespace
}  // namespace bpp
