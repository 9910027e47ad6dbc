// Firing rules (paper §II-B/§II-C): data triggers, token triggers, and
// automatic in-order forwarding of unhandled control tokens — including
// the multi-input pairing rule of the subtract kernel.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "core/firing.h"
#include "kernels/elementwise.h"
#include "kernels/histogram.h"
#include "test_util.h"

// Every allocation in this binary goes through these, so a test can count
// the heap allocations of a region of code.
namespace {
long g_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
// All out of line, so the compiler sees new paired with delete rather than
// malloc with delete (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
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
  // With the bins input connected but not yet delivered, even frame
  // tokens wait: finishing a count with default ranges would be wrong.
  HistogramKernel hist("hist", 8);
  hist.ensure_configured();
  Item eof = token(tok::kEndOfFrame);
  Heads h{{&eof, nullptr}};
  EXPECT_FALSE(decide_fire(hist, {0, 1}, h).fires());
}

TEST(Firing, HistogramHoldsDataUntilBinsConfigured) {
  HistogramKernel hist("hist", 8);
  hist.ensure_configured();
  Item d0 = px(10);
  {  // data present, bins pending: wait.
    Heads h{{&d0, nullptr}};
    EXPECT_FALSE(decide_fire(hist, {0, 1}, h).fires());
  }
  {  // bins present: configureBins wins.
    Item bins = Tile(Size2{8, 1}, 1.0);
    Heads h{{&d0, &bins}};
    const FireDecision d = decide_fire(hist, {0, 1}, h);
    ASSERT_EQ(d.kind, FireDecision::Kind::Method);
    EXPECT_EQ(hist.methods()[static_cast<size_t>(d.method)].name,
              "configureBins");
  }
  {  // without a connected bins input the default ranges apply immediately.
    Heads h{{&d0, nullptr}};
    const FireDecision d = decide_fire(hist, {0}, h);
    ASSERT_EQ(d.kind, FireDecision::Kind::Method);
    EXPECT_EQ(hist.methods()[static_cast<size_t>(d.method)].name, "count");
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

}  // namespace
}  // namespace bpp
