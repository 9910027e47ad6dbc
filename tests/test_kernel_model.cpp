// Kernel model (paper §II-B): port/method registration, the runtime API
// contract, resources, and cloning.

#include <gtest/gtest.h>

#include "kernels/convolution.h"
#include "kernels/histogram.h"
#include "test_util.h"

namespace bpp {
namespace {

using testutil::PassKernel;

class ProbeKernel final : public Kernel {
 public:
  explicit ProbeKernel(std::string name) : Kernel(std::move(name)) {}
  void configure() override {
    create_input("a", {2, 2}, {1, 1}, {0.5, 0.5});
    create_input("b", {1, 1});
    create_output("x", {1, 1});
    create_output("y", {4, 1});
    set_replicated("b");
    auto& m = register_method("run", Resources{42, 7}, &ProbeKernel::run);
    method_input(m, "a");
    method_input(m, "b");
    method_output(m, "x");
    auto& t = register_method("onEof", Resources{3, 9}, &ProbeKernel::run);
    method_input(t, "a", tok::kEndOfFrame);
    method_output(t, "y");
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<ProbeKernel>(*this);
  }

 private:
  void run() {}
};

TEST(KernelModel, PortRegistration) {
  ProbeKernel k("probe");
  k.ensure_configured();
  ASSERT_EQ(k.inputs().size(), 2u);
  ASSERT_EQ(k.outputs().size(), 2u);
  EXPECT_EQ(k.input_index("a"), 0);
  EXPECT_EQ(k.input_index("b"), 1);
  EXPECT_EQ(k.input_index("nope"), -1);
  EXPECT_EQ(k.output_index("y"), 1);
  EXPECT_EQ(k.input(0).spec.window, (Size2{2, 2}));
  EXPECT_EQ(k.input(0).spec.offset, (Offset2{0.5, 0.5}));
  EXPECT_TRUE(k.input(1).spec.replicated);
  EXPECT_FALSE(k.input(0).spec.replicated);
  // Output step defaults to the window (non-overlapping emission).
  EXPECT_EQ(k.output(1).spec.step, (Step2{4, 1}));
}

TEST(KernelModel, ConfigureRunsOnce) {
  ProbeKernel k("probe");
  k.ensure_configured();
  k.ensure_configured();
  EXPECT_EQ(k.inputs().size(), 2u);  // not doubled
}

TEST(KernelModel, MethodTriggersAndMappings) {
  ProbeKernel k("probe");
  k.ensure_configured();
  ASSERT_EQ(k.methods().size(), 2u);
  const MethodDef& run = k.methods()[0];
  EXPECT_FALSE(run.token_triggered());
  EXPECT_EQ(run.inputs, (std::vector<int>{0, 1}));
  EXPECT_EQ(run.outputs, (std::vector<int>{0}));
  EXPECT_EQ(run.res.cycles, 42);
  const MethodDef& eof = k.methods()[1];
  ASSERT_TRUE(eof.token_triggered());
  EXPECT_EQ(*eof.trigger_token, tok::kEndOfFrame);

  EXPECT_EQ(k.data_method_of_input(0), 0);
  EXPECT_EQ(k.data_method_of_input(1), 0);
  EXPECT_EQ(k.token_method_of_input(0, tok::kEndOfFrame), 1);
  EXPECT_EQ(k.token_method_of_input(0, tok::kEndOfLine), -1);
  EXPECT_EQ(k.token_method_of_input(1, tok::kEndOfFrame), -1);
}

TEST(KernelModel, StateMemorySumsMethods) {
  ProbeKernel k("probe");
  k.ensure_configured();
  EXPECT_EQ(k.state_memory(), 7 + 9);
}

class BadDuplicateInput final : public Kernel {
 public:
  BadDuplicateInput() : Kernel("bad") {}
  void configure() override {
    create_input("in", {1, 1});
    create_input("in", {1, 1});
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override { return nullptr; }
};

TEST(KernelModel, DuplicateInputRejected) {
  BadDuplicateInput k;
  EXPECT_THROW(k.ensure_configured(), GraphError);
}

class BadTwoDataMethods final : public Kernel {
 public:
  BadTwoDataMethods() : Kernel("bad2") {}
  void configure() override {
    create_input("in", {1, 1});
    auto& a = register_method("a", Resources{1, 0}, &BadTwoDataMethods::noop);
    method_input(a, "in");
    auto& b = register_method("b", Resources{1, 0}, &BadTwoDataMethods::noop);
    method_input(b, "in");  // same input may not trigger two data methods
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override { return nullptr; }

 private:
  void noop() {}
};

TEST(KernelModel, InputMayTriggerOnlyOneDataMethod) {
  BadTwoDataMethods k;
  EXPECT_THROW(k.ensure_configured(), GraphError);
}

TEST(KernelModel, RuntimeApiOutsideExecutionThrows) {
  PassKernel k("p");
  k.ensure_configured();
  ExecContext ctx;
  EXPECT_THROW((void)k.invoke(5, ctx), ExecutionError);
}

TEST(KernelModel, InvokeBindsInputsAndCollectsEmissions) {
  PassKernel k("p");
  k.ensure_configured();
  ExecContext ctx;
  Fifo<Emission> emissions;
  ctx.bind_output(emissions);
  Item in = testutil::px(3.5);
  ctx.bind_input(0, &in);
  k.invoke(0, ctx);
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].port, 0);
  EXPECT_EQ(as_tile(emissions[0].item).at(0, 0), 3.5);
}

class WrongSizeWriter final : public Kernel {
 public:
  WrongSizeWriter() : Kernel("w") {}
  void configure() override {
    create_input("in", {1, 1});
    create_output("out", {2, 2});
    auto& m = register_method("m", Resources{1, 0}, &WrongSizeWriter::go);
    method_input(m, "in");
    method_output(m, "out");
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override { return nullptr; }

 private:
  void go() { write_output("out", Tile(1, 1)); }  // expects 2x2
};

TEST(KernelModel, WrongTileSizeRejected) {
  WrongSizeWriter k;
  k.ensure_configured();
  ExecContext ctx;
  Fifo<Emission> emissions;
  ctx.bind_output(emissions);
  Item in = testutil::px(0);
  ctx.bind_input(0, &in);
  EXPECT_THROW(k.invoke(0, ctx), ExecutionError);
}

/// Forwards its input by moving it out (take_input) on data and on
/// end-of-frame; reads it (read_input) on end-of-line.
class TakeForwarder final : public Kernel {
 public:
  TakeForwarder() : Kernel("fwd") {}
  void configure() override {
    create_input("in", {1, 1});
    create_output("out", {1, 1});
    auto& pass = register_method("pass", Resources{1, 0}, &TakeForwarder::take);
    method_input(pass, "in");
    method_output(pass, "out");
    auto& eof = register_method("eof", Resources{1, 0}, &TakeForwarder::take);
    method_input(eof, "in", tok::kEndOfFrame);
    method_output(eof, "out");
    auto& eol = register_method("eol", Resources{1, 0}, &TakeForwarder::read);
    method_input(eol, "in", tok::kEndOfLine);
    method_output(eol, "out");
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override { return nullptr; }

 private:
  void take() { write_output(0, take_input(0)); }
  void read() { write_output(0, read_input(0)); }
};

TEST(KernelModel, TakeInputMovesTheTileOutAndRejectsTokens) {
  TakeForwarder k;
  k.ensure_configured();
  ExecContext ctx;
  Fifo<Emission> emissions;
  ctx.bind_output(emissions);
  Item in = testutil::px(2.5);
  ctx.bind_input(0, &in);
  k.invoke(0, ctx);
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(as_tile(emissions[0].item).at(0, 0), 2.5);
  EXPECT_TRUE(as_tile(in).empty());  // moved out, not copied

  // A token-bound port has no tile to take, as it has none to read; the
  // token stays for the engine's frame accounting.
  Item eof = testutil::token(tok::kEndOfFrame, 3);
  ctx.reset();
  ctx.bind_input(0, &eof);
  EXPECT_THROW(k.invoke(1, ctx), ExecutionError);
  EXPECT_EQ(as_token(eof), (ControlToken{tok::kEndOfFrame, 3}));
  Item eol = testutil::token(tok::kEndOfLine);
  ctx.reset();
  ctx.bind_input(0, &eol);
  EXPECT_THROW(k.invoke(2, ctx), ExecutionError);
  EXPECT_EQ(emissions.size(), 1u);
}

TEST(KernelModel, InvokeNeedsAnOutputQueue) {
  PassKernel k("p");
  k.ensure_configured();
  ExecContext ctx;
  Item in = testutil::px(1);
  ctx.bind_input(0, &in);
  EXPECT_THROW(k.invoke(0, ctx), ExecutionError);
  EXPECT_TRUE(is_data(in));
}

TEST(KernelModel, CloneIsIndependent) {
  ConvolutionKernel k("conv", 3, 3);
  k.ensure_configured();
  auto c = k.clone();
  c->ensure_configured();
  EXPECT_EQ(c->name(), "conv");
  EXPECT_EQ(c->inputs().size(), k.inputs().size());
  // The clone's method bodies act on the clone's own state: coefficients
  // loaded into the clone leave the original on its identity filter.
  ExecContext ctx;
  Fifo<Emission> emissions;
  ctx.bind_output(emissions);
  Item coeff_item = Tile(Size2{3, 3}, 1.0);
  ctx.bind_input(c->input_index("coeff"), &coeff_item);
  c->invoke(0, ctx);  // loadCoeff is registered first
  Tile window(Size2{3, 3}, 2.0);
  window.at(1, 1) = 5.0;
  Item window_item = window;
  auto convolve = [&](Kernel& kn) {
    ctx.reset();
    ctx.bind_input(kn.input_index("in"), &window_item);
    kn.invoke(1, ctx);  // runConvolve
    const double v = as_tile(emissions.front().item).at(0, 0);
    emissions.pop_front();
    return v;
  };
  EXPECT_EQ(convolve(*c), 21.0);
  EXPECT_EQ(convolve(k), 5.0);
}

class SelfTuningKernel final : public Kernel {
 public:
  SelfTuningKernel() : Kernel("tuner") {}
  void configure() override {
    create_input("in", {1, 1});
    auto& m = register_method("m", Resources{10, 1}, &SelfTuningKernel::noop);
    method_input(m, "in");
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<SelfTuningKernel>(*this);
  }
  void retune(long cycles) { method_mut("m").res.cycles = cycles; }
  void retune_missing() { (void)method_mut("missing"); }

 private:
  void noop() {}
};

TEST(KernelModel, MethodMutAllowsResourceUpdate) {
  SelfTuningKernel k;
  k.ensure_configured();
  k.retune(99);
  EXPECT_EQ(k.methods()[0].res.cycles, 99);
  EXPECT_THROW(k.retune_missing(), GraphError);
}

TEST(KernelModel, HistogramUniformBins) {
  const Tile bins = HistogramKernel::uniform_bins(4, 0.0, 8.0);
  ASSERT_EQ(bins.size(), (Size2{4, 1}));
  EXPECT_DOUBLE_EQ(bins.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(bins.at(3, 0), 8.0);
}

}  // namespace
}  // namespace bpp
