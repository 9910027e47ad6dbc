#include "kernels/elementwise.h"

#include <algorithm>
#include <cmath>

namespace bpp {

BinaryOpKernel::BinaryOpKernel(std::string name, Fn fn, long cycles,
                               std::string op_tag)
    : Kernel(std::move(name)),
      fn_(std::move(fn)),
      cycles_(cycles),
      op_tag_(std::move(op_tag)) {}

void BinaryOpKernel::configure() {
  create_input("in0", {1, 1}, {1, 1}, {0.0, 0.0});
  create_input("in1", {1, 1}, {1, 1}, {0.0, 0.0});
  create_output("out", {1, 1});
  in0_ = input_index("in0");
  in1_ = input_index("in1");
  out_ = output_index("out");
  auto& run = register_method("run", Resources{cycles_, 4}, &BinaryOpKernel::run);
  method_input(run, "in0");
  method_input(run, "in1");
  method_output(run, "out");
}

void BinaryOpKernel::run() {
  const Tile& a = read_input(in0_);
  const Tile& b = read_input(in1_);
  Tile result(1, 1);
  result.at(0, 0) = fn_(a.at(0, 0), b.at(0, 0));
  write_output(out_, std::move(result));
}

UnaryOpKernel::UnaryOpKernel(std::string name, Fn fn, long cycles,
                             std::string op_tag, double p0, double p1)
    : WindowKernel(std::move(name),
                   centered_window({1, 1}, "run", Resources{cycles, 2})),
      fn_(std::move(fn)),
      op_tag_(std::move(op_tag)),
      p0_(p0),
      p1_(p1) {}

std::unique_ptr<BinaryOpKernel> make_subtract(std::string name) {
  return std::make_unique<BinaryOpKernel>(
      std::move(name), [](double a, double b) { return a - b; }, 8, "subtract");
}

std::unique_ptr<BinaryOpKernel> make_add(std::string name) {
  return std::make_unique<BinaryOpKernel>(
      std::move(name), [](double a, double b) { return a + b; }, 8, "add");
}

std::unique_ptr<BinaryOpKernel> make_absdiff(std::string name) {
  return std::make_unique<BinaryOpKernel>(
      std::move(name), [](double a, double b) { return std::abs(a - b); }, 8,
      "absdiff");
}

std::unique_ptr<BinaryOpKernel> make_multiply(std::string name) {
  return std::make_unique<BinaryOpKernel>(
      std::move(name), [](double a, double b) { return a * b; }, 8, "multiply");
}

std::unique_ptr<UnaryOpKernel> make_abs(std::string name) {
  return std::make_unique<UnaryOpKernel>(
      std::move(name), [](double v) { return std::abs(v); }, 6, "abs");
}

std::unique_ptr<UnaryOpKernel> make_scale(std::string name, double a, double b) {
  return std::make_unique<UnaryOpKernel>(
      std::move(name), [a, b](double v) { return a * v + b; }, 6, "scale", a, b);
}

std::unique_ptr<UnaryOpKernel> make_threshold(std::string name, double level) {
  return std::make_unique<UnaryOpKernel>(
      std::move(name), [level](double v) { return v > level ? 1.0 : 0.0; }, 6,
      "threshold", level);
}

std::unique_ptr<UnaryOpKernel> make_clamp(std::string name, double lo, double hi) {
  return std::make_unique<UnaryOpKernel>(
      std::move(name), [lo, hi](double v) { return std::clamp(v, lo, hi); }, 6,
      "clamp", lo, hi);
}

}  // namespace bpp
