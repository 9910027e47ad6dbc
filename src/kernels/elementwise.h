#pragma once
// Element-wise kernels: per-pixel binary operations (subtract, add,
// absolute difference, multiply) and unary operations (scale, threshold,
// clamp). The binary kernels are the paper's "Subtract" (Fig. 1): one
// method triggered by data on both inputs, so control tokens are forwarded
// only when the same class heads both inputs (§II-C).

#include <functional>
#include <string>

#include "kernels/window.h"

namespace bpp {

class BinaryOpKernel final : public Kernel {
 public:
  using Fn = std::function<double(double, double)>;

  BinaryOpKernel(std::string name, Fn fn, long cycles = 8,
                 std::string op_tag = "");

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<BinaryOpKernel>(*this);
  }

  /// Name of the factory op ("subtract", ...); empty for ad-hoc lambdas.
  /// Used by graph serialization, which cannot persist arbitrary code.
  [[nodiscard]] const std::string& op_tag() const { return op_tag_; }
  [[nodiscard]] long cycles() const { return cycles_; }

 private:
  void run();

  Fn fn_;
  long cycles_;
  std::string op_tag_;
  int in0_ = -1, in1_ = -1, out_ = -1;  ///< resolved in configure()
};

class UnaryOpKernel final : public WindowKernel<UnaryOpKernel> {
 public:
  using Fn = std::function<double(double)>;

  UnaryOpKernel(std::string name, Fn fn, long cycles = 6,
                std::string op_tag = "", double p0 = 0.0, double p1 = 0.0);

  [[nodiscard]] const std::string& op_tag() const { return op_tag_; }
  [[nodiscard]] double param0() const { return p0_; }
  [[nodiscard]] double param1() const { return p1_; }
  [[nodiscard]] Tile apply(const Tile& in) const {
    return Tile({1, 1}, fn_(in.at(0, 0)));
  }

 private:
  Fn fn_;
  std::string op_tag_;
  double p0_ = 0.0, p1_ = 0.0;
};

// Convenience factories matching the paper's kernel vocabulary.
[[nodiscard]] std::unique_ptr<BinaryOpKernel> make_subtract(std::string name);
[[nodiscard]] std::unique_ptr<BinaryOpKernel> make_add(std::string name);
[[nodiscard]] std::unique_ptr<BinaryOpKernel> make_absdiff(std::string name);
[[nodiscard]] std::unique_ptr<BinaryOpKernel> make_multiply(std::string name);
[[nodiscard]] std::unique_ptr<UnaryOpKernel> make_abs(std::string name);
[[nodiscard]] std::unique_ptr<UnaryOpKernel> make_scale(std::string name, double a,
                                                        double b);
[[nodiscard]] std::unique_ptr<UnaryOpKernel> make_threshold(std::string name,
                                                            double level);
[[nodiscard]] std::unique_ptr<UnaryOpKernel> make_clamp(std::string name, double lo,
                                                        double hi);

}  // namespace bpp
