#pragma once
// Grayscale morphology: windowed minimum (erode) and maximum (dilate),
// the other classic non-linear neighborhood filters beside the median.

#include <string>

#include "core/kernel.h"

namespace bpp {

class MorphologyKernel final : public Kernel {
 public:
  enum class Op { Erode, Dilate };

  MorphologyKernel(std::string name, Op op, int width, int height);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<MorphologyKernel>(*this);
  }

  [[nodiscard]] Op op() const { return op_; }

  [[nodiscard]] static long run_cycles(int w, int h) { return 8 + 2L * w * h; }

 private:
  void run();

  Op op_;
  int width_;
  int height_;
  int in_ = -1, out_ = -1;  ///< port indices, resolved in configure()
};

}  // namespace bpp
