#pragma once
// Grayscale morphology: windowed minimum (erode) and maximum (dilate),
// the other classic non-linear neighborhood filters beside the median.

#include <string>

#include "kernels/window.h"

namespace bpp {

class MorphologyKernel final : public WindowKernel<MorphologyKernel> {
 public:
  enum class Op { Erode, Dilate };

  MorphologyKernel(std::string name, Op op, int width, int height);

  [[nodiscard]] Op op() const { return op_; }
  [[nodiscard]] Tile apply(const Tile& in) const;

  [[nodiscard]] static long run_cycles(int w, int h) { return 8 + 2L * w * h; }

 private:
  Op op_;
};

}  // namespace bpp
