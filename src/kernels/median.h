#pragma once
// Windowed median filter (the "3x3 Median" of Fig. 1).

#include <string>

#include "kernels/window.h"

namespace bpp {

class MedianKernel final : public WindowKernel<MedianKernel> {
 public:
  MedianKernel(std::string name, int width, int height);

  [[nodiscard]] Tile apply(const Tile& in) const;

  [[nodiscard]] static long run_cycles(int w, int h) { return 10 + 6L * w * h; }
};

}  // namespace bpp
