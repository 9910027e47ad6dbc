#pragma once
// Sobel gradient-magnitude kernel (|gx| + |gy| over a 3x3 window).

#include <string>

#include "kernels/window.h"

namespace bpp {

class SobelKernel final : public WindowKernel<SobelKernel> {
 public:
  explicit SobelKernel(std::string name);

  [[nodiscard]] Tile apply(const Tile& in) const {
    return Tile({1, 1}, gradient_magnitude(in));
  }

  /// Shared with the golden reference.
  [[nodiscard]] static double gradient_magnitude(const Tile& win3x3);
};

}  // namespace bpp
