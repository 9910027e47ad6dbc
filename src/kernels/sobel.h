#pragma once
// Sobel gradient-magnitude kernel (|gx| + |gy| over a 3x3 window).

#include <string>

#include "core/kernel.h"

namespace bpp {

class SobelKernel final : public Kernel {
 public:
  explicit SobelKernel(std::string name);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<SobelKernel>(*this);
  }

  /// Shared with the golden reference.
  [[nodiscard]] static double gradient_magnitude(const Tile& win3x3);

 private:
  void run();

  int in_ = -1, out_ = -1;  ///< port indices, resolved in configure()
};

}  // namespace bpp
