#pragma once
// Convolution kernel — the paper's running example (Fig. 5, Fig. 6).
//
// Two methods: runConvolve fires on each data window; loadCoeff fires when
// a new coefficient tile arrives on the replicated "coeff" input. The two
// methods share the kernel-private coefficient array, which is how control
// (coefficient reload) and data processing communicate. "coeff" is a
// parameter input (core/firing.h); unwired, the filter is the identity.

#include <string>

#include "core/kernel.h"

namespace bpp {

class ConvolutionKernel final : public Kernel {
 public:
  ConvolutionKernel(std::string name, int width, int height);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<ConvolutionKernel>(*this);
  }
  void init() override;

  [[nodiscard]] int kwidth() const { return width_; }
  [[nodiscard]] int kheight() const { return height_; }

  /// Cycle cost of one runConvolve execution (paper Fig. 6 formula).
  [[nodiscard]] static long run_cycles(int w, int h) { return 10 + 3L * w * h; }

 private:
  void run_convolve();
  void load_coeff();
  void flip_coeff();

  int width_;
  int height_;
  int in_ = -1, out_ = -1;  ///< port indices, resolved in configure()
  Tile coeff_;
  std::vector<double> coeff_flipped_;  ///< contiguous, both axes reversed
};

}  // namespace bpp
