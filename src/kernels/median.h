#pragma once
// Windowed median filter (the "3x3 Median" of Fig. 1).

#include <string>

#include "core/kernel.h"

namespace bpp {

class MedianKernel final : public Kernel {
 public:
  MedianKernel(std::string name, int width, int height);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<MedianKernel>(*this);
  }

  [[nodiscard]] static long run_cycles(int w, int h) { return 10 + 6L * w * h; }

 private:
  void run_median();

  int width_;
  int height_;
  int in_ = -1, out_ = -1;  ///< port indices, resolved in configure()
};

}  // namespace bpp
