#pragma once
// Resampling kernels. Downsampling uses a fractional input->output offset
// (paper §II-A footnote 2): the output sample of a 2x2 average sits half a
// pixel from the window origin.

#include <string>

#include "kernels/window.h"

namespace bpp {

/// factor x factor block average; output is 1/factor the input extent.
class DownsampleKernel final : public WindowKernel<DownsampleKernel> {
 public:
  DownsampleKernel(std::string name, int factor);

  [[nodiscard]] int factor() const { return factor_; }
  [[nodiscard]] Tile apply(const Tile& in) const;

 private:
  int factor_;
};

/// Nearest-neighbor upsampling: each input pixel becomes factor x factor.
class UpsampleKernel final : public WindowKernel<UpsampleKernel> {
 public:
  UpsampleKernel(std::string name, int factor);

  [[nodiscard]] int factor() const { return factor_; }
  [[nodiscard]] Tile apply(const Tile& in) const {
    return Tile({factor_, factor_}, in.at(0, 0));
  }

 private:
  int factor_;
};

}  // namespace bpp
