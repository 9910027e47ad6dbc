#pragma once
// Bayer demosaicing kernel — benchmark 1/1F of the paper's Fig. 13.
//
// Consumes an RGGB mosaic as a (4x4)[2,2] windowed stream and produces the
// luminance of the center 2x2 mosaic cell per iteration, with bilinear
// interpolation of the missing color samples from the window neighborhood.

#include <string>

#include "kernels/window.h"

namespace bpp {

class BayerDemosaicKernel final : public WindowKernel<BayerDemosaicKernel> {
 public:
  explicit BayerDemosaicKernel(std::string name);

  [[nodiscard]] Tile apply(const Tile& in) const { return demosaic_window(in); }

  /// Demosaic the center 2x2 cell of a 4x4 RGGB window (window origin at
  /// even mosaic coordinates). Shared with the golden reference.
  [[nodiscard]] static Tile demosaic_window(const Tile& win);

  [[nodiscard]] static long run_cycles() { return 10 + 3L * 16; }
};

}  // namespace bpp
