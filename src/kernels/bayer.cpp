#include "kernels/bayer.h"

namespace bpp {

BayerDemosaicKernel::BayerDemosaicKernel(std::string name)
    : WindowKernel(std::move(name), {{4, 4}, {2, 2}, {1.0, 1.0}, {2, 2},
                                     "demosaic", Resources{run_cycles(), 24}}) {}

Tile BayerDemosaicKernel::demosaic_window(const Tile& win) {
  // Window origin sits at even mosaic coordinates, so parity inside the
  // window is fixed: (even,even)=R, (odd,even)=G, (even,odd)=G, (odd,odd)=B.
  auto avg_parity = [&](int cx, int cy, int px, int py) {
    double sum = 0.0;
    int n = 0;
    for (int y = std::max(0, cy - 1); y <= std::min(3, cy + 1); ++y)
      for (int x = std::max(0, cx - 1); x <= std::min(3, cx + 1); ++x)
        if ((x & 1) == px && (y & 1) == py) {
          sum += win.at(x, y);
          ++n;
        }
    return n > 0 ? sum / n : 0.0;
  };
  auto avg_green = [&](int cx, int cy) {
    double sum = 0.0;
    int n = 0;
    for (int y = std::max(0, cy - 1); y <= std::min(3, cy + 1); ++y)
      for (int x = std::max(0, cx - 1); x <= std::min(3, cx + 1); ++x)
        if (((x & 1) ^ (y & 1)) == 1) {
          sum += win.at(x, y);
          ++n;
        }
    return n > 0 ? sum / n : 0.0;
  };

  Tile out(2, 2);
  for (int j = 0; j < 2; ++j) {
    for (int i = 0; i < 2; ++i) {
      const int cx = 1 + i;  // center cell pixels are (1,1)..(2,2)
      const int cy = 1 + j;
      const double r = avg_parity(cx, cy, 0, 0);
      const double g = avg_green(cx, cy);
      const double b = avg_parity(cx, cy, 1, 1);
      out.at(i, j) = 0.299 * r + 0.587 * g + 0.114 * b;
    }
  }
  return out;
}

}  // namespace bpp
