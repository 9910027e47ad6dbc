#include "kernels/sobel.h"

#include <cmath>

namespace bpp {

SobelKernel::SobelKernel(std::string name)
    : WindowKernel(std::move(name),
                   centered_window({3, 3}, "sobel", Resources{10 + 4L * 9, 8})) {}

double SobelKernel::gradient_magnitude(const Tile& w) {
  const double gx = (w.at(2, 0) + 2 * w.at(2, 1) + w.at(2, 2)) -
                    (w.at(0, 0) + 2 * w.at(0, 1) + w.at(0, 2));
  const double gy = (w.at(0, 2) + 2 * w.at(1, 2) + w.at(2, 2)) -
                    (w.at(0, 0) + 2 * w.at(1, 0) + w.at(2, 0));
  return std::abs(gx) + std::abs(gy);
}

}  // namespace bpp
