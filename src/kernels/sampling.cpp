#include "kernels/sampling.h"

namespace bpp {

namespace {

[[nodiscard]] Resources resample_resources(int factor) {
  return {5 + 2L * factor * factor, 4};
}

}  // namespace

// The averaged sample logically sits at the window centroid, a fractional
// (f-1)/2 offset from the window origin.
DownsampleKernel::DownsampleKernel(std::string name, int factor)
    : WindowKernel(std::move(name),
                   {{factor, factor}, {factor, factor},
                    {(factor - 1) / 2.0, (factor - 1) / 2.0}, {1, 1}, "run",
                    resample_resources(factor)}),
      factor_(factor) {
  if (factor < 1) throw GraphError(this->name() + ": factor must be >= 1");
}

Tile DownsampleKernel::apply(const Tile& in) const {
  double sum = 0.0;
  for (int y = 0; y < factor_; ++y) {
    const double* row = in.row_ptr(y);
    for (int x = 0; x < factor_; ++x) sum += row[x];
  }
  return Tile({1, 1}, sum / (factor_ * factor_));
}

UpsampleKernel::UpsampleKernel(std::string name, int factor)
    : WindowKernel(std::move(name), {{1, 1}, {1, 1}, {0.0, 0.0},
                                     {factor, factor}, "run",
                                     resample_resources(factor)}),
      factor_(factor) {
  if (factor < 1) throw GraphError(this->name() + ": factor must be >= 1");
}

}  // namespace bpp
