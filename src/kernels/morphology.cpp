#include "kernels/morphology.h"

#include "kernels/simd/simd.h"

namespace bpp {

MorphologyKernel::MorphologyKernel(std::string name, Op op, int width,
                                   int height)
    : WindowKernel(std::move(name),
                   centered_window({width, height},
                                   op == Op::Erode ? "erode" : "dilate",
                                   Resources{run_cycles(width, height), 8})),
      op_(op) {
  if (width < 1 || height < 1)
    throw GraphError(this->name() + ": morphology window must be >= 1x1");
}

Tile MorphologyKernel::apply(const Tile& in) const {
  const int n = static_cast<int>(in.words());
  Tile out(1, 1);
  out.at(0, 0) = op_ == Op::Erode ? simd::ops().reduce_min(in.data(), n)
                                  : simd::ops().reduce_max(in.data(), n);
  return out;
}

}  // namespace bpp
