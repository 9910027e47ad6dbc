#include "kernels/morphology.h"

#include "kernels/simd/simd.h"

namespace bpp {

MorphologyKernel::MorphologyKernel(std::string name, Op op, int width,
                                   int height)
    : Kernel(std::move(name)), op_(op), width_(width), height_(height) {
  if (width < 1 || height < 1)
    throw GraphError(this->name() + ": morphology window must be >= 1x1");
}

void MorphologyKernel::configure() {
  create_input("in", {width_, height_}, {1, 1},
               {static_cast<double>(width_ / 2), static_cast<double>(height_ / 2)});
  create_output("out", {1, 1});
  in_ = input_index("in");
  out_ = output_index("out");
  auto& run = register_method(op_ == Op::Erode ? "erode" : "dilate",
                              Resources{run_cycles(width_, height_), 8},
                              &MorphologyKernel::run);
  method_input(run, "in");
  method_output(run, "out");
}

void MorphologyKernel::run() {
  const Tile& in = read_input(in_);
  const int n = static_cast<int>(in.words());
  Tile out(1, 1);
  out.at(0, 0) = op_ == Op::Erode ? simd::ops().reduce_min(in.data(), n)
                                  : simd::ops().reduce_max(in.data(), n);
  write_output(out_, std::move(out));
}

}  // namespace bpp
