#include "kernels/convolution.h"

#include "kernels/simd/simd.h"

namespace bpp {

ConvolutionKernel::ConvolutionKernel(std::string name, int width, int height)
    : Kernel(std::move(name)), width_(width), height_(height) {
  if (width < 1 || height < 1)
    throw GraphError(this->name() + ": convolution window must be >= 1x1");
}

void ConvolutionKernel::configure() {
  // Window offsets are integer half-widths; no float round-trip.
  const Offset2 center{static_cast<double>(width_ / 2),
                       static_cast<double>(height_ / 2)};
  create_input("in", {width_, height_}, {1, 1}, center);
  create_output("out", {1, 1});
  create_input("coeff", {width_, height_}, {width_, height_}, center);
  set_replicated("coeff");
  in_ = input_index("in");
  out_ = output_index("out");

  // Registered before runConvolve: when both inputs are ready, a pending
  // coefficient reload wins.
  auto& load = register_method("loadCoeff",
                               Resources{10 + 2L * width_ * height_,
                                         static_cast<long>(width_) * height_},
                               &ConvolutionKernel::load_coeff);
  method_input(load, "coeff");

  auto& run = register_method("runConvolve",
                              Resources{run_cycles(width_, height_), 10},
                              &ConvolutionKernel::run_convolve);
  method_input(run, "in");
  method_output(run, "out");

  init();
}

void ConvolutionKernel::init() {
  // Without a wired "coeff" input the kernel is an identity (delta) filter.
  coeff_ = Tile(width_, height_);
  coeff_.at(width_ / 2, height_ / 2) = 1.0;
  flip_coeff();
}

void ConvolutionKernel::flip_coeff() {
  // The paper's coefficient flip, pre-applied once per (re)load: flipping
  // both axes of a row-major array is a full reversal, so runConvolve is
  // a straight dot product over the contiguous window.
  const long n = coeff_.words();
  coeff_flipped_.resize(static_cast<size_t>(n));
  const double* c = coeff_.data();
  for (long i = 0; i < n; ++i)
    coeff_flipped_[static_cast<size_t>(i)] = c[n - 1 - i];
}

void ConvolutionKernel::run_convolve() {
  const Tile& in = read_input(in_);
  Tile result(1, 1);
  // Row-major accumulation; the SIMD backends reassociate the reduction
  // within the dot (ULP-bounded vs the scalar table, tests/test_simd.cpp).
  result.at(0, 0) = simd::ops().dot(in.data(), coeff_flipped_.data(),
                                    static_cast<int>(in.words()));
  write_output(out_, std::move(result));
}

void ConvolutionKernel::load_coeff() {
  coeff_ = read_input("coeff");
  flip_coeff();
}

}  // namespace bpp
