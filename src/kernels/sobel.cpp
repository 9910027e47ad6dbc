#include "kernels/sobel.h"

#include <cmath>

namespace bpp {

SobelKernel::SobelKernel(std::string name) : Kernel(std::move(name)) {}

void SobelKernel::configure() {
  create_input("in", {3, 3}, {1, 1}, {1.0, 1.0});
  create_output("out", {1, 1});
  in_ = input_index("in");
  out_ = output_index("out");
  auto& run = register_method("sobel", Resources{10 + 4L * 9, 8}, &SobelKernel::run);
  method_input(run, "in");
  method_output(run, "out");
}

double SobelKernel::gradient_magnitude(const Tile& w) {
  const double gx = (w.at(2, 0) + 2 * w.at(2, 1) + w.at(2, 2)) -
                    (w.at(0, 0) + 2 * w.at(0, 1) + w.at(0, 2));
  const double gy = (w.at(0, 2) + 2 * w.at(1, 2) + w.at(2, 2)) -
                    (w.at(0, 0) + 2 * w.at(1, 0) + w.at(2, 0));
  return std::abs(gx) + std::abs(gy);
}

void SobelKernel::run() {
  Tile out(1, 1);
  out.at(0, 0) = gradient_magnitude(read_input(in_));
  write_output(out_, std::move(out));
}

}  // namespace bpp
