#include "kernels/median.h"

#include <algorithm>
#include <vector>

#include "kernels/simd/simd.h"

namespace bpp {

MedianKernel::MedianKernel(std::string name, int width, int height)
    : Kernel(std::move(name)), width_(width), height_(height) {
  if (width < 1 || height < 1)
    throw GraphError(this->name() + ": median window must be >= 1x1");
}

void MedianKernel::configure() {
  create_input("in", {width_, height_}, {1, 1},
               {static_cast<double>(width_ / 2), static_cast<double>(height_ / 2)});
  create_output("out", {1, 1});
  in_ = input_index("in");
  out_ = output_index("out");
  auto& run = register_method("runMedian",
                              Resources{run_cycles(width_, height_),
                                        static_cast<long>(width_) * height_ + 8},
                              &MedianKernel::run_median);
  method_input(run, "in");
  method_output(run, "out");
}

void MedianKernel::run_median() {
  const Tile& in = read_input(in_);
  Tile result(1, 1);
  if (in.words() == 9) {
    // 3x3 is the common case: 19-exchange sorting network, same exchange
    // sequence in every backend, so the result is bit-identical everywhere.
    result.at(0, 0) = simd::ops().median9(in.data());
  } else {
    std::vector<double> v(in.data(), in.data() + in.words());
    auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    result.at(0, 0) = *mid;
  }
  write_output(out_, std::move(result));
}

}  // namespace bpp
