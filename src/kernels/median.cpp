#include "kernels/median.h"

#include <algorithm>
#include <vector>

#include "kernels/simd/simd.h"

namespace bpp {

MedianKernel::MedianKernel(std::string name, int width, int height)
    : WindowKernel(
          std::move(name),
          centered_window({width, height}, "runMedian",
                          Resources{run_cycles(width, height),
                                    static_cast<long>(width) * height + 8})) {
  if (width < 1 || height < 1)
    throw GraphError(this->name() + ": median window must be >= 1x1");
}

Tile MedianKernel::apply(const Tile& in) const {
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
  return result;
}

}  // namespace bpp
