#include "kernels/fir.h"

#include <cmath>

#include "kernels/simd/simd.h"

namespace bpp {

namespace {

// Fractional offsets appear naturally for decimating filters (§II-A
// footnote 2): the output sample sits at the window center in input
// coordinates, (t-1)/2, scaled by 1/decimate in output space.
[[nodiscard]] WindowDecl fir_window(int t, int decimate) {
  return {{t, 1}, {decimate, 1}, {(t - 1) / 2.0, 0.0}, {1, 1}, "runFir",
          Resources{FirDecimateKernel::run_cycles(t), t + 6}};
}

}  // namespace

FirDecimateKernel::FirDecimateKernel(std::string name, std::vector<double> taps,
                                     int decimate)
    : WindowKernel(std::move(name),
                   fir_window(static_cast<int>(taps.size()), decimate)),
      taps_(std::move(taps)),
      taps_rev_(taps_.rbegin(), taps_.rend()),
      decimate_(decimate) {
  if (taps_.empty()) throw GraphError(this->name() + ": FIR needs taps");
  if (decimate < 1) throw GraphError(this->name() + ": decimation must be >= 1");
}

Tile FirDecimateKernel::apply(const Tile& in) const {
  return Tile({1, 1}, simd::ops().dot(in.data(), taps_rev_.data(),
                                      static_cast<int>(taps_rev_.size())));
}

std::vector<double> moving_average_taps(int n) {
  return std::vector<double>(static_cast<size_t>(n), 1.0 / n);
}

std::vector<double> lowpass_taps(int n, double cutoff) {
  // Hamming-windowed sinc.
  std::vector<double> taps(static_cast<size_t>(n));
  const double mid = (n - 1) / 2.0;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = i - mid;
    const double sinc =
        x == 0.0 ? 2.0 * cutoff : std::sin(2.0 * M_PI * cutoff * x) / (M_PI * x);
    const double win = 0.54 - 0.46 * std::cos(2.0 * M_PI * i / (n - 1));
    taps[static_cast<size_t>(i)] = sinc * win;
    sum += taps[static_cast<size_t>(i)];
  }
  for (double& t : taps) t /= sum;  // unity DC gain
  return taps;
}

}  // namespace bpp
