#pragma once
// One-dimensional signal processing (paper §II-A: the 2-D parameterization
// addresses image processing "without inhibiting one-dimensional signal
// handling"). A 1-D stream is a frame of height 1; this decimating FIR
// filter consumes a (taps x 1) window stepping by the decimation factor.

#include <string>
#include <vector>

#include "kernels/window.h"

namespace bpp {

class FirDecimateKernel final : public WindowKernel<FirDecimateKernel> {
 public:
  /// @param taps     filter coefficients (applied newest-last, like the
  ///                 convolution kernel's flipped indexing)
  /// @param decimate output one sample per `decimate` inputs
  FirDecimateKernel(std::string name, std::vector<double> taps, int decimate = 1);

  [[nodiscard]] const std::vector<double>& tap_values() const { return taps_; }
  [[nodiscard]] int decimation() const { return decimate_; }
  [[nodiscard]] Tile apply(const Tile& in) const;

  [[nodiscard]] static long run_cycles(int taps) { return 8 + 2L * taps; }

 private:
  std::vector<double> taps_;
  std::vector<double> taps_rev_;  ///< taps_ reversed: apply() is a plain dot
  int decimate_;
};

/// Simple windowed designs for tests and apps.
[[nodiscard]] std::vector<double> moving_average_taps(int n);
[[nodiscard]] std::vector<double> lowpass_taps(int n, double cutoff);

}  // namespace bpp
