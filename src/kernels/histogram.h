#pragma once
// Histogram kernel and its serial merge step (paper Fig. 1(b), Fig. 7).
//
// HistogramKernel counts values into bins (method `count`), emits the bin
// counts once per frame when the end-of-frame token arrives (method
// `finishCount`), and reloads bin boundaries from the replicated "bins"
// input (method `configureBins`). It is data-parallel: replicas build
// partial histograms. "bins" is a parameter input (core/firing.h);
// unwired, the bins are uniform over [0, 256).
//
// HistogramMergeKernel is the explicitly serial reduction: it accumulates
// the partial histograms of one frame — `expected()` of them, set by the
// parallelization pass via on_upstream_parallelized — and emits the total.
// Its parallelism is bounded by a data-dependency edge from the
// application input (Fig. 1(b)).

#include <string>
#include <vector>

#include "core/kernel.h"

namespace bpp {

class HistogramKernel final : public Kernel {
 public:
  HistogramKernel(std::string name, int bins);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<HistogramKernel>(*this);
  }
  void init() override;

  [[nodiscard]] int bins() const { return bins_; }
  [[nodiscard]] const std::vector<double>& bin_uppers() const { return uppers_; }

  /// Uniform bin boundaries over [lo, hi) packed as a (bins x 1) tile,
  /// suitable as a ConstSource payload for the "bins" input.
  [[nodiscard]] static Tile uniform_bins(int bins, double lo, double hi);

 private:
  void count();
  void finish_count();
  void configure_bins();
  void on_eos();
  [[nodiscard]] int find_bin(double v) const;

  int bins_;
  int in_ = -1;  ///< resolved in configure()
  std::vector<double> uppers_;  ///< upper (exclusive) bound of each bin
  std::vector<long> counts_;
  /// Searched bounds (all but the catch-all last) are non-decreasing, so
  /// count() may use the branchless sorted bin search. True for
  /// uniform_bins; recomputed when configureBins loads custom bounds.
  bool sorted_ = true;
};

class HistogramMergeKernel final : public Kernel {
 public:
  HistogramMergeKernel(std::string name, int bins);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<HistogramMergeKernel>(*this);
  }
  void init() override;

  [[nodiscard]] ParKind parallel_kind() const override { return ParKind::Serial; }
  void on_upstream_parallelized(int input_idx, int factor) override;

  [[nodiscard]] int expected() const { return expected_; }

 private:
  void merge();

  int bins_;
  int expected_ = 1;
  int received_ = 0;
  std::vector<double> acc_;
};

}  // namespace bpp
