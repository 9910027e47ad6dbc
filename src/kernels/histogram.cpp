#include "kernels/histogram.h"

#include <algorithm>

#include "kernels/simd/simd.h"

namespace bpp {

HistogramKernel::HistogramKernel(std::string name, int bins)
    : Kernel(std::move(name)), bins_(bins) {
  if (bins < 1) throw GraphError(this->name() + ": need >= 1 bin");
}

void HistogramKernel::configure() {
  create_input("in", {1, 1}, {1, 1}, {0.0, 0.0});
  create_output("out", {bins_, 1}, {bins_, 1});
  create_input("bins", {bins_, 1}, {bins_, 1}, {0.0, 0.0});
  in_ = input_index("in");
  set_replicated("bins");
  auto& cfg = register_method("configureBins", Resources{2L * bins_ + 3, bins_},
                              &HistogramKernel::configure_bins);
  method_input(cfg, "bins");

  // count() runs when data arrives; on average the bin search goes half
  // way, so the run time is ~bins/2 (paper Fig. 7).
  auto& cnt = register_method("count", Resources{bins_ / 2 + 5, 0},
                              &HistogramKernel::count);
  method_input(cnt, "in");

  // finishCount() runs when an end-of-frame token is received.
  auto& fin = register_method("finishCount", Resources{3L * bins_ + 3, 2L * bins_ + 3},
                              &HistogramKernel::finish_count);
  method_input(fin, "in", tok::kEndOfFrame);
  method_output(fin, "out");

  // The kernel's only output is token-paced (finishCount), so end-of-stream
  // must be forwarded explicitly for downstream kernels to terminate.
  auto& eos = register_method("eos", Resources{2, 0}, &HistogramKernel::on_eos);
  method_input(eos, "in", tok::kEndOfStream);
  method_output(eos, "out");

  init();
}

void HistogramKernel::init() {
  uppers_.assign(static_cast<size_t>(bins_), 0.0);
  for (int i = 0; i < bins_; ++i)
    uppers_[static_cast<size_t>(i)] = 256.0 * (i + 1) / bins_;
  counts_.assign(static_cast<size_t>(bins_), 0);
  sorted_ = true;  // the default uniform bounds are ascending
}

Tile HistogramKernel::uniform_bins(int bins, double lo, double hi) {
  Tile t(bins, 1);
  for (int i = 0; i < bins; ++i) t.at(i, 0) = lo + (hi - lo) * (i + 1) / bins;
  return t;
}

int HistogramKernel::find_bin(double v) const {
  const simd::Ops& o = simd::ops();
  return sorted_ ? o.find_bin_sorted(v, uppers_.data(), bins_)
                 : o.find_bin(v, uppers_.data(), bins_);
}

void HistogramKernel::count() {
  const double value = read_input(in_).at(0, 0);
  ++counts_[static_cast<size_t>(find_bin(value))];
}

void HistogramKernel::finish_count() {
  Tile out(bins_, 1);
  for (int i = 0; i < bins_; ++i) {
    out.at(i, 0) = static_cast<double>(counts_[static_cast<size_t>(i)]);
    counts_[static_cast<size_t>(i)] = 0;
  }
  write_output("out", std::move(out));
  // The per-frame result keeps its frame boundary: downstream kernels
  // (and throughput measurement) see where each frame's counts end.
  emit_token("out", tok::kEndOfFrame, trigger_payload());
}

void HistogramKernel::on_eos() {
  emit_token("out", tok::kEndOfStream, trigger_payload());
}

void HistogramKernel::configure_bins() {
  const Tile& b = read_input("bins");
  for (int i = 0; i < bins_; ++i) {
    uppers_[static_cast<size_t>(i)] = b.at(i, 0);
    counts_[static_cast<size_t>(i)] = 0;
  }
  // Only the searched bounds matter: the last bin catches the rest.
  sorted_ = std::is_sorted(uppers_.begin(),
                           uppers_.begin() + std::max(bins_ - 1, 0));
}

HistogramMergeKernel::HistogramMergeKernel(std::string name, int bins)
    : Kernel(std::move(name)), bins_(bins) {
  if (bins < 1) throw GraphError(this->name() + ": need >= 1 bin");
}

void HistogramMergeKernel::configure() {
  create_input("partial", {bins_, 1}, {bins_, 1}, {0.0, 0.0});
  create_output("out", {bins_, 1}, {bins_, 1});
  auto& m = register_method("merge", Resources{2L * bins_ + 5, 2L * bins_},
                            &HistogramMergeKernel::merge);
  method_input(m, "partial");
  method_output(m, "out");
  init();
}

void HistogramMergeKernel::init() {
  received_ = 0;
  acc_.assign(static_cast<size_t>(bins_), 0.0);
}

void HistogramMergeKernel::on_upstream_parallelized(int input_idx, int factor) {
  if (input_idx == input_index("partial") && factor >= 1) expected_ = factor;
}

void HistogramMergeKernel::merge() {
  const Tile& p = read_input("partial");
  simd::ops().add(acc_.data(), p.data(), acc_.data(), bins_);
  if (++received_ < expected_) return;
  Tile out(bins_, 1);
  for (int i = 0; i < bins_; ++i) {
    out.at(i, 0) = acc_[static_cast<size_t>(i)];
    acc_[static_cast<size_t>(i)] = 0.0;
  }
  received_ = 0;
  write_output("out", std::move(out));
}

}  // namespace bpp
