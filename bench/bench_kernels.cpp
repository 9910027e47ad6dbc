// Per-kernel-primitive microbenchmarks across every ISA this machine
// supports (Google Benchmark). Each primitive is registered once per ISA
// with the table resolved up front, so a run directly compares e.g.
// conv2d_3x3/scalar vs conv2d_3x3/avx2 on identical inputs.
//
//   bench/bench_kernels --benchmark_format=json > BENCH_kernels.json
//
// The CI bench job uploads that file; EXPERIMENTS.md tabulates the
// speedups. Frame geometry (256x256) keeps the working set L2-resident so
// the numbers measure arithmetic, not memory bandwidth.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/random_chain.h"
#include "core/tile.h"
#include "kernels/simd/simd.h"

namespace {

using bpp::Tile;
using bpp::apps::splitmix;
using bpp::simd::Isa;
using bpp::simd::Ops;

constexpr int kFrame = 256;
constexpr int kTaps = 32;
constexpr int kBins = 32;


Tile random_frame(int w, int h, std::uint64_t seed) {
  Tile t(w, h);
  for (int y = 0; y < h; ++y) {
    double* row = t.row_ptr(y);
    for (int x = 0; x < w; ++x)
      row[x] = static_cast<double>(splitmix(seed) % 256);
  }
  return t;
}

std::vector<double> random_vec(int n, std::uint64_t seed) {
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = static_cast<double>(splitmix(seed) % 256) / 16.0;
  return v;
}

void bench_conv2d(benchmark::State& state, const Ops* ops, int k) {
  const Tile in = random_frame(kFrame + k - 1, kFrame + k - 1, 1);
  const std::vector<double> kflip = random_vec(k * k, 2);
  Tile out(kFrame, kFrame);
  for (auto _ : state) {
    ops->conv2d(in.data(), in.stride(), kflip.data(), k, k, out.data(),
                out.stride(), kFrame, kFrame);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kFrame * kFrame);
}

void bench_fir_dot(benchmark::State& state, const Ops* ops) {
  // The FIR kernel is one dot per output sample; sweep a 1-D signal the
  // way the decimating kernel does.
  const std::vector<double> signal = random_vec(kFrame * kFrame / 16, 3);
  const std::vector<double> taps = random_vec(kTaps, 4);
  const int n = static_cast<int>(signal.size()) - kTaps;
  double sink = 0.0;
  for (auto _ : state) {
    for (int i = 0; i < n; ++i)
      sink += ops->dot(signal.data() + i, taps.data(), kTaps);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void bench_elementwise(benchmark::State& state, const Ops* ops) {
  const Tile a = random_frame(kFrame, kFrame, 5);
  const Tile b = random_frame(kFrame, kFrame, 6);
  Tile out(kFrame, kFrame);
  const int n = kFrame * kFrame;
  for (auto _ : state) {
    ops->sub(a.data(), b.data(), out.data(), n);
    ops->scale(out.data(), out.data(), n, 0.5, 8.0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}

void bench_sobel(benchmark::State& state, const Ops* ops) {
  const Tile in = random_frame(kFrame + 2, kFrame + 2, 7);
  Tile out(kFrame, kFrame);
  for (auto _ : state) {
    ops->sobel2d(in.data(), in.stride(), out.data(), out.stride(), kFrame,
                 kFrame);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kFrame * kFrame);
}

void bench_erode(benchmark::State& state, const Ops* ops, int k) {
  const Tile in = random_frame(kFrame + k - 1, kFrame + k - 1, 8);
  Tile out(kFrame, kFrame);
  for (auto _ : state) {
    ops->erode2d(in.data(), in.stride(), k, k, out.data(), out.stride(),
                 kFrame, kFrame);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kFrame * kFrame);
}

void bench_median3x3(benchmark::State& state, const Ops* ops) {
  const Tile in = random_frame(kFrame + 2, kFrame + 2, 9);
  Tile out(kFrame, kFrame);
  for (auto _ : state) {
    ops->median3x3_2d(in.data(), in.stride(), out.data(), out.stride(),
                      kFrame, kFrame);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kFrame * kFrame);
}

void bench_histogram(benchmark::State& state, const Ops* ops) {
  const Tile in = random_frame(kFrame, kFrame, 10);
  std::vector<double> uppers(kBins);
  for (int i = 0; i < kBins; ++i) uppers[static_cast<size_t>(i)] = 256.0 * (i + 1) / kBins;
  std::vector<long> counts(kBins, 0);
  for (auto _ : state) {
    ops->histogram2d(in.data(), in.stride(), in.width(), in.height(),
                     uppers.data(), kBins, counts.data());
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * kFrame * kFrame);
}

// A/B the two bin-search strategies on identical uniform (sorted) bounds
// and uniformly distributed samples: the early-exit scan stops halfway on
// average but branch-mispredicts per sample; the sorted variant always
// touches every bound but is branch-free.
void bench_find_bin(benchmark::State& state, const Ops* ops, bool sorted) {
  const std::vector<double> samples = random_vec(kFrame * kFrame / 16, 11);
  std::vector<double> uppers(kBins);
  for (int i = 0; i < kBins; ++i)
    uppers[static_cast<size_t>(i)] = 16.0 * (i + 1) / kBins;
  auto* fn = sorted ? ops->find_bin_sorted : ops->find_bin;
  long sink = 0;
  for (auto _ : state) {
    for (double v : samples) sink += fn(v, uppers.data(), kBins);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(samples.size()));
}

void register_all() {
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2, Isa::kNeon}) {
    if (!bpp::simd::supported(isa)) continue;
    const Ops* ops = &bpp::simd::ops_for(isa);
    const std::string tag = std::string("/") + ops->name;
    benchmark::RegisterBenchmark(("conv2d_3x3" + tag).c_str(),
                                 [ops](benchmark::State& s) { bench_conv2d(s, ops, 3); });
    benchmark::RegisterBenchmark(("conv2d_5x5" + tag).c_str(),
                                 [ops](benchmark::State& s) { bench_conv2d(s, ops, 5); });
    benchmark::RegisterBenchmark(("fir_dot_32tap" + tag).c_str(),
                                 [ops](benchmark::State& s) { bench_fir_dot(s, ops); });
    benchmark::RegisterBenchmark(("elementwise_sub_scale" + tag).c_str(),
                                 [ops](benchmark::State& s) { bench_elementwise(s, ops); });
    benchmark::RegisterBenchmark(("sobel_3x3" + tag).c_str(),
                                 [ops](benchmark::State& s) { bench_sobel(s, ops); });
    benchmark::RegisterBenchmark(("erode_3x3" + tag).c_str(),
                                 [ops](benchmark::State& s) { bench_erode(s, ops, 3); });
    benchmark::RegisterBenchmark(("median_3x3" + tag).c_str(),
                                 [ops](benchmark::State& s) { bench_median3x3(s, ops); });
    benchmark::RegisterBenchmark(("histogram_32bin" + tag).c_str(),
                                 [ops](benchmark::State& s) { bench_histogram(s, ops); });
    benchmark::RegisterBenchmark(("find_bin_scan_32bin" + tag).c_str(),
                                 [ops](benchmark::State& s) { bench_find_bin(s, ops, false); });
    benchmark::RegisterBenchmark(("find_bin_sorted_32bin" + tag).c_str(),
                                 [ops](benchmark::State& s) { bench_find_bin(s, ops, true); });
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
