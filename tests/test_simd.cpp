// Scalar-vs-SIMD equivalence for every primitive in the dispatch table.
//
// The scalar table is the golden reference. For each ISA the machine
// supports, every primitive is checked against it across odd sizes and
// tail widths (1..4*W+3). Most primitives must match bit-for-bit; the two
// reductions that reassociate (dot, conv2d) are held to an explicit
// rounding bound: |simd - scalar| <= 2 * n * eps * sum|a_i * b_i|.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "apps/pipelines.h"
#include "apps/random_chain.h"
#include "core/tile.h"
#include "kernels/input.h"
#include "kernels/simd/simd.h"
#include "ref/reference.h"

namespace bpp::simd {
namespace {

using bpp::apps::splitmix;

// Uniform in [-128, 128) with a fractional part — deliberately not dyadic,
// so reassociated sums genuinely differ and the ULP bound is exercised.
double rnd(std::uint64_t& s) {
  return static_cast<double>(splitmix(s) % (1ULL << 53)) /
             static_cast<double>(1ULL << 45) -
         128.0;
}

std::vector<double> rnd_vec(std::uint64_t& s, int n) {
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = rnd(s);
  return v;
}

Tile rnd_tile(std::uint64_t& s, int w, int h) {
  Tile t(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) t.at(x, y) = rnd(s);
  return t;
}

std::vector<Isa> simd_isas() {
  std::vector<Isa> v;
  for (Isa isa : {Isa::kSse2, Isa::kAvx2, Isa::kNeon})
    if (supported(isa)) v.push_back(isa);
  return v;
}

// Rounding bound for an n-term reassociated dot product: each of the ~n
// roundings perturbs by at most eps * sum|a_i b_i|; factor 2 covers FMA
// rounding the product and the sum differently.
double dot_bound(const double* a, const double* b, int n) {
  double mag = 0.0;
  for (int i = 0; i < n; ++i) mag += std::abs(a[i] * b[i]);
  return 2.0 * n * std::numeric_limits<double>::epsilon() * mag;
}

constexpr int kMaxN = 4 * 8 + 3;  // covers every tail for W in {2, 4}

TEST(Simd, ScalarAlwaysSupported) {
  EXPECT_TRUE(supported(Isa::kScalar));
  EXPECT_TRUE(supported(detect_best()));
  EXPECT_STREQ(ops_for(Isa::kScalar).name, "scalar");
}

TEST(Simd, IsaNamesRoundTrip) {
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2, Isa::kNeon}) {
    const auto parsed = isa_from_name(isa_name(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  ASSERT_TRUE(isa_from_name("native").has_value());
  EXPECT_EQ(*isa_from_name("native"), detect_best());
  EXPECT_FALSE(isa_from_name("avx512").has_value());
  EXPECT_FALSE(isa_from_name("").has_value());
}

TEST(Simd, SetIsaRejectsUnsupported) {
  const Isa before = active_isa();
  bool any_unsupported = false;
  for (Isa isa : {Isa::kSse2, Isa::kAvx2, Isa::kNeon})
    if (!supported(isa)) {
      any_unsupported = true;
      EXPECT_FALSE(set_isa(isa));
      EXPECT_EQ(active_isa(), before);
    }
  if (!any_unsupported) GTEST_SKIP() << "every ISA supported here";
}

TEST(Simd, DotWithinReassociationBound) {
  const Ops& sc = ops_for(Isa::kScalar);
  std::uint64_t s = 1;
  for (Isa isa : simd_isas()) {
    const Ops& v = ops_for(isa);
    for (int n = 1; n <= kMaxN; ++n) {
      const std::vector<double> a = rnd_vec(s, n);
      const std::vector<double> b = rnd_vec(s, n);
      const double want = sc.dot(a.data(), b.data(), n);
      const double got = v.dot(a.data(), b.data(), n);
      EXPECT_LE(std::abs(got - want), dot_bound(a.data(), b.data(), n))
          << v.name << " n=" << n;
    }
  }
}

TEST(Simd, Conv2dWithinReassociationBound) {
  const Ops& sc = ops_for(Isa::kScalar);
  std::uint64_t s = 2;
  for (Isa isa : simd_isas()) {
    const Ops& v = ops_for(isa);
    for (const int kw : {1, 3, 5}) {
      for (int out_w = 1; out_w <= kMaxN; out_w += 3) {
        const int kh = kw;
        const int out_h = 3;
        const Tile in = rnd_tile(s, out_w + kw - 1, out_h + kh - 1);
        const std::vector<double> k = rnd_vec(s, kw * kh);
        Tile want(out_w, out_h);
        Tile got(out_w, out_h);
        sc.conv2d(in.data(), in.stride(), k.data(), kw, kh, want.data(),
                  want.stride(), out_w, out_h);
        v.conv2d(in.data(), in.stride(), k.data(), kw, kh, got.data(),
                 got.stride(), out_w, out_h);
        for (int oy = 0; oy < out_h; ++oy)
          for (int ox = 0; ox < out_w; ++ox) {
            // Gather the window row-major to compute the per-output bound.
            std::vector<double> win;
            for (int ky = 0; ky < kh; ++ky)
              for (int kx = 0; kx < kw; ++kx)
                win.push_back(in.at(ox + kx, oy + ky));
            EXPECT_LE(std::abs(got.at(ox, oy) - want.at(ox, oy)),
                      dot_bound(win.data(), k.data(), kw * kh))
                << v.name << " k=" << kw << " out_w=" << out_w << " ("
                << ox << "," << oy << ")";
          }
      }
    }
  }
}

TEST(Simd, ReductionsBitExact) {
  const Ops& sc = ops_for(Isa::kScalar);
  std::uint64_t s = 3;
  for (Isa isa : simd_isas()) {
    const Ops& v = ops_for(isa);
    for (int n = 1; n <= kMaxN; ++n) {
      std::vector<double> p = rnd_vec(s, n);
      p[static_cast<size_t>(splitmix(s) % n)] = -0.0;  // signed-zero case
      EXPECT_EQ(v.reduce_min(p.data(), n), sc.reduce_min(p.data(), n))
          << v.name << " n=" << n;
      EXPECT_EQ(v.reduce_max(p.data(), n), sc.reduce_max(p.data(), n))
          << v.name << " n=" << n;
    }
  }
}

TEST(Simd, Morph2dBitExact) {
  const Ops& sc = ops_for(Isa::kScalar);
  std::uint64_t s = 4;
  for (Isa isa : simd_isas()) {
    const Ops& v = ops_for(isa);
    for (const int kw : {1, 3, 5})
      for (int out_w = 1; out_w <= kMaxN; out_w += 5) {
        const int out_h = 2;
        const Tile in = rnd_tile(s, out_w + kw - 1, out_h + kw - 1);
        Tile want(out_w, out_h), got(out_w, out_h);
        sc.erode2d(in.data(), in.stride(), kw, kw, want.data(), want.stride(),
                   out_w, out_h);
        v.erode2d(in.data(), in.stride(), kw, kw, got.data(), got.stride(),
                  out_w, out_h);
        EXPECT_EQ(got.to_vector(), want.to_vector())
            << v.name << " erode k=" << kw << " out_w=" << out_w;
        sc.dilate2d(in.data(), in.stride(), kw, kw, want.data(), want.stride(),
                    out_w, out_h);
        v.dilate2d(in.data(), in.stride(), kw, kw, got.data(), got.stride(),
                   out_w, out_h);
        EXPECT_EQ(got.to_vector(), want.to_vector())
            << v.name << " dilate k=" << kw << " out_w=" << out_w;
      }
  }
}

TEST(Simd, Median9MatchesNthElement) {
  std::uint64_t s = 5;
  // All tables (scalar included) must agree with nth_element, including on
  // duplicate-heavy windows.
  for (int trial = 0; trial < 500; ++trial) {
    double w[9];
    for (double& x : w)
      x = trial % 2 ? static_cast<double>(splitmix(s) % 4) : rnd(s);
    std::vector<double> v(w, w + 9);
    std::nth_element(v.begin(), v.begin() + 4, v.end());
    const double want = v[4];
    EXPECT_EQ(ops_for(Isa::kScalar).median9(w), want) << "trial " << trial;
    for (Isa isa : simd_isas())
      EXPECT_EQ(ops_for(isa).median9(w), want)
          << ops_for(isa).name << " trial " << trial;
  }
}

TEST(Simd, Median3x3BitExact) {
  const Ops& sc = ops_for(Isa::kScalar);
  std::uint64_t s = 6;
  for (Isa isa : simd_isas()) {
    const Ops& v = ops_for(isa);
    for (int out_w = 1; out_w <= kMaxN; out_w += 4) {
      const int out_h = 3;
      const Tile in = rnd_tile(s, out_w + 2, out_h + 2);
      Tile want(out_w, out_h), got(out_w, out_h);
      sc.median3x3_2d(in.data(), in.stride(), want.data(), want.stride(),
                      out_w, out_h);
      v.median3x3_2d(in.data(), in.stride(), got.data(), got.stride(), out_w,
                     out_h);
      EXPECT_EQ(got.to_vector(), want.to_vector())
          << v.name << " out_w=" << out_w;
    }
  }
}

TEST(Simd, Sobel2dBitExact) {
  const Ops& sc = ops_for(Isa::kScalar);
  std::uint64_t s = 7;
  for (Isa isa : simd_isas()) {
    const Ops& v = ops_for(isa);
    for (int out_w = 1; out_w <= kMaxN; out_w += 4) {
      const int out_h = 3;
      const Tile in = rnd_tile(s, out_w + 2, out_h + 2);
      Tile want(out_w, out_h), got(out_w, out_h);
      sc.sobel2d(in.data(), in.stride(), want.data(), want.stride(), out_w,
                 out_h);
      v.sobel2d(in.data(), in.stride(), got.data(), got.stride(), out_w,
                out_h);
      EXPECT_EQ(got.to_vector(), want.to_vector())
          << v.name << " out_w=" << out_w;
    }
  }
}

TEST(Simd, ElementwiseBitExact) {
  const Ops& sc = ops_for(Isa::kScalar);
  std::uint64_t s = 8;
  for (Isa isa : simd_isas()) {
    const Ops& v = ops_for(isa);
    for (int n = 1; n <= kMaxN; ++n) {
      const std::vector<double> a = rnd_vec(s, n);
      const std::vector<double> b = rnd_vec(s, n);
      std::vector<double> want(static_cast<size_t>(n));
      std::vector<double> got(static_cast<size_t>(n));
      const auto check = [&](const char* what) {
        EXPECT_EQ(got, want) << v.name << " " << what << " n=" << n;
      };
      sc.add(a.data(), b.data(), want.data(), n);
      v.add(a.data(), b.data(), got.data(), n);
      check("add");
      sc.sub(a.data(), b.data(), want.data(), n);
      v.sub(a.data(), b.data(), got.data(), n);
      check("sub");
      sc.mul(a.data(), b.data(), want.data(), n);
      v.mul(a.data(), b.data(), got.data(), n);
      check("mul");
      sc.absdiff(a.data(), b.data(), want.data(), n);
      v.absdiff(a.data(), b.data(), got.data(), n);
      check("absdiff");
      sc.abs1(a.data(), want.data(), n);
      v.abs1(a.data(), got.data(), n);
      check("abs");
      sc.scale(a.data(), want.data(), n, 0.3, -7.1);
      v.scale(a.data(), got.data(), n, 0.3, -7.1);
      check("scale");
      // Threshold exactly at a present value: > must stay strict.
      const double level = a[static_cast<size_t>(n) / 2];
      sc.threshold(a.data(), want.data(), n, level);
      v.threshold(a.data(), got.data(), n, level);
      check("threshold");
      sc.clamp(a.data(), want.data(), n, -20.0, 20.0);
      v.clamp(a.data(), got.data(), n, -20.0, 20.0);
      check("clamp");
    }
  }
}

TEST(Simd, FindBinFirstMatchEvenUnsorted) {
  const Ops& sc = ops_for(Isa::kScalar);
  // Deliberately unsorted bounds: first-match semantics, not lower_bound.
  const std::vector<double> uppers = {10.0, 5.0, 30.0, 5.0, 20.0,
                                      1.0,  50.0, 2.0, 40.0};
  const int bins = static_cast<int>(uppers.size());
  std::uint64_t s = 9;
  for (Isa isa : simd_isas()) {
    const Ops& v = ops_for(isa);
    for (int trial = 0; trial < 300; ++trial) {
      const double x = rnd(s) + 64.0;  // spread across [-64, 192)
      EXPECT_EQ(v.find_bin(x, uppers.data(), bins),
                sc.find_bin(x, uppers.data(), bins))
          << v.name << " x=" << x;
    }
    // Boundary values: v == upper goes to the next bin (strict <).
    for (int i = 0; i < bins; ++i) {
      EXPECT_EQ(v.find_bin(uppers[static_cast<size_t>(i)], uppers.data(), bins),
                sc.find_bin(uppers[static_cast<size_t>(i)], uppers.data(), bins));
    }
    EXPECT_EQ(v.find_bin(0.5, uppers.data(), 1), 0) << "single bin";
  }
}

TEST(Simd, FindBinSortedMatchesScanOnSortedBounds) {
  const Ops& sc = ops_for(Isa::kScalar);
  std::uint64_t s = 19;
  for (Isa isa : simd_isas()) {
    const Ops& v = ops_for(isa);
    for (const int bins : {1, 2, 3, 5, 8, 9, 32, 33}) {
      std::vector<double> uppers(static_cast<size_t>(bins));
      for (int i = 0; i < bins; ++i)
        uppers[static_cast<size_t>(i)] = 256.0 * (i + 1) / bins - 128.0;
      for (int trial = 0; trial < 200; ++trial) {
        const double x = rnd(s) * 3.0;  // spread well past both ends
        EXPECT_EQ(v.find_bin_sorted(x, uppers.data(), bins),
                  sc.find_bin(x, uppers.data(), bins))
            << v.name << " bins=" << bins << " x=" << x;
      }
      // Exact bound values: v == upper belongs to the next bin (strict <).
      for (int i = 0; i < bins; ++i)
        EXPECT_EQ(v.find_bin_sorted(uppers[static_cast<size_t>(i)],
                                    uppers.data(), bins),
                  sc.find_bin(uppers[static_cast<size_t>(i)], uppers.data(),
                              bins))
            << v.name << " bins=" << bins << " i=" << i;
      // A NaN sample falls through every bound into the last bin, the
      // same as the early-exit scan.
      const double nan = std::numeric_limits<double>::quiet_NaN();
      EXPECT_EQ(v.find_bin_sorted(nan, uppers.data(), bins), bins - 1)
          << v.name << " bins=" << bins;
    }
    // Duplicate bounds (empty bins) still count consistently.
    const std::vector<double> dup = {1.0, 1.0, 2.0, 2.0, 3.0};
    const int nd = static_cast<int>(dup.size());
    for (const double x : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 9.0})
      EXPECT_EQ(v.find_bin_sorted(x, dup.data(), nd),
                sc.find_bin(x, dup.data(), nd))
          << v.name << " x=" << x;
  }
}

TEST(Simd, Histogram2dBitExact) {
  const Ops& sc = ops_for(Isa::kScalar);
  std::uint64_t s = 10;
  for (Isa isa : simd_isas()) {
    const Ops& v = ops_for(isa);
    for (const int bins : {1, 2, 7, 32}) {
      std::vector<double> uppers(static_cast<size_t>(bins));
      for (int i = 0; i < bins; ++i)
        uppers[static_cast<size_t>(i)] = 256.0 * (i + 1) / bins - 128.0;
      const Tile in = rnd_tile(s, 37, 11);
      std::vector<long> want(static_cast<size_t>(bins), 0);
      std::vector<long> got(static_cast<size_t>(bins), 0);
      sc.histogram2d(in.data(), in.stride(), in.width(), in.height(),
                     uppers.data(), bins, want.data());
      v.histogram2d(in.data(), in.stride(), in.width(), in.height(),
                    uppers.data(), bins, got.data());
      EXPECT_EQ(got, want) << v.name << " bins=" << bins;
    }
  }
}

// Restores the active table even when an assertion fails mid-test.
struct IsaGuard {
  Isa saved = active_isa();
  ~IsaGuard() { set_isa(saved); }
};

// Whole-reference A/B: the composed Figure-1 reference (median, convolve,
// subtract, histogram) under the best SIMD table vs forced scalar. The
// histogram of the difference image is integer counts, so a result is only
// equal if every pipeline stage stayed within tolerance.
TEST(Simd, Figure1ReferenceScalarVsNative) {
  if (detect_best() == Isa::kScalar) GTEST_SKIP() << "no SIMD here";
  IsaGuard guard;
  const Tile frame = ref::make_frame({48, 36}, 0, default_pixel_fn());
  const Tile coeff = apps::blur_coeff5x5();
  std::vector<double> uppers(32);
  for (int i = 0; i < 32; ++i) uppers[static_cast<size_t>(i)] = 8.0 * (i + 1) - 128.0;

  ASSERT_TRUE(set_isa(Isa::kScalar));
  const std::vector<long> want = ref::figure1_histogram(frame, coeff, uppers);
  ASSERT_TRUE(set_isa(detect_best()));
  const std::vector<long> got = ref::figure1_histogram(frame, coeff, uppers);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace bpp::simd
