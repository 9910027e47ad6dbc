// Tile: the dense 2-D data unit moved over channels.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/tile.h"
#include "core/token.h"

namespace bpp {
namespace {

// Channel slots hold Items, so the inline buffer sets every slot's size.
static_assert(sizeof(Item) <= 256, "DESIGN.md §4.4 bounds an Item at 256 bytes");

/// The largest tile stored inline (2x4: 8 elements + 8 pad doubles fill
/// the 16-double buffer) and the smallest on the heap (3x3).
constexpr Size2 kLargestInline{2, 4};
constexpr Size2 kSmallestHeap{3, 3};
static_assert(kLargestInline.area() + Tile::kPadDoubles ==
              static_cast<long>(Tile::kInlineDoubles));
static_assert(kSmallestHeap.area() + Tile::kPadDoubles >
              static_cast<long>(Tile::kInlineDoubles));

/// Fills `s` with distinct values starting at `base`.
Tile numbered(Size2 s, double base) {
  Tile t(s);
  for (int y = 0; y < s.h; ++y)
    for (int x = 0; x < s.w; ++x) t.at(x, y) = base + x + 10 * y;
  return t;
}

/// The storage contract: `s` dense rows numbered from `base`, data()
/// aligned, kPadDoubles zeroed doubles past the last element.
void expect_contract(const Tile& t, Size2 s, double base) {
  ASSERT_EQ(t.size(), s);
  ASSERT_FALSE(t.empty());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % Tile::kAlignBytes, 0u);
  EXPECT_EQ(t.stride(), s.w);
  for (int y = 0; y < s.h; ++y) {
    EXPECT_EQ(t.row_ptr(y), t.data() + static_cast<std::ptrdiff_t>(y) * s.w);
    for (int x = 0; x < s.w; ++x) EXPECT_EQ(t.at(x, y), base + x + 10 * y);
  }
  const double* past = t.data() + s.area();
  for (int i = 0; i < Tile::kPadDoubles; ++i) EXPECT_EQ(past[i], 0.0) << i;
}

TEST(Tile, ConstructionAndAccess) {
  Tile t(4, 3);
  EXPECT_EQ(t.size(), (Size2{4, 3}));
  EXPECT_EQ(t.words(), 12);
  EXPECT_FALSE(t.empty());
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 4; ++x) EXPECT_EQ(t.at(x, y), 0.0);
  t.at(2, 1) = 7.5;
  EXPECT_EQ(t.at(2, 1), 7.5);
  EXPECT_EQ(std::as_const(t).at(2, 1), 7.5);
}

TEST(Tile, FillConstructor) {
  Tile t(Size2{2, 2}, 3.25);
  for (int y = 0; y < 2; ++y)
    for (int x = 0; x < 2; ++x) EXPECT_EQ(t.at(x, y), 3.25);
}

TEST(Tile, DefaultIsEmpty) {
  Tile t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.words(), 0);
}

TEST(Tile, RowMajorLayout) {
  Tile t(3, 2);
  t.at(0, 0) = 1;
  t.at(1, 0) = 2;
  t.at(2, 0) = 3;
  t.at(0, 1) = 4;
  EXPECT_EQ(t.to_vector(), (std::vector<double>{1, 2, 3, 4, 0, 0}));
  EXPECT_EQ(t.stride(), 3);
  EXPECT_EQ(t.row_ptr(1), t.data() + 3);
  EXPECT_EQ(t.row_ptr(1)[0], 4.0);
}

TEST(Tile, AlignedAndPadded) {
  // The SIMD backend's storage contract: data() is kAlignBytes-aligned and
  // every row may be over-read by one vector width — the last row's
  // overhang lands in kPadDoubles of zeroed slack (ASan would flag this
  // loop if the pad were missing).
  for (const Size2 s : {Size2{1, 1}, Size2{3, 2}, Size2{7, 5}, Size2{64, 3},
                       kLargestInline, Size2{8, 1}, kSmallestHeap,
                       Size2{9, 1}}) {
    Tile t(s, 1.5);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % Tile::kAlignBytes,
              0u);
    const double* past = t.row_ptr(s.h - 1) + s.w;
    double sum = 0.0;
    for (int i = 0; i < Tile::kPadDoubles; ++i) sum += past[i];
    EXPECT_EQ(sum, 0.0);
  }
}

TEST(Tile, CopyPreservesContentsAndPad) {
  Tile t(3, 3);
  t.at(2, 2) = 4.25;
  const Tile c = t;       // copy ctor
  Tile d;
  d = c;                  // copy assign
  EXPECT_EQ(d, t);
  const double* past = d.row_ptr(2) + 3;
  for (int i = 0; i < Tile::kPadDoubles; ++i) EXPECT_EQ(past[i], 0.0);
  Tile m = std::move(d);  // move leaves source empty
  EXPECT_EQ(m, t);
  EXPECT_TRUE(d.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(Tile, StorageContractHoldsAcrossCopyAndMove) {
  for (const Size2 s : {kLargestInline, kSmallestHeap}) {
    SCOPED_TRACE(to_string(s));
    const Tile src = numbered(s, 1.0);
    expect_contract(src, s, 1.0);

    Tile copy(src);
    expect_contract(copy, s, 1.0);
    EXPECT_NE(copy.data(), src.data());
    Tile assigned(kSmallestHeap);  // replaced storage of either kind
    assigned = src;
    expect_contract(assigned, s, 1.0);

    Tile moved(std::move(copy));
    expect_contract(moved, s, 1.0);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy.words(), 0);
    Tile move_assigned(kLargestInline);
    move_assigned = std::move(moved);
    expect_contract(move_assigned, s, 1.0);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)

    // A moved-from tile is reusable.
    moved = numbered(s, 5.0);
    expect_contract(moved, s, 5.0);
  }
}

TEST(Tile, SwapExchangesInlineAndHeapStorage) {
  Tile a = numbered(kLargestInline, 1.0);
  Tile b = numbered(Size2{1, 1}, 2.0);
  a.swap(b);  // inline <-> inline
  expect_contract(a, Size2{1, 1}, 2.0);
  expect_contract(b, kLargestInline, 1.0);

  Tile h = numbered(kSmallestHeap, 3.0);
  a.swap(h);  // inline <-> heap
  expect_contract(a, kSmallestHeap, 3.0);
  expect_contract(h, Size2{1, 1}, 2.0);
  h.swap(a);  // heap <-> inline, from the other side
  expect_contract(h, kSmallestHeap, 3.0);
  expect_contract(a, Size2{1, 1}, 2.0);

  Tile e;
  e.swap(a);  // empty <-> inline
  expect_contract(e, Size2{1, 1}, 2.0);
  EXPECT_TRUE(a.empty());

  for (Tile* t : {&e, &h}) {  // self-swap, inline and heap
    t->swap(*t);
    EXPECT_FALSE(t->empty());
  }
  expect_contract(e, Size2{1, 1}, 2.0);
  expect_contract(h, kSmallestHeap, 3.0);
}

TEST(Tile, Equality) {
  Tile a(2, 2), b(2, 2);
  EXPECT_EQ(a, b);
  b.at(1, 1) = 1.0;
  EXPECT_FALSE(a == b);
  Tile c(2, 3);
  EXPECT_FALSE(a == c);
}

TEST(Tile, Crop) {
  Tile t(5, 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 5; ++x) t.at(x, y) = x + 10 * y;
  const Tile c = t.crop(1, 2, {3, 2});
  ASSERT_EQ(c.size(), (Size2{3, 2}));
  EXPECT_EQ(c.at(0, 0), 21.0);
  EXPECT_EQ(c.at(2, 1), 33.0);
}

TEST(Tile, CropFull) {
  Tile t(3, 3);
  t.at(1, 1) = 5;
  EXPECT_EQ(t.crop(0, 0, {3, 3}), t);
}

TEST(Tile, ZeroPadding) {
  Tile t(2, 2);
  t.at(0, 0) = 1;
  t.at(1, 0) = 2;
  t.at(0, 1) = 3;
  t.at(1, 1) = 4;
  const Tile p = t.padded({1, 1, 1, 1});
  ASSERT_EQ(p.size(), (Size2{4, 4}));
  EXPECT_EQ(p.at(0, 0), 0.0);
  EXPECT_EQ(p.at(3, 3), 0.0);
  EXPECT_EQ(p.at(1, 1), 1.0);
  EXPECT_EQ(p.at(2, 2), 4.0);
}

TEST(Tile, AsymmetricPadding) {
  Tile t(2, 1);
  t.at(0, 0) = 9;
  const Tile p = t.padded({2, 0, 1, 3});
  ASSERT_EQ(p.size(), (Size2{5, 4}));
  EXPECT_EQ(p.at(2, 0), 9.0);
  EXPECT_EQ(p.at(0, 0), 0.0);
  EXPECT_EQ(p.at(4, 3), 0.0);
}

TEST(Tile, MirrorPadding) {
  Tile t(3, 1);
  t.at(0, 0) = 1;
  t.at(1, 0) = 2;
  t.at(2, 0) = 3;
  const Tile p = t.padded({2, 0, 2, 0}, /*mirror=*/true);
  ASSERT_EQ(p.size(), (Size2{7, 1}));
  // Reflection about the edges: 3 2 | 1 2 3 | 2 1
  EXPECT_EQ(p.at(0, 0), 3.0);
  EXPECT_EQ(p.at(1, 0), 2.0);
  EXPECT_EQ(p.at(2, 0), 1.0);
  EXPECT_EQ(p.at(4, 0), 3.0);
  EXPECT_EQ(p.at(5, 0), 2.0);
  EXPECT_EQ(p.at(6, 0), 1.0);
}

TEST(Tile, MirrorPaddingSinglePixel) {
  Tile t(1, 1);
  t.at(0, 0) = 6;
  const Tile p = t.padded({1, 1, 1, 1}, /*mirror=*/true);
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 3; ++x) EXPECT_EQ(p.at(x, y), 6.0);
}

}  // namespace
}  // namespace bpp
