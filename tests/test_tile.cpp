// Tile: the dense 2-D data unit moved over channels.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/spsc_ring.h"
#include "core/tile.h"
#include "core/token.h"

// Every plain allocation in this binary is counted, from any thread, so a
// test can hold a region of code at zero fresh tile blocks.
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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

TEST(Tile, CrossThreadBlocksReturnToTheirOwner) {
  // A buffer's worker makes windows and its consumer's worker frees them.
  // The freed blocks go back to the producer's cache. Each round's windows
  // are all alive before any is freed, so the first round makes as many
  // blocks as any round needs, and later rounds make none.
  constexpr int kRounds = 101, kPerRound = 64;
  const Size2 kWindow5{5, 5};
  auto shape = [&](int i) { return i % 2 == 0 ? kSmallestHeap : kWindow5; };
  SpscRing<Item> ring(kPerRound);
  std::atomic<int> produced{0}, consumed{0};
  auto wait_for = [](const std::atomic<int>& count, int n) {
    while (count.load(std::memory_order_acquire) < n) std::this_thread::yield();
  };
  std::thread consumer([&] {
    for (int i = 0; i < kRounds * kPerRound; ++i) {
      wait_for(produced, (i / kPerRound + 1) * kPerRound);
      expect_contract(as_tile(*ring.front()), shape(i), i);
      ring.pop();  // frees the window on this thread
      consumed.store(i + 1, std::memory_order_release);
    }
  });
  long allocations = -1;
  std::thread producer([&] {
    long before = 0;
    for (int r = 0; r < kRounds; ++r) {
      if (r == 1) before = g_allocations.load();
      for (int k = 0; k < kPerRound; ++k) {
        const int i = r * kPerRound + k;
        ASSERT_TRUE(ring.try_push(numbered(shape(i), i)));
      }
      produced.store((r + 1) * kPerRound, std::memory_order_release);
      wait_for(consumed, (r + 1) * kPerRound);
    }
    allocations = g_allocations.load() - before;
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(allocations, 0);
}

TEST(Tile, BlocksOutliveTheirThread) {
  // A window can outlive the worker that made it. The worker's cache is
  // released when its thread exits, with the blocks the worker freed
  // itself; blocks freed later still go back to it; and the next thread
  // that needs a cache adopts it, blocks and all. The 7x7 class is used
  // by no other test here, so the adopted cache holds exactly the first
  // thread's blocks of it.
  constexpr int kTiles = 16;
  constexpr Size2 kWindow7{7, 7};
  std::set<const double*> blocks;
  std::vector<Tile> made;
  made.reserve(kTiles);
  std::thread([&] {
    std::vector<Tile> own;
    own.reserve(kTiles / 2);
    for (int i = 0; i < kTiles; ++i)
      (i % 2 == 0 ? own : made).push_back(numbered(kWindow7, i));
    for (const Tile& t : own) blocks.insert(t.data());
  }).join();  // frees `own` on the thread that made it
  for (int i = 0; i < kTiles / 2; ++i) {
    expect_contract(made[static_cast<std::size_t>(i)], kWindow7, 2 * i + 1);
    blocks.insert(made[static_cast<std::size_t>(i)].data());
  }
  made.clear();  // freed here, after the thread that made them has exited

  long allocations = -1;
  std::thread([&] {
    const long before = g_allocations.load();
    for (int i = 0; i < kTiles; ++i)
      made.push_back(numbered(kWindow7, 100 + i));
    allocations = g_allocations.load() - before;
  }).join();
  EXPECT_EQ(allocations, 0);
  std::set<const double*> reused;
  for (int i = 0; i < kTiles; ++i) {
    expect_contract(made[static_cast<std::size_t>(i)], kWindow7, 100 + i);
    reused.insert(made[static_cast<std::size_t>(i)].data());
  }
  EXPECT_EQ(reused, blocks);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(TileDeathTest, CachedBlockIsPoisonedUnderAsan) {
  // A freed window's block waits in its cache for reuse, poisoned, so a
  // read through a stale pointer still faults.
  EXPECT_DEATH(
      {
        const double* stale = nullptr;
        {
          const Tile t = numbered(kSmallestHeap, 1.0);
          stale = t.data();
        }
        const volatile double v = stale[0];
        (void)v;
      },
      "use-after-poison");
}
#endif

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
