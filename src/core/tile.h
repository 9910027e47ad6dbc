#pragma once
// Tile: the unit of data moved over stream channels.
//
// A tile is a dense 2-D array of doubles in row-major order. After the
// buffering pass every channel carries exactly one tile of the consumer's
// declared window size per iteration, so the tile shape on a channel is an
// invariant checked at execution time.
//
// Storage contract (the SIMD backend relies on this):
//   - data() is aligned to kAlignBytes (one cache line, enough for any
//     vector width up to AVX-512);
//   - the allocation extends kPadDoubles zero-initialized doubles past the
//     last element, so a row pointer may be *read* up to one vector width
//     beyond the row end (the over-read lands in the next row or in the
//     tail pad, never outside the allocation). Writes past a row end are
//     never allowed;
//   - rows are contiguous with stride() == width() doubles (no inter-row
//     padding), so the whole tile is also one contiguous span of words().
//
// Storage (DESIGN.md §4.4): a tile whose elements plus pad fit in
// kInlineDoubles lives in a buffer inside the Tile itself, so the 1x1 and
// 5x1 items on most channels never touch the heap. A tile of up to
// kMaxCachedDoubles (every per-item window) takes a block from the
// per-thread block cache in tile.cpp: a window is made by its buffer's
// worker and freed by its consumer's, and the cache sends the block home
// to the thread that made it, so neither side takes an allocator lock.
// Larger tiles (whole frames) take a plain ::operator new block, aligned by
// hand. Either way, data() belongs to the tile's current storage: a move
// copies an inline buffer, so a pointer taken before moving a small tile
// does not follow it.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <vector>

#include "core/geometry.h"

namespace bpp {

class Tile {
 public:
  /// Doubles of readable (zeroed) slack past the last element.
  static constexpr int kPadDoubles = 8;
  /// Alignment of data() in bytes.
  static constexpr std::size_t kAlignBytes = 64;
  /// Doubles of in-object storage: tiles of up to kInlineDoubles -
  /// kPadDoubles elements allocate nothing. Covers 1x1, 5x1 and 1x5; a
  /// buffer that also held 5x5 windows made every channel slot larger and
  /// both engines slower (EXPERIMENTS.md).
  static constexpr std::size_t kInlineDoubles = 16;
  /// Doubles in the largest block the block cache keeps: elements plus
  /// pad of up to this many (conv9x9's window is 89) are cached; larger
  /// tiles allocate and free their own block.
  static constexpr std::size_t kMaxCachedDoubles = 128;

  /// Empty. User-provided so that value-initialized slot arrays do not
  /// zero-fill the inline buffer.
  Tile() noexcept {}  // NOLINT(modernize-use-equals-default)
  Tile(int w, int h) : size_{w, h} {
    assert(w >= 0 && h >= 0);
    if (area() > 0) allocate(0.0);
  }
  explicit Tile(Size2 s) : Tile(s.w, s.h) {}
  Tile(Size2 s, double fill) : size_(s) {
    if (area() > 0) allocate(fill);
  }

  Tile(const Tile& o) : size_(o.size_) {
    if (o.data_) {
      allocate_raw();
      std::memcpy(data_, o.data_, storage_doubles() * sizeof(double));
    }
  }
  Tile(Tile&& o) noexcept { steal(o); }
  Tile& operator=(const Tile& o) {
    if (this != &o) *this = Tile(o);
    return *this;
  }
  Tile& operator=(Tile&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~Tile() { release(); }

  void swap(Tile& o) noexcept {
    if (this == &o) return;
    Tile tmp(std::move(o));
    o = std::move(*this);
    *this = std::move(tmp);
  }

  [[nodiscard]] Size2 size() const { return size_; }
  [[nodiscard]] int width() const { return size_.w; }
  [[nodiscard]] int height() const { return size_.h; }
  [[nodiscard]] long words() const { return size_.area(); }
  [[nodiscard]] bool empty() const { return data_ == nullptr; }

  [[nodiscard]] double& at(int x, int y) {
    assert(x >= 0 && x < size_.w && y >= 0 && y < size_.h);
    return data_[static_cast<std::size_t>(y) * size_.w + x];
  }
  [[nodiscard]] double at(int x, int y) const {
    assert(x >= 0 && x < size_.w && y >= 0 && y < size_.h);
    return data_[static_cast<std::size_t>(y) * size_.w + x];
  }

  [[nodiscard]] double* data() { return data_; }
  [[nodiscard]] const double* data() const { return data_; }

  /// First element of row `y`; rows are contiguous, stride() apart.
  [[nodiscard]] double* row_ptr(int y) {
    assert(y >= 0 && y < size_.h);
    return data_ + static_cast<std::size_t>(y) * size_.w;
  }
  [[nodiscard]] const double* row_ptr(int y) const {
    assert(y >= 0 && y < size_.h);
    return data_ + static_cast<std::size_t>(y) * size_.w;
  }
  /// Doubles between consecutive row starts (== width(): rows are dense).
  [[nodiscard]] int stride() const { return size_.w; }

  /// Contents as a vector (copy) — convenience for tests and serialization.
  [[nodiscard]] std::vector<double> to_vector() const {
    return {data_, data_ + area()};
  }

  /// Copies the sub-rectangle [x0, x0+s.w) x [y0, y0+s.h) into a new tile.
  [[nodiscard]] Tile crop(int x0, int y0, Size2 s) const {
    assert(x0 >= 0 && y0 >= 0 && x0 + s.w <= size_.w && y0 + s.h <= size_.h);
    Tile out(s);
    for (int y = 0; y < s.h; ++y)
      std::memcpy(out.row_ptr(y), row_ptr(y0 + y) + x0,
                  static_cast<std::size_t>(s.w) * sizeof(double));
    return out;
  }

  /// Returns a copy of this tile surrounded by a zero (or mirrored) border.
  [[nodiscard]] Tile padded(const Border& b, bool mirror = false) const {
    Tile out(size_.w + b.left + b.right, size_.h + b.top + b.bottom);
    for (int y = 0; y < out.height(); ++y) {
      double* orow = out.row_ptr(y);
      const int sy = y - b.top;
      if (mirror) {
        const double* srow = row_ptr(reflect(sy, size_.h));
        for (int x = 0; x < out.width(); ++x)
          orow[x] = srow[reflect(x - b.left, size_.w)];
      } else if (sy >= 0 && sy < size_.h) {
        std::memcpy(orow + b.left, row_ptr(sy),
                    static_cast<std::size_t>(size_.w) * sizeof(double));
      }
    }
    return out;
  }

  friend bool operator==(const Tile& a, const Tile& b) {
    if (a.size_ != b.size_) return false;
    // Element-wise double comparison (not memcmp): -0.0 == 0.0 compares
    // equal, NaN != NaN, matching the previous std::vector semantics.
    return std::equal(a.data_, a.data_ + a.area(), b.data_);
  }

 private:
  [[nodiscard]] std::size_t area() const {
    return static_cast<std::size_t>(size_.area());
  }

  static int reflect(int v, int n) {
    if (n == 1) return 0;
    while (v < 0 || v >= n) {
      if (v < 0) v = -v;
      if (v >= n) v = 2 * n - 2 - v;
    }
    return v;
  }

  [[nodiscard]] bool is_inline() const { return data_ == inline_; }
  /// Doubles copied with the tile: the whole inline buffer, or the heap
  /// block's elements and pad.
  [[nodiscard]] std::size_t storage_doubles() const {
    return is_inline() ? kInlineDoubles : area() + kPadDoubles;
  }

  void allocate_raw() {
    const std::size_t n = area() + kPadDoubles;
    data_ = n <= kInlineDoubles ? inline_ : take_block(n);
  }
  void allocate(double fill) {
    allocate_raw();
    std::fill_n(data_, area(), fill);
    // Deterministic over-reads (and whole-buffer copies of inline tiles).
    std::fill(data_ + area(), data_ + storage_doubles(), 0.0);
  }
  /// Take `o`'s storage, leaving it empty.
  void steal(Tile& o) noexcept {
    size_ = o.size_;
    if (o.is_inline()) {
      std::memcpy(inline_, o.inline_, sizeof inline_);
      data_ = inline_;
    } else {
      data_ = o.data_;
    }
    o.size_ = {0, 0};
    o.data_ = nullptr;
  }
  void release() {
    if (data_ && !is_inline()) give_block(data_, area() + kPadDoubles);
    data_ = nullptr;
  }

  /// A kAlignBytes-aligned block of at least `doubles` doubles (tile.cpp).
  static double* take_block(std::size_t doubles);
  /// Returns a block from take_block(doubles), from any thread.
  static void give_block(double* data, std::size_t doubles) noexcept;

  Size2 size_{0, 0};
  double* data_ = nullptr;  ///< inline_, a heap block, or null when empty
  alignas(kAlignBytes) double inline_[kInlineDoubles];
};

}  // namespace bpp
