#pragma once
// Seeded random kernel chains: the generator behind the randomized
// property tests and the bpp_fuzz harness. A chain is a list of stages,
// each of which knows how it extends an application graph and how it
// transforms the composed scalar reference frame, so a compiled chain can
// be checked bit-exactly against the reference.

#include <cstdint>
#include <vector>

#include "core/geometry.h"
#include "core/graph.h"
#include "core/tile.h"

namespace bpp::apps {

/// splitmix64: advances `s` and returns the next pseudo-random word.
std::uint64_t splitmix(std::uint64_t& s);

/// One randomly chosen stage: how it extends the graph and how it
/// transforms the reference frame.
struct Stage {
  enum Kind { Conv3, Conv5, Median3, Sobel, Scale, Threshold, Down2 } kind;

  /// Pixels consumed from each side (to keep the frame large enough).
  [[nodiscard]] int shrink() const;
  /// Add the stage's kernel (and any coefficient source) to `g`, named
  /// "stage<idx>"; returns the kernel whose "in"/"out" ports chain.
  Kernel* append(Graph& g, int idx) const;
  /// The stage applied to a whole frame by the scalar reference.
  [[nodiscard]] Tile reference(const Tile& in) const;
};

/// Draw 1..max_stages stages that keep at least 8x8 pixels of
/// `frame_left`, which is updated to the chain's output frame. Never
/// empty: a chain that could keep nothing is a single Scale stage.
[[nodiscard]] std::vector<Stage> random_stages(std::uint64_t& rng,
                                               int max_stages,
                                               Size2& frame_left);

}  // namespace bpp::apps
