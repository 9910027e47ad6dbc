#pragma once
// Buffer column-splitting (paper §IV-C, Fig. 10).
//
// Buffers are rarely CPU-bound but are limited by per-PE storage, so they
// are parallelized by splitting column-wise rather than round-robin (which
// would reorder the data). Output window-columns are divided among B
// slices; each slice's input column range extends past its window range by
// the window halo, so the overlapping columns are replicated to both
// neighbors by a ColumnRanges split FSM. A RunLength join restores scan
// order.
//
// The slicing itself (slices, split in front, their loads) is shared with
// the Fig. 9 reuse striping of the parallelization pass, which wires each
// slice to its own replica instead of to a join.

#include <string>
#include <vector>

#include "compiler/dataflow.h"
#include "compiler/loads.h"
#include "core/graph.h"

namespace bpp {

struct BufferSplitResult {
  std::string original;
  int slices = 1;
  std::vector<std::string> slice_annotations;  ///< "[26x6]", "[25x6]", ...
  std::vector<std::pair<int, int>> input_ranges;  ///< per-slice input columns
  int overlap_columns = 0;  ///< columns replicated between adjacent slices
};

/// Compute the per-slice window-column boundaries for it_w output columns
/// over B slices (balanced, in order).
[[nodiscard]] std::vector<int> slice_boundaries(int it_w, int slices);

/// Column slicing of a pixel-granularity buffer: its geometry, and once
/// built, the slice kernels and the column-range split feeding them.
struct ColumnSlices {
  Size2 frame{0, 0};  ///< the buffer's original frame
  Size2 win{0, 0};    ///< its output window
  Step2 step{1, 1};   ///< its output step
  Size2 iters{0, 0};  ///< windows per frame
  std::vector<std::pair<int, int>> ranges;  ///< input pixel columns per slice
  std::vector<int> runs;                    ///< window columns per slice
  std::vector<KernelId> slices;             ///< slice 0 is the original
  KernelId split = -1;

  [[nodiscard]] int count() const { return static_cast<int>(runs.size()); }
};

/// Plan up to `slices` balanced column slices of buffer kernel `k`, at
/// most one per window column. Throws unless `k` is a BufferKernel with
/// 1x1 input granularity.
[[nodiscard]] ColumnSlices plan_column_slices(const Graph& g, KernelId k,
                                              int slices);

/// Build the slices planned in `cs` for `k`'s input stream of `rate`
/// frames/s: `k` becomes slice 0, reshaped to its columns, the others
/// are new buffers; a column-range split takes over `k`'s input. Sets the
/// slice and split loads; with `reuse_link` the slices are reuse-linked
/// (Fig. 9) and charged for fresh columns only. Leaves to the caller the
/// split's output i -> slice i connections, `k`'s outputs and the new
/// channels' stream info.
void slice_buffer(Graph& g, LoadMap& loads, KernelId k, double rate,
                  ColumnSlices& cs, bool reuse_link);

/// Split buffer kernel `k` (which must be a BufferKernel with 1x1 input
/// granularity) into `slices` column slices. Rewires the graph, updates
/// the load map, and returns a description of the split.
BufferSplitResult split_buffer(Graph& g, DataflowResult& df, LoadMap& loads,
                               KernelId k, int slices);

}  // namespace bpp
