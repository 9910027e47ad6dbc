#pragma once
// The compiler driver: validate -> align (§III-C) -> analyze (§III-A) ->
// buffer (§III-B) -> parallelize (§IV) -> map/multiplex (§V).
//
// compile() consumes an application graph and produces everything the
// execution engines need: the transformed graph, the kernel-to-core
// mapping, and the analysis/load bookkeeping, plus a record of every edit
// for reports and tests.

#include <string>
#include <vector>

#include "compiler/alignment.h"
#include "compiler/buffering.h"
#include "compiler/dataflow.h"
#include "compiler/loads.h"
#include "compiler/machine.h"
#include "compiler/multiplex.h"
#include "compiler/parallelize.h"
#include "core/graph.h"
#include "obs/deadline.h"

namespace bpp {

struct CompileOptions {
  MachineSpec machine;
  AlignPolicy align_policy = AlignPolicy::Trim;
  /// Greedy time-multiplexing (§V); with false, the 1:1 mapping is used.
  bool multiplex = true;
  /// Skip parallelization (analysis/buffering only) — for functional runs
  /// of the untransformed application.
  bool parallelize = true;
  /// Fig. 9 extension: parallelize windowed kernels by reuse-linked buffer
  /// stripes instead of round-robin window distribution.
  bool reuse_opt = false;
};

struct CompiledApp {
  Graph graph;
  DataflowResult analysis;  ///< strict post-buffering analysis (extended)
  LoadMap loads;
  std::vector<AlignmentEdit> alignment_edits;
  std::vector<BufferInsertion> buffers;
  ParallelizationResult parallelization;
  Mapping one_to_one;  ///< Fig. 12(a)
  Mapping mapping;     ///< the chosen mapping (greedy unless disabled)
  CompileOptions options;
};

[[nodiscard]] CompiledApp compile(Graph g, CompileOptions options = {});

/// The deadline schedule: the fastest rate the data-flow analysis assigned
/// — the input frame rate for every bundled pipeline — and the lateness
/// tolerance, both stretched by `slowdown` (<= 0: not stretched) when the
/// app runs on a slower (paced) schedule, with `slack_seconds` of slack.
[[nodiscard]] obs::DeadlineOptions declared_schedule(
    const CompiledApp& app, double slowdown, double slack_seconds = 0.0);

}  // namespace bpp
