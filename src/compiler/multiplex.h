#pragma once
// Kernel-to-processor mapping and greedy time-multiplexing (paper §V).
//
// A 1:1 mapping gives every kernel its own core; with all the
// low-utilization buffers and split/join FSMs the transformations insert,
// that wastes most of each core (Fig. 12(a)). The greedy algorithm merges
// neighboring kernels onto one core while their combined CPU and memory
// utilization fits (Fig. 12(b)), except the initial input buffers, which
// must stay dedicated or they may block the input.

#include <set>
#include <string>
#include <vector>

#include "compiler/loads.h"
#include "compiler/machine.h"
#include "core/graph.h"

namespace bpp {

struct Mapping {
  std::vector<int> core_of;  ///< kernel id -> core id
  int cores = 0;

  [[nodiscard]] std::vector<std::vector<KernelId>> groups() const;
};

/// Every kernel on its own core (Fig. 12(a)).
[[nodiscard]] Mapping map_one_to_one(const Graph& g);

/// Kernels that may never be time-multiplexed: sources (they model the
/// off-chip stream) and the initial input buffers (directly downstream of
/// an application input, possibly through split FSMs).
[[nodiscard]] std::set<KernelId> multiplex_pinned(const Graph& g);

/// Greedy neighbor merging (Fig. 12(b)).
[[nodiscard]] Mapping map_greedy(const Graph& g, const LoadMap& loads,
                                 const MachineSpec& m);

/// Per-core utilization of a mapping: the sum of its kernels' LoadModel
/// utilizations, sources excluded — they model the sensor, not a PE (the
/// host runtime parks them between paced releases). Also the admission
/// ledger's per-virtual-core demand (service/admission.h).
[[nodiscard]] std::vector<double> per_core_utilization(const Graph& g,
                                                       const LoadMap& loads,
                                                       const MachineSpec& m,
                                                       const Mapping& map);

/// Compiler-estimated average core utilization under a mapping: the mean
/// of per_core_utilization over the cores hosting a non-source kernel.
[[nodiscard]] double estimated_utilization(const Graph& g, const LoadMap& loads,
                                           const MachineSpec& m,
                                           const Mapping& map);

}  // namespace bpp
