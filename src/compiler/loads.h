#pragma once
// Per-kernel load model: the compiler's estimate of the steady-state
// resource demand of each kernel, used to size parallelization (§IV) and
// to pack kernels onto cores during multiplexing (§V).
//
// The LoadMap starts from the data-flow analysis of the source graph and
// is kept up to date by the transformation passes: replicas carry 1/P of
// the original data load, and inserted infrastructure kernels (buffers,
// splits, joins, replicates, insets) get analytically computed entries.
// It is the one demand model: the parallelizer, the greedy mapper, the
// admission ledger and the predictor (src/predict) all price kernels
// from it, so they agree by construction.

#include <vector>

#include "compiler/dataflow.h"
#include "compiler/machine.h"
#include "core/graph.h"

namespace bpp {

struct LoadModel {
  double cycles_per_second = 0.0;      ///< methods + forward FSM steps
  double read_words_per_second = 0.0;  ///< input access volume
  double write_words_per_second = 0.0; ///< output access volume
  double firings_per_second = 0.0;     ///< activations, incl. forwards
  double forwards_per_second = 0.0;    ///< token forwards in firings
  long memory_words = 0;               ///< resident state + port buffers

  /// Fraction of one PE this kernel consumes, including I/O access time
  /// and per-activation context-switch overhead — the quantity Fig. 13
  /// decomposes into run/read/write.
  [[nodiscard]] double utilization(const MachineSpec& m) const {
    return (cycles_per_second + read_words_per_second * m.read_cost +
            write_words_per_second * m.write_cost +
            firings_per_second * m.context_switch) /
           m.clock_hz;
  }

  [[nodiscard]] double compute_utilization(const MachineSpec& m) const {
    return cycles_per_second / m.clock_hz;
  }

  /// Scaled copy: a replica handling 1/p of the data stream.
  [[nodiscard]] LoadModel divided(int p) const {
    LoadModel out = *this;
    out.cycles_per_second /= p;
    out.read_words_per_second /= p;
    out.write_words_per_second /= p;
    out.firings_per_second /= p;
    out.forwards_per_second /= p;
    return out;
  }
};

class LoadMap {
 public:
  LoadMap() = default;

  /// Seed from a data-flow analysis of (a prefix of) the graph, priced as
  /// the engines execute it. On top of the analysis' per-kernel counts:
  ///  * write traffic is charged per out-*channel* (the analysis charges
  ///    each output port once, but a port fanning out writes one copy per
  ///    channel), including the control tokens each framed stream carries;
  ///  * token-forward firings are added: a control token no method of the
  ///    kernel handles costs a context switch, a 2-cycle FSM step and one
  ///    read word per popped input (firing.h `fire`).
  LoadMap(const Graph& g, const DataflowResult& df);

  [[nodiscard]] const LoadModel& of(KernelId k) const {
    return loads_.at(static_cast<size_t>(k));
  }
  [[nodiscard]] LoadModel& of(KernelId k) { return loads_.at(static_cast<size_t>(k)); }

  /// Register a load for a newly added kernel (extends the table).
  void set(KernelId k, const LoadModel& l) {
    if (k >= static_cast<int>(loads_.size()))
      loads_.resize(static_cast<size_t>(k) + 1);
    loads_[static_cast<size_t>(k)] = l;
  }

  [[nodiscard]] int size() const { return static_cast<int>(loads_.size()); }

 private:
  std::vector<LoadModel> loads_;
};

/// Analytical load of a kernel that forwards `items_ps` items of
/// `item_words` words each (splits, joins, replicates, insets), with
/// `copies` output copies per item (replicates and overlapping splits).
[[nodiscard]] inline LoadModel forwarding_load(double items_ps, long item_words,
                                               double copies = 1.0,
                                               long memory = 64) {
  LoadModel l;
  l.firings_per_second = items_ps;
  l.cycles_per_second = items_ps * 8.0;  // FSM step; data moves via streamed I/O
  l.read_words_per_second = items_ps * item_words;
  l.write_words_per_second = items_ps * item_words * copies;
  l.memory_words = memory;
  return l;
}

}  // namespace bpp
