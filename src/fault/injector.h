#pragma once
// Injector: turns a FaultPlan into deterministic per-firing perturbations.
//
// Determinism is the whole point: both engines must be replayable under a
// fixed (plan, seed), and the host runtime must be replayable regardless of
// thread interleaving. The injector therefore draws nothing from shared
// RNG state — every decision is a pure counter-based hash of
// (seed, kernel id, firing index, salt). Each kernel is owned by exactly
// one worker in the runtime, so a per-kernel firing counter is free of
// races, and the simulator uses the same counters; faulted firing N of
// kernel K sees the same Perturbation in both engines.
//
// Timing faults perturb *timing only* (scale, stall, delivery delay);
// values are never touched, so bit-exactness against the scalar reference
// must hold under any plan (asserted by the fuzz harness and
// test_random_pipelines). The recovery fault kinds (throw/wedge) are the
// exception: they abort or halt the firing instead of retiming it, exist to
// exercise the supervision layer (DESIGN.md §8), and are ignored by the
// timing simulator.

#include <cstdint>
#include <vector>

#include "core/error.h"
#include "fault/plan.h"

namespace bpp {
class Graph;
}

namespace bpp::fault {

/// Raised by the host runtime when a firing draws a throw fault. Derives
/// from Error so existing catch sites treat it like any kernel failure.
class InjectedFault : public Error {
 public:
  using Error::Error;
};

/// The perturbation applied to a single firing.
struct Perturbation {
  double time_scale = 1.0;      ///< multiply execution time/cycles by this
  double stall_seconds = 0.0;   ///< stall before the firing runs
  double delivery_delay_seconds = 0.0;  ///< outputs become visible this late
  bool throw_fault = false;  ///< the firing raises InjectedFault (kThrow)
  bool wedge = false;        ///< the kernel stops firing for good (kWedge)

  [[nodiscard]] bool identity() const {
    return time_scale == 1.0 && stall_seconds == 0.0 &&
           delivery_delay_seconds == 0.0 && !throw_fault && !wedge;
  }
};

/// Deterministic, thread-safe (const after bind) fault source.
class Injector {
 public:
  Injector() = default;
  Injector(FaultPlan plan, std::uint64_t seed)
      : plan_(std::move(plan)), seed_(seed) {}

  /// The rules bound to one kernel: the first matching kernel and delivery
  /// rules (indices into the plan, or -1) and its core's throttle.
  struct Binding {
    int kernel_rule = -1;
    int delivery_rule = -1;
    double core_throttle = 1.0;
  };

  /// Resolve glob rules against the graph's kernel names and the placement
  /// (core_of[kernel] = core index, or empty when unplaced: core rules are
  /// then ignored). A source binds its delivery rule alone: a camera
  /// cannot run slow, but its link can. This is the one place plan rules
  /// are resolved. Must be called before perturb(); may be re-bound.
  void bind(const Graph& graph, const std::vector<int>& core_of);

  /// Per-kernel resolution of the last bind(), indexed by kernel id.
  [[nodiscard]] const std::vector<Binding>& bindings() const { return bindings_; }

  [[nodiscard]] bool bound() const { return bound_; }
  [[nodiscard]] bool active() const { return bound_ && !plan_.empty(); }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Perturbation for firing `firing_index` (0-based, per kernel) of
  /// kernel `kernel_id`. Pure function of (seed, kernel, firing).
  [[nodiscard]] Perturbation perturb(int kernel_id,
                                     std::int64_t firing_index) const;

 private:
  /// Uniform double in [0, 1) from the firing-scoped hash stream.
  [[nodiscard]] double u01(int kernel_id, std::int64_t firing_index,
                           std::uint64_t salt) const;

  FaultPlan plan_;
  std::uint64_t seed_ = 0;
  std::vector<Binding> bindings_;
  bool bound_ = false;
};

/// Busy-wait for `seconds` (host runtime's way of physically realizing a
/// stall; the simulator adds model time instead). Spins on steady_clock —
/// sleeping would park the worker and under-represent the induced load.
void spin_for(double seconds);

}  // namespace bpp::fault
