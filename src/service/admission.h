#pragma once
// Analytical admission control for the multi-tenant pipeline service.
//
// The compiler already prices every kernel (LoadMap, §III-A/§V): a
// kernel's utilization is the fraction of one model PE it consumes, and a
// compiled mapping groups kernels onto virtual cores each sized to stay
// under the machine's target_utilization. Admission reuses exactly that
// model instead of measuring: a tenant's demand is its per-virtual-core
// utilization vector, and the pool is `cores` PEs of budgeted capacity.
// This is the bi-criteria throughput/latency trade of Benoit et al. made
// operational — admit while the analytic schedule still closes, degrade
// (frame-shed) in a bounded band past that, reject beyond it.
//
// Placement is greedy worst-fit: virtual cores sorted by descending
// demand, each onto the currently least-loaded pool core. The verdict is
// decided by the peak pool-core load after placement:
//
//   peak <= core_budget      -> kAdmitted  (analytic schedule closes)
//   peak <= degrade_budget   -> kDegraded  (admit with frame shedding)
//   otherwise                -> kRejected
//
// A tenant whose *total* demand exceeds the whole pool's degrade budget is
// rejected even on an empty pool, which makes the oversubscriber in the
// CI smoke test deterministic regardless of submission order.

#include <string>
#include <vector>

#include "compiler/loads.h"
#include "compiler/machine.h"
#include "compiler/multiplex.h"
#include "core/graph.h"

namespace bpp::service {

struct AdmissionPolicy {
  /// Pool-core load (in model-PE units) up to which a tenant is admitted
  /// outright. Mirrors MachineSpec::target_utilization.
  double core_budget = 0.9;
  /// Load up to which a tenant is admitted in degraded (frame-shedding)
  /// mode instead of being rejected.
  double degrade_budget = 1.25;
  /// Master switch (--no-admission): everything is admitted, placement
  /// still balances but nothing is rejected or degraded.
  bool enabled = true;
};

enum class Verdict { kAdmitted, kDegraded, kRejected };

[[nodiscard]] const char* verdict_name(Verdict v);

/// One admission decision: the verdict, the virtual-core -> pool-core
/// placement that produced it, and the loads that justify it.
struct Placement {
  Verdict verdict = Verdict::kRejected;
  /// pool core hosting each virtual core; empty when rejected.
  std::vector<int> pool_core_of_vcore;
  /// Highest pool-core load (PE units) after placing this tenant.
  double peak_load = 0.0;
  /// The tenant's total demand in PE units (sum of virtual-core loads).
  double demand = 0.0;
  std::string reason;  ///< human-readable justification
};

/// Per-virtual-core utilization of a compiled mapping: the compiler's
/// per_core_utilization (compiler/multiplex.h), sources excluded.
[[nodiscard]] inline std::vector<double> vcore_utilization(
    const Graph& g, const LoadMap& loads, const Mapping& mapping,
    const MachineSpec& m) {
  return per_core_utilization(g, loads, m, mapping);
}

/// The pool's capacity ledger. Not thread-safe; the daemon serializes
/// calls under its own lock.
class AdmissionController {
 public:
  AdmissionController(int pool_cores, AdmissionPolicy policy);

  /// Decide and (unless rejected) commit a tenant's demand onto the pool.
  [[nodiscard]] Placement admit(const std::vector<double>& vcore_util);

  /// Return a previously committed tenant's demand to the pool (tenant
  /// finished or was evicted).
  void release(const Placement& p, const std::vector<double>& vcore_util);

  [[nodiscard]] const AdmissionPolicy& policy() const { return policy_; }
  [[nodiscard]] int cores() const { return static_cast<int>(load_.size()); }
  /// Committed load of one pool core, in PE units.
  [[nodiscard]] double core_load(int core) const {
    return load_.at(static_cast<size_t>(core));
  }
  /// Total committed load across the pool, in PE units.
  [[nodiscard]] double total_load() const;
  /// Pool capacity in PE units at the admit budget.
  [[nodiscard]] double capacity() const {
    return static_cast<double>(load_.size()) * policy_.core_budget;
  }

 private:
  AdmissionPolicy policy_;
  std::vector<double> load_;  ///< committed PE-units per pool core
};

}  // namespace bpp::service
