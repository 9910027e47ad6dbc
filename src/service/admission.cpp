#include "service/admission.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace bpp::service {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kAdmitted: return "admitted";
    case Verdict::kDegraded: return "degraded";
    case Verdict::kRejected: return "rejected";
  }
  return "?";
}

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace

AdmissionController::AdmissionController(int pool_cores, AdmissionPolicy policy)
    : policy_(policy) {
  load_.assign(static_cast<size_t>(std::max(pool_cores, 1)), 0.0);
}

double AdmissionController::total_load() const {
  return std::accumulate(load_.begin(), load_.end(), 0.0);
}

Placement AdmissionController::admit(const std::vector<double>& vcore_util) {
  Placement p;
  p.demand = std::accumulate(vcore_util.begin(), vcore_util.end(), 0.0);

  // Fast rejection that does not depend on current occupancy: demand no
  // pool state could satisfy. Keeps the CI oversubscriber deterministic.
  if (policy_.enabled) {
    const double pool_degrade =
        static_cast<double>(load_.size()) * policy_.degrade_budget;
    if (p.demand > pool_degrade) {
      p.verdict = Verdict::kRejected;
      p.reason = "demand " + fmt(p.demand) + " PE exceeds pool limit " +
                 fmt(pool_degrade) + " PE (" + std::to_string(load_.size()) +
                 " cores x " + fmt(policy_.degrade_budget) + " degrade budget)";
      return p;
    }
    const double widest =
        vcore_util.empty()
            ? 0.0
            : *std::max_element(vcore_util.begin(), vcore_util.end());
    if (widest > policy_.degrade_budget) {
      p.verdict = Verdict::kRejected;
      p.reason = "virtual core demands " + fmt(widest) +
                 " PE, more than one pool core's degrade budget " +
                 fmt(policy_.degrade_budget);
      return p;
    }
  }

  // Greedy worst-fit: heaviest virtual cores first, each onto the
  // least-loaded pool core. Deterministic: ties broken by index.
  std::vector<size_t> order(vcore_util.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return vcore_util[a] > vcore_util[b];
  });
  std::vector<double> trial = load_;
  p.pool_core_of_vcore.assign(vcore_util.size(), 0);
  for (size_t v : order) {
    size_t best = 0;
    for (size_t c = 1; c < trial.size(); ++c)
      if (trial[c] < trial[best]) best = c;
    trial[best] += vcore_util[v];
    p.pool_core_of_vcore[v] = static_cast<int>(best);
  }
  p.peak_load = trial.empty()
                    ? 0.0
                    : *std::max_element(trial.begin(), trial.end());

  if (!policy_.enabled || p.peak_load <= policy_.core_budget) {
    p.verdict = Verdict::kAdmitted;
    p.reason = policy_.enabled
                   ? "peak core load " + fmt(p.peak_load) + " within budget " +
                         fmt(policy_.core_budget)
                   : "admission disabled";
  } else if (p.peak_load <= policy_.degrade_budget) {
    p.verdict = Verdict::kDegraded;
    p.reason = "peak core load " + fmt(p.peak_load) + " over budget " +
               fmt(policy_.core_budget) + ", within degrade budget " +
               fmt(policy_.degrade_budget) + " -> frame shedding";
  } else {
    p.verdict = Verdict::kRejected;
    p.reason = "peak core load " + fmt(p.peak_load) +
               " would exceed degrade budget " + fmt(policy_.degrade_budget);
    p.pool_core_of_vcore.clear();
    return p;
  }
  load_ = trial;  // commit
  return p;
}

void AdmissionController::release(const Placement& p,
                                  const std::vector<double>& vcore_util) {
  if (p.pool_core_of_vcore.size() != vcore_util.size()) return;  // rejected
  for (size_t v = 0; v < vcore_util.size(); ++v) {
    double& l = load_[static_cast<size_t>(p.pool_core_of_vcore[v])];
    l -= vcore_util[v];
    if (l < 0.0) l = 0.0;  // guard accumulated rounding
  }
}

}  // namespace bpp::service
