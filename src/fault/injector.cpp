#include "fault/injector.h"

#include <chrono>

#include "core/graph.h"

namespace bpp::fault {

namespace {

/// splitmix64 finalizer: the standard 64-bit avalanche mix.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Index of the first rule in `rules` whose glob matches `name`, or -1.
template <class Rule>
[[nodiscard]] int first_match(const std::vector<Rule>& rules,
                              const std::string& name) {
  for (std::size_t i = 0; i < rules.size(); ++i)
    if (glob_match(rules[i].match, name)) return static_cast<int>(i);
  return -1;
}

}  // namespace

void Injector::bind(const Graph& graph, const std::vector<int>& core_of) {
  bindings_.assign(static_cast<std::size_t>(graph.kernel_count()), Binding{});
  for (int k = 0; k < graph.kernel_count(); ++k) {
    Binding& b = bindings_[static_cast<std::size_t>(k)];
    const Kernel& kn = graph.kernel(k);
    b.delivery_rule = first_match(plan_.delivery, kn.name());
    if (kn.is_source()) continue;
    b.kernel_rule = first_match(plan_.kernels, kn.name());
    if (k < static_cast<int>(core_of.size())) {
      const int core = core_of[static_cast<std::size_t>(k)];
      for (const CoreRule& rule : plan_.cores)
        if (rule.core == core) b.core_throttle = rule.throttle;
    }
  }
  bound_ = true;
}

double Injector::u01(int kernel_id, std::int64_t firing_index,
                     std::uint64_t salt) const {
  std::uint64_t h = seed_;
  h = mix64(h ^ (static_cast<std::uint64_t>(kernel_id) + 1));
  h = mix64(h ^ static_cast<std::uint64_t>(firing_index));
  h = mix64(h ^ salt);
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Perturbation Injector::perturb(int kernel_id,
                               std::int64_t firing_index) const {
  Perturbation p;
  if (!bound_ || kernel_id < 0 ||
      kernel_id >= static_cast<int>(bindings_.size()))
    return p;
  const Binding& b = bindings_[static_cast<std::size_t>(kernel_id)];
  p.time_scale = b.core_throttle;
  if (b.kernel_rule >= 0) {
    const KernelRule& rule =
        plan_.kernels[static_cast<std::size_t>(b.kernel_rule)];
    if (rule.jitter > 0.0)
      p.time_scale *=
          1.0 + rule.jitter * (2.0 * u01(kernel_id, firing_index, 1) - 1.0);
    if (rule.overrun_prob > 0.0 &&
        u01(kernel_id, firing_index, 2) < rule.overrun_prob)
      p.time_scale *= rule.overrun_factor;
    if (rule.stall_prob > 0.0 &&
        u01(kernel_id, firing_index, 3) < rule.stall_prob)
      p.stall_seconds = rule.stall_seconds;
    if (rule.throw_prob > 0.0 &&
        u01(kernel_id, firing_index, 5) < rule.throw_prob)
      p.throw_fault = true;
    if (rule.wedge_prob > 0.0 &&
        u01(kernel_id, firing_index, 6) < rule.wedge_prob)
      p.wedge = true;
  }
  if (b.delivery_rule >= 0) {
    const DeliveryRule& rule =
        plan_.delivery[static_cast<std::size_t>(b.delivery_rule)];
    if (rule.prob > 0.0 && u01(kernel_id, firing_index, 4) < rule.prob)
      p.delivery_delay_seconds = rule.delay_seconds;
  }
  return p;
}

void spin_for(double seconds) {
  if (seconds <= 0.0) return;
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < until) {
    // busy-wait: the point is to occupy the core like a real overrun
  }
}

}  // namespace bpp::fault
