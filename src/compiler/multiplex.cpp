#include "compiler/multiplex.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "kernels/buffer.h"

namespace bpp {

std::vector<std::vector<KernelId>> Mapping::groups() const {
  std::vector<std::vector<KernelId>> out(static_cast<size_t>(cores));
  for (KernelId k = 0; k < static_cast<int>(core_of.size()); ++k)
    if (core_of[static_cast<size_t>(k)] >= 0)
      out[static_cast<size_t>(core_of[static_cast<size_t>(k)])].push_back(k);
  return out;
}

Mapping map_one_to_one(const Graph& g) {
  Mapping m;
  m.core_of.resize(static_cast<size_t>(g.kernel_count()));
  std::iota(m.core_of.begin(), m.core_of.end(), 0);
  m.cores = g.kernel_count();
  return m;
}

std::set<KernelId> multiplex_pinned(const Graph& g) {
  std::set<KernelId> pinned;
  // Sources model the external stream.
  for (KernelId k : g.sources()) pinned.insert(k);
  // Initial input buffers: walk from each timed application input through
  // routing FSMs to the first buffers.
  std::vector<KernelId> frontier;
  for (KernelId k : g.sources()) {
    auto spec = g.kernel(k).source_spec(0);
    if (spec && spec->rate_hz > 0.0) frontier.push_back(k);
  }
  std::set<KernelId> visited;
  while (!frontier.empty()) {
    const KernelId k = frontier.back();
    frontier.pop_back();
    if (!visited.insert(k).second) continue;
    for (ChannelId c : g.out_channels(k)) {
      const KernelId d = g.channel(c).dst_kernel;
      const Kernel& dk = g.kernel(d);
      if (dynamic_cast<const BufferKernel*>(&dk)) {
        pinned.insert(d);  // first buffer on this path: pin, stop walking
      } else if (dk.dot_shape() == "diamond") {
        frontier.push_back(d);  // split/replicate FSM: look through it
      }
    }
  }
  return pinned;
}

namespace {

struct Group {
  double util = 0.0;
  long mem = 0;
  bool pinned = false;
};

int find_root(std::vector<int>& parent, int x) {
  while (parent[static_cast<size_t>(x)] != x) {
    parent[static_cast<size_t>(x)] = parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
    x = parent[static_cast<size_t>(x)];
  }
  return x;
}

}  // namespace

Mapping map_greedy(const Graph& g, const LoadMap& loads, const MachineSpec& m) {
  const int n = g.kernel_count();
  const std::set<KernelId> pinned = multiplex_pinned(g);

  std::vector<int> parent(static_cast<size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<Group> group(static_cast<size_t>(n));
  for (KernelId k = 0; k < n; ++k) {
    group[static_cast<size_t>(k)].util = loads.of(k).utilization(m);
    group[static_cast<size_t>(k)].mem = loads.of(k).memory_words;
    group[static_cast<size_t>(k)].pinned = pinned.count(k) > 0;
  }

  // Greedily merge the cheapest mergeable neighboring pair until none fits.
  while (true) {
    double best = std::numeric_limits<double>::infinity();
    int best_a = -1, best_b = -1;
    for (const Channel& ch : g.channels()) {
      if (!ch.alive) continue;
      const int a = find_root(parent, ch.src_kernel);
      const int b = find_root(parent, ch.dst_kernel);
      if (a == b) continue;
      const Group& ga = group[static_cast<size_t>(a)];
      const Group& gb = group[static_cast<size_t>(b)];
      if (ga.pinned || gb.pinned) continue;
      if (ga.util + gb.util > m.target_utilization) continue;
      if (ga.mem + gb.mem > m.mem_words) continue;
      if (ga.util + gb.util < best) {
        best = ga.util + gb.util;
        best_a = a;
        best_b = b;
      }
    }
    if (best_a < 0) break;
    parent[static_cast<size_t>(best_b)] = best_a;
    group[static_cast<size_t>(best_a)].util += group[static_cast<size_t>(best_b)].util;
    group[static_cast<size_t>(best_a)].mem += group[static_cast<size_t>(best_b)].mem;
  }

  Mapping out;
  out.core_of.assign(static_cast<size_t>(n), -1);
  std::vector<int> core_id(static_cast<size_t>(n), -1);
  int next = 0;
  for (KernelId k = 0; k < n; ++k) {
    const int r = find_root(parent, k);
    if (core_id[static_cast<size_t>(r)] < 0) core_id[static_cast<size_t>(r)] = next++;
    out.core_of[static_cast<size_t>(k)] = core_id[static_cast<size_t>(r)];
  }
  out.cores = next;
  return out;
}

std::vector<double> per_core_utilization(const Graph& g, const LoadMap& loads,
                                         const MachineSpec& m,
                                         const Mapping& map) {
  std::vector<double> util(static_cast<size_t>(map.cores), 0.0);
  for (KernelId k = 0; k < g.kernel_count(); ++k) {
    const int c = map.core_of[static_cast<size_t>(k)];
    if (c < 0 || g.kernel(k).is_source()) continue;
    util[static_cast<size_t>(c)] += loads.of(k).utilization(m);
  }
  return util;
}

double estimated_utilization(const Graph& g, const LoadMap& loads,
                             const MachineSpec& m, const Mapping& map) {
  const std::vector<double> util = per_core_utilization(g, loads, m, map);
  std::vector<bool> hosts(util.size(), false);
  for (KernelId k = 0; k < g.kernel_count(); ++k) {
    const int c = map.core_of[static_cast<size_t>(k)];
    if (c >= 0 && !g.kernel(k).is_source())
      hosts[static_cast<size_t>(c)] = true;
  }
  double sum = 0.0;
  int n = 0;
  for (size_t c = 0; c < util.size(); ++c) {
    if (!hosts[c]) continue;  // source-only cores model the sensor
    sum += util[c];
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

}  // namespace bpp
