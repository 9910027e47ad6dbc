#include "compiler/parallelize.h"

#include <algorithm>
#include <cmath>

#include "compiler/buffer_split.h"
#include "kernels/buffer.h"
#include "kernels/split_join.h"

namespace bpp {

int required_parallelism(const LoadModel& load, const MachineSpec& m) {
  const double u = load.utilization(m);
  if (u <= 0.0) return 1;
  return std::max(1, static_cast<int>(std::ceil(u / m.target_utilization)));
}

namespace {

struct ReplicaSet {
  std::vector<KernelId> reps;
  int factor = 1;
  /// Lazily created round-robin join per original output port.
  std::map<int, KernelId> joins;
  /// Non-empty when reuse-striped (Fig. 9): output items per replica per
  /// line; joins become run-length collectors fed by the per-replica FIFOs.
  std::vector<int> stripe_runs;
  std::vector<KernelId> stripe_fifos;
};

class Parallelizer {
 public:
  Parallelizer(Graph& g, DataflowResult& df, LoadMap& loads,
               const ParallelizeOptions& opt)
      : g_(g), df_(df), loads_(loads), m_(opt.machine), opt_(opt) {}

  ParallelizationResult run() {
    decide_factors();
    const std::vector<KernelId> order = g_.topo_order();
    for (KernelId k : order) {
      if (g_.kernel(k).is_source()) continue;
      const int p = factor_[static_cast<size_t>(k)];
      if (p > 1 && g_.kernel(k).parallel_kind() == ParKind::Custom) {
        // The buffer's producer may itself have been replicated: route
        // through its join before splitting the buffer's input stream.
        fix_inputs(k);
        res_.buffer_splits.push_back(split_buffer(g_, df_, loads_, k, p));
        res_.factors[res_.buffer_splits.back().original] = p;
      } else if (p > 1) {
        replicate(k, p);
        // factors recorded under the original (pre-rename) name.
      } else {
        fix_inputs(k);
      }
    }
    return std::move(res_);
  }

 private:
  // ---- Phase 1: replication factors ----

  void decide_factors() {
    const int n = g_.kernel_count();
    factor_.assign(static_cast<size_t>(n), 1);
    for (KernelId k = 0; k < n; ++k) {
      const Kernel& kn = g_.kernel(k);
      if (kn.is_source()) continue;
      if (kn.parallel_kind() == ParKind::Serial) {
        // A serial kernel that alone exceeds one PE makes the real-time
        // rate unattainable — surface it rather than discover a stall in
        // simulation.
        const double u = loads_.of(k).utilization(m_);
        if (u > 1.0)
          res_.warnings.push_back(
              kn.name() + ": serial kernel needs " +
              std::to_string(u) +
              "x one PE; the input rate is infeasible on this machine");
        continue;
      }
      int p = required_parallelism(loads_.of(k), m_);
      if (kn.parallel_kind() == ParKind::Custom) {
        // Buffers: storage pressure also forces splitting (§IV-C).
        const long words = loads_.of(k).memory_words;
        const int by_mem =
            static_cast<int>((words + m_.mem_words - 1) / m_.mem_words);
        p = std::max(p, by_mem);
      }
      factor_[static_cast<size_t>(k)] = p;
    }
    // Data-dependency edges cap the sink at the source (§IV-B). Iterate to
    // a fixpoint so dependency chains (pipelines) propagate.
    const std::vector<int> demand = factor_;
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < n + 2) {
      changed = false;
      for (const DepEdge& e : g_.dependencies()) {
        const int cap = factor_[static_cast<size_t>(e.src)];
        if (factor_[static_cast<size_t>(e.dst)] > cap) {
          factor_[static_cast<size_t>(e.dst)] = cap;
          changed = true;
        }
      }
    }
    for (KernelId k = 0; k < n; ++k)
      if (factor_[static_cast<size_t>(k)] < demand[static_cast<size_t>(k)])
        res_.warnings.push_back(
            g_.kernel(k).name() + ": dependency edge caps parallelism at " +
            std::to_string(factor_[static_cast<size_t>(k)]) + " but " +
            std::to_string(demand[static_cast<size_t>(k)]) +
            " instances are needed; the rate may be infeasible");
  }

  [[nodiscard]] bool has_dep_edge(KernelId src, KernelId dst) const {
    for (const DepEdge& e : g_.dependencies())
      if (e.src == src && e.dst == dst) return true;
    return false;
  }

  // ---- Phase 2 helpers ----

  void copy_stream(ChannelId from, ChannelId to) {
    df_.channel.resize(static_cast<size_t>(g_.channel_count()));
    df_.channel[static_cast<size_t>(to)] = df_.channel[static_cast<size_t>(from)];
  }

  /// Single-stream producer endpoint for an original channel: the producer
  /// itself, or the lazy join over its replicas.
  [[nodiscard]] std::pair<KernelId, int> producer_proxy(ChannelId c) {
    const Channel ch = g_.channel(c);  // a copy: connect() below reallocates
    auto it = sets_.find(ch.src_kernel);
    if (it == sets_.end()) return {ch.src_kernel, ch.src_port};
    ReplicaSet& rs = it->second;
    auto jit = rs.joins.find(ch.src_port);
    if (jit == rs.joins.end()) {
      const StreamInfo& s = df_.channel[static_cast<size_t>(c)];
      std::unique_ptr<JoinKernel> join;
      if (!rs.stripe_runs.empty()) {
        // Fig. 9 striping: collect each replica's column run per line.
        join = std::make_unique<JoinKernel>(
            g_.unique_name(base_name(ch.src_kernel) + "_join"), rs.stripe_runs,
            s.item, s.item_step);
      } else {
        join = std::make_unique<JoinKernel>(
            g_.unique_name(base_name(ch.src_kernel) + "_join"), rs.factor,
            s.item, s.item_step);
      }
      const KernelId jid = g_.id_of(g_.add_kernel(std::move(join)));
      for (int j = 0; j < rs.factor; ++j) {
        const KernelId feed = rs.stripe_fifos.empty()
                                  ? rs.reps[static_cast<size_t>(j)]
                                  : rs.stripe_fifos[static_cast<size_t>(j)];
        const int feed_port = rs.stripe_fifos.empty() ? ch.src_port : 0;
        copy_stream(c, g_.connect(feed, feed_port, jid, j));
      }
      loads_.set(jid, forwarding_load(items_ps(c), item_words(c)));
      ++res_.joins_inserted;
      rs.joins[ch.src_port] = jid;
      jit = rs.joins.find(ch.src_port);
    }
    return {jit->second, 0};
  }

  [[nodiscard]] std::string base_name(KernelId k) const {
    std::string n = g_.kernel(k).name();
    const size_t us = n.rfind("_0");
    if (us != std::string::npos && us == n.size() - 2) n = n.substr(0, us);
    return n;
  }

  [[nodiscard]] double items_ps(ChannelId c) const {
    const StreamInfo& s = df_.channel[static_cast<size_t>(c)];
    return static_cast<double>(s.items_per_frame) * s.rate_hz;
  }
  [[nodiscard]] long item_words(ChannelId c) const {
    return df_.channel[static_cast<size_t>(c)].item.area();
  }

  /// Rewire input `port` of a non-replicated kernel whose producer may
  /// have been replicated.
  void fix_inputs(KernelId k) {
    Kernel& kn = g_.kernel(k);
    for (size_t i = 0; i < kn.inputs().size(); ++i) {
      auto c = g_.in_channel(k, static_cast<int>(i));
      if (!c) continue;
      const Channel ch = g_.channel(*c);
      auto it = sets_.find(ch.src_kernel);
      if (it == sets_.end()) continue;
      auto [src, sport] = producer_proxy(*c);
      g_.disconnect(*c);
      copy_stream(*c, g_.connect(src, sport, k, static_cast<int>(i)));
      kn.on_upstream_parallelized(static_cast<int>(i), it->second.factor);
    }
  }

  /// Buffer feeding input `i` of `k` that qualifies for Fig. 9 striping,
  /// or -1: single data input, 1x1-granularity buffer with k as its only
  /// consumer, and a single 1x1 output on k.
  [[nodiscard]] KernelId stripe_buffer_of(KernelId k) const {
    if (!opt_.reuse_opt) return -1;
    const Kernel& kn = g_.kernel(k);
    if (kn.outputs().size() != 1 ||
        kn.output(0).spec.window != Size2{1, 1})
      return -1;
    int data_input = -1;
    for (size_t i = 0; i < kn.inputs().size(); ++i) {
      if (kn.input(static_cast<int>(i)).spec.replicated) continue;
      if (data_input >= 0) return -1;  // more than one data input
      data_input = static_cast<int>(i);
    }
    if (data_input < 0) return -1;
    auto c = g_.in_channel(k, data_input);
    if (!c) return -1;
    const Channel& ch = g_.channel(*c);
    if (sets_.count(ch.src_kernel)) return -1;  // producer already replicated
    const auto* buf = dynamic_cast<const BufferKernel*>(&g_.kernel(ch.src_kernel));
    if (!buf || buf->in_granularity() != Size2{1, 1}) return -1;
    if (g_.out_channels(ch.src_kernel).size() != 1) return -1;
    return ch.src_kernel;
  }

  /// The replica set of `k`: the original, renamed `<name>_0`, and p-1
  /// clones, each carrying 1/p of the original's load.
  ReplicaSet make_replicas(KernelId k, int p) {
    Kernel& orig = g_.kernel(k);
    const std::string base = orig.name();
    res_.factors[base] = p;
    ReplicaSet rs;
    rs.factor = p;
    orig.set_name(base + "_0");
    rs.reps.push_back(k);
    const LoadModel per_rep = loads_.of(k).divided(p);
    loads_.of(k) = per_rep;
    for (int j = 1; j < p; ++j) {
      auto clone = orig.clone();
      clone->set_name(base + "_" + std::to_string(j));
      clone->init();
      const KernelId id = g_.id_of(g_.add_kernel(std::move(clone)));
      rs.reps.push_back(id);
      loads_.set(id, per_rep);
    }
    return rs;
  }

  /// Feed input `i` of every replica in `rs` (of the kernel once named
  /// `base`) from one distributor behind channel `c`'s producer (its join
  /// if replicated): a replicate kernel copying every item to all
  /// replicas for a parameter input, else a round-robin split.
  void distribute(ChannelId c, int i, const std::string& base,
                  const ReplicaSet& rs) {
    const int p = rs.factor;
    const PortSpec ispec = g_.kernel(rs.reps.front()).input(i).spec;
    const StreamInfo s = df_.channel[static_cast<size_t>(c)];
    auto [src, sport] = producer_proxy(c);
    g_.disconnect(c);
    const std::string name = base + "_" + ispec.name;
    KernelId dist;
    if (ispec.replicated) {
      dist = g_.id_of(g_.add_kernel(std::make_unique<ReplicateKernel>(
          g_.unique_name(name + "_rep"), p, s.item, s.item_step)));
      loads_.set(dist, forwarding_load(items_ps(c), item_words(c), p));
      ++res_.replicates_inserted;
    } else {
      dist = g_.id_of(g_.add_kernel(std::make_unique<SplitKernel>(
          g_.unique_name(name + "_split"), p, s.item, s.item_step)));
      loads_.set(dist, forwarding_load(items_ps(c), item_words(c)));
      ++res_.splits_inserted;
    }
    copy_stream(c, g_.connect(src, sport, dist, 0));
    for (int j = 0; j < p; ++j)
      copy_stream(c, g_.connect(dist, j, rs.reps[static_cast<size_t>(j)], i));
  }

  /// Fig. 9(c): split the feeding buffer into reuse-linked column-stripe
  /// slices, one per replica, with decoupling output FIFOs before the
  /// run-length join.
  void stripe(KernelId k, int p, KernelId buf_id) {
    const std::string base = g_.kernel(k).name();
    ColumnSlices cs = plan_column_slices(g_, buf_id, p);
    ReplicaSet rs = make_replicas(k, cs.count());
    ++res_.reuse_striped;
    rs.stripe_runs = cs.runs;

    const ChannelId buf_in = *g_.in_channel(buf_id, 0);
    const ChannelId buf_out = g_.out_channels(buf_id).front();
    const int data_in = g_.channel(buf_out).dst_port;
    const double rate = df_.channel[static_cast<size_t>(buf_in)].rate_hz;
    g_.disconnect(buf_out);
    slice_buffer(g_, loads_, buf_id, rate, cs, true);
    for (int i = 0; i < cs.count(); ++i) {
      const auto j = static_cast<size_t>(i);
      g_.connect(cs.split, i, cs.slices[j], 0);
      copy_stream(buf_out, g_.connect(cs.slices[j], 0, rs.reps[j], data_in));
      // Decoupling output FIFO (Fig. 9(c): "sufficient output buffering").
      const Size2 run{cs.runs[j], cs.iters.h};
      const KernelId fid = g_.id_of(g_.add_kernel(std::make_unique<BufferKernel>(
          g_.unique_name(base + "_obuf_" + std::to_string(i)), Size2{1, 1},
          Size2{1, 1}, Step2{1, 1}, run)));
      rs.stripe_fifos.push_back(fid);
      const ChannelId oc = g_.connect(rs.reps[j], 0, fid, 0);
      df_.channel.resize(static_cast<size_t>(g_.channel_count()));
      StreamInfo os;
      os.item = {1, 1};
      os.frame = run;
      os.items_per_frame = static_cast<long>(run.w) * run.h;
      os.rate_hz = rate;
      df_.channel[static_cast<size_t>(oc)] = os;
      loads_.set(fid, forwarding_load(
                          static_cast<double>(run.w) * run.h * rate, 1));
    }
    copy_stream(buf_in, *g_.in_channel(cs.split, 0));
    for (ChannelId c : g_.out_channels(cs.split)) copy_stream(buf_in, c);
    ++res_.splits_inserted;

    // Remaining (replicated parameter) inputs of k: standard replication.
    for (int i = 0; i < static_cast<int>(g_.kernel(k).inputs().size()); ++i) {
      if (i == data_in) continue;
      if (auto c = g_.in_channel(k, i)) distribute(*c, i, base, rs);
    }

    sets_.emplace(k, std::move(rs));
  }

  void replicate(KernelId k, int p) {
    const KernelId stripe_buf = stripe_buffer_of(k);
    if (stripe_buf >= 0) {
      stripe(k, p, stripe_buf);
      return;
    }

    const std::string base = g_.kernel(k).name();
    ReplicaSet rs = make_replicas(k, p);

    // Inputs: lane-connect dependency-edged equal-parallelism producers;
    // replicate parameter inputs; round-robin split everything else.
    for (int i = 0; i < static_cast<int>(g_.kernel(k).inputs().size()); ++i) {
      const ChannelId c = *g_.in_channel(k, i);
      const Channel ch = g_.channel(c);
      auto pit = sets_.find(ch.src_kernel);
      const bool lane = !g_.kernel(k).input(i).spec.replicated &&
                        pit != sets_.end() && pit->second.factor == p &&
                        has_dep_edge(ch.src_kernel, k);
      if (!lane) {
        distribute(c, i, base, rs);
        continue;
      }
      g_.disconnect(c);
      for (int j = 0; j < p; ++j)
        copy_stream(c, g_.connect(pit->second.reps[static_cast<size_t>(j)],
                                  ch.src_port, rs.reps[static_cast<size_t>(j)],
                                  i));
      ++res_.lane_connections;
    }

    sets_.emplace(k, std::move(rs));
  }

  Graph& g_;
  DataflowResult& df_;
  LoadMap& loads_;
  MachineSpec m_;
  ParallelizeOptions opt_;
  std::vector<int> factor_;
  std::map<KernelId, ReplicaSet> sets_;
  ParallelizationResult res_;
};

}  // namespace

ParallelizationResult parallelize(Graph& g, DataflowResult& df, LoadMap& loads,
                                  const MachineSpec& m) {
  return parallelize(g, df, loads, ParallelizeOptions{m, false});
}

ParallelizationResult parallelize(Graph& g, DataflowResult& df, LoadMap& loads,
                                  const ParallelizeOptions& options) {
  return Parallelizer(g, df, loads, options).run();
}

}  // namespace bpp
