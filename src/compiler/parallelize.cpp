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

  /// Fig. 9(c): split the feeding buffer into reuse-linked column-stripe
  /// slices, one per replica, with decoupling output FIFOs before the
  /// run-length join.
  void stripe(KernelId k, int p, KernelId buf_id) {
    Kernel& orig = g_.kernel(k);
    const std::string base = orig.name();
    auto& buf = static_cast<BufferKernel&>(g_.kernel(buf_id));
    const Size2 frame = buf.frame();
    const Size2 win = buf.out_window();
    const Step2 step = buf.out_step();
    const Size2 iters = iteration_count(frame, win, step);
    p = std::min(p, iters.w);
    res_.factors[base] = p;
    ++res_.reuse_striped;

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

    // Stripe geometry (same arithmetic as §IV-C buffer splitting).
    const std::vector<int> w = slice_boundaries(iters.w, p);
    std::vector<std::pair<int, int>> ranges;
    for (int i = 0; i < p; ++i) {
      rs.stripe_runs.push_back(w[static_cast<size_t>(i) + 1] -
                               w[static_cast<size_t>(i)]);
      ranges.emplace_back(w[static_cast<size_t>(i)] * step.x,
                          (w[static_cast<size_t>(i) + 1] - 1) * step.x + win.w);
    }

    // Buffer slices, the original as slice 0, each a reuse link.
    const ChannelId buf_in = *g_.in_channel(buf_id, 0);
    const Channel buf_in_ch = g_.channel(buf_in);
    const ChannelId buf_out = g_.out_channels(buf_id).front();
    const double rate = df_.channel[static_cast<size_t>(buf_in)].rate_hz;
    const std::string buf_base = buf.name();
    std::vector<KernelId> slices;
    buf.set_name(buf_base + "_0");
    buf.reshape({ranges[0].second - ranges[0].first, frame.h});
    buf.set_reuse_link(true);
    slices.push_back(buf_id);
    for (int i = 1; i < p; ++i) {
      auto s = std::make_unique<BufferKernel>(
          buf_base + "_" + std::to_string(i), Size2{1, 1}, win, step,
          Size2{ranges[static_cast<size_t>(i)].second -
                    ranges[static_cast<size_t>(i)].first,
                frame.h});
      s->set_reuse_link(true);
      slices.push_back(g_.id_of(g_.add_kernel(std::move(s))));
    }

    // Column-range split in front (overlap columns replicated, Fig. 10).
    auto split = std::make_unique<SplitKernel>(
        g_.unique_name(buf_base + "_split"), ranges, frame.w, Size2{1, 1},
        Step2{1, 1});
    const KernelId split_id = g_.id_of(g_.add_kernel(std::move(split)));
    g_.disconnect(buf_in);
    g_.disconnect(buf_out);
    copy_stream(buf_in, g_.connect(buf_in_ch.src_kernel, buf_in_ch.src_port,
                                   split_id, 0));
    ++res_.splits_inserted;

    const int data_in = [&] {
      for (size_t i = 0; i < orig.inputs().size(); ++i)
        if (!orig.input(static_cast<int>(i)).spec.replicated)
          return static_cast<int>(i);
      return 0;
    }();

    double total_cols = 0;
    for (const auto& [a, b] : ranges) total_cols += b - a;
    const double pixel_ps = static_cast<double>(frame.area()) * rate;
    loads_.set(split_id, forwarding_load(pixel_ps, 1, total_cols / frame.w));

    for (int i = 0; i < p; ++i) {
      copy_stream(buf_in, g_.connect(split_id, i, slices[static_cast<size_t>(i)],
                                     0));
      copy_stream(buf_out,
                  g_.connect(slices[static_cast<size_t>(i)], 0,
                             rs.reps[static_cast<size_t>(i)], data_in));
      // Decoupling output FIFO (Fig. 9(c): "sufficient output buffering").
      auto fifo = std::make_unique<BufferKernel>(
          g_.unique_name(base + "_obuf_" + std::to_string(i)), Size2{1, 1},
          Size2{1, 1}, Step2{1, 1},
          Size2{rs.stripe_runs[static_cast<size_t>(i)], iters.h});
      const KernelId fid = g_.id_of(g_.add_kernel(std::move(fifo)));
      rs.stripe_fifos.push_back(fid);
      const ChannelId oc =
          g_.connect(rs.reps[static_cast<size_t>(i)], 0, fid, 0);
      df_.channel.resize(static_cast<size_t>(g_.channel_count()));
      StreamInfo os;
      os.item = {1, 1};
      os.frame = {rs.stripe_runs[static_cast<size_t>(i)], iters.h};
      os.items_per_frame =
          static_cast<long>(rs.stripe_runs[static_cast<size_t>(i)]) * iters.h;
      os.rate_hz = rate;
      df_.channel[static_cast<size_t>(oc)] = os;

      // Slice loads: reuse links transfer fresh columns only.
      auto& sb = static_cast<BufferKernel&>(g_.kernel(slices[static_cast<size_t>(i)]));
      const auto& [a, b] = ranges[static_cast<size_t>(i)];
      LoadModel l;
      const double in_items = static_cast<double>(b - a) * frame.h * rate;
      const double out_items =
          static_cast<double>(rs.stripe_runs[static_cast<size_t>(i)]) * iters.h *
          rate;
      l.firings_per_second = in_items;
      l.cycles_per_second = in_items * 6.0;
      l.read_words_per_second = in_items;
      l.write_words_per_second =
          out_items * win.h * step.x + iters.h * rate * win.area();
      l.memory_words = sb.storage_words() + 16;
      loads_.set(slices[static_cast<size_t>(i)], l);
      loads_.set(fid, forwarding_load(out_items, 1));
    }

    // Remaining (replicated parameter) inputs of k: standard replication.
    for (size_t i = 0; i < orig.inputs().size(); ++i) {
      if (static_cast<int>(i) == data_in) continue;
      auto c = g_.in_channel(k, static_cast<int>(i));
      if (!c) continue;
      const Channel ch = g_.channel(*c);
      const StreamInfo s = df_.channel[static_cast<size_t>(*c)];
      auto [src, sport] = producer_proxy(*c);
      g_.disconnect(*c);
      auto rep = std::make_unique<ReplicateKernel>(
          g_.unique_name(base + "_" + orig.input(static_cast<int>(i)).spec.name +
                         "_rep"),
          p, s.item, s.item_step);
      const KernelId rid = g_.id_of(g_.add_kernel(std::move(rep)));
      loads_.set(rid, forwarding_load(items_ps(*c), item_words(*c),
                                      static_cast<double>(p)));
      ++res_.replicates_inserted;
      copy_stream(*c, g_.connect(src, sport, rid, 0));
      for (int j = 0; j < p; ++j)
        copy_stream(*c, g_.connect(rid, j, rs.reps[static_cast<size_t>(j)],
                                   static_cast<int>(i)));
      (void)ch;
    }

    sets_.emplace(k, std::move(rs));
  }

  void replicate(KernelId k, int p) {
    const KernelId stripe_buf = stripe_buffer_of(k);
    if (stripe_buf >= 0) {
      stripe(k, p, stripe_buf);
      return;
    }

    Kernel& orig = g_.kernel(k);
    const std::string base = orig.name();
    res_.factors[base] = p;

    // Build the replica set: the original becomes instance 0.
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

    // Inputs: lane-connect dependency-edged equal-parallelism producers;
    // replicate parameter inputs; round-robin split everything else.
    for (size_t i = 0; i < orig.inputs().size(); ++i) {
      const ChannelId c = *g_.in_channel(k, static_cast<int>(i));
      const Channel ch = g_.channel(c);
      const PortSpec ispec = orig.input(static_cast<int>(i)).spec;
      const StreamInfo s = df_.channel[static_cast<size_t>(c)];

      auto pit = sets_.find(ch.src_kernel);
      const bool lane = !ispec.replicated && pit != sets_.end() &&
                        pit->second.factor == p &&
                        has_dep_edge(ch.src_kernel, k);
      g_.disconnect(c);
      if (lane) {
        for (int j = 0; j < p; ++j)
          copy_stream(c, g_.connect(pit->second.reps[static_cast<size_t>(j)],
                                    ch.src_port, rs.reps[static_cast<size_t>(j)],
                                    static_cast<int>(i)));
        ++res_.lane_connections;
        continue;
      }

      auto [src, sport] = producer_proxy(c);
      KernelId dist;
      if (ispec.replicated) {
        auto rep = std::make_unique<ReplicateKernel>(
            g_.unique_name(base + "_" + ispec.name + "_rep"), p, s.item,
            s.item_step);
        dist = g_.id_of(g_.add_kernel(std::move(rep)));
        loads_.set(dist, forwarding_load(items_ps(c), item_words(c), p));
        ++res_.replicates_inserted;
      } else {
        auto split = std::make_unique<SplitKernel>(
            g_.unique_name(base + "_" + ispec.name + "_split"), p, s.item,
            s.item_step);
        dist = g_.id_of(g_.add_kernel(std::move(split)));
        loads_.set(dist, forwarding_load(items_ps(c), item_words(c)));
        ++res_.splits_inserted;
      }
      copy_stream(c, g_.connect(src, sport, dist, 0));
      for (int j = 0; j < p; ++j)
        copy_stream(c, g_.connect(dist, j, rs.reps[static_cast<size_t>(j)],
                                  static_cast<int>(i)));
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
