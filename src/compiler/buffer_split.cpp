#include "compiler/buffer_split.h"

#include "kernels/buffer.h"
#include "kernels/split_join.h"

namespace bpp {

std::vector<int> slice_boundaries(int it_w, int slices) {
  std::vector<int> w(static_cast<size_t>(slices) + 1, 0);
  for (int i = 0; i <= slices; ++i)
    w[static_cast<size_t>(i)] =
        static_cast<int>(static_cast<long>(it_w) * i / slices);
  return w;
}

ColumnSlices plan_column_slices(const Graph& g, KernelId k, int slices) {
  const auto* buf = dynamic_cast<const BufferKernel*>(&g.kernel(k));
  if (!buf) throw AnalysisError(g.kernel(k).name() + ": not a buffer kernel");
  if (buf->in_granularity() != Size2{1, 1})
    throw AnalysisError(buf->name() +
                        ": column splitting requires pixel-granularity input");

  ColumnSlices cs;
  cs.frame = buf->frame();
  cs.win = buf->out_window();
  cs.step = buf->out_step();
  cs.iters = iteration_count(cs.frame, cs.win, cs.step);
  slices = std::min(slices, cs.iters.w);
  if (slices < 1) return cs;
  const std::vector<int> w = slice_boundaries(cs.iters.w, slices);
  for (size_t i = 0; i < static_cast<size_t>(slices); ++i) {
    cs.ranges.emplace_back(w[i] * cs.step.x,
                           (w[i + 1] - 1) * cs.step.x + cs.win.w);
    cs.runs.push_back(w[i + 1] - w[i]);
  }
  return cs;
}

void slice_buffer(Graph& g, LoadMap& loads, KernelId k, double rate,
                  ColumnSlices& cs, bool reuse_link) {
  const auto n = static_cast<size_t>(cs.count());
  const ChannelId in_c = *g.in_channel(k, 0);
  const Channel in_ch = g.channel(in_c);

  // Slice kernels: reuse the original as slice 0, construct the rest.
  auto& buf = static_cast<BufferKernel&>(g.kernel(k));
  const std::string base = buf.name();
  buf.set_name(base + "_0");
  buf.reshape({cs.ranges[0].second - cs.ranges[0].first, cs.frame.h});
  buf.set_reuse_link(reuse_link);
  cs.slices.push_back(k);
  for (size_t i = 1; i < n; ++i) {
    auto s = std::make_unique<BufferKernel>(
        base + "_" + std::to_string(i), Size2{1, 1}, cs.win, cs.step,
        Size2{cs.ranges[i].second - cs.ranges[i].first, cs.frame.h});
    s->set_reuse_link(reuse_link);
    cs.slices.push_back(g.id_of(g.add_kernel(std::move(s))));
  }

  // Split FSM in front (Fig. 10): overlapping column ranges, 1x1 items.
  auto split = std::make_unique<SplitKernel>(g.unique_name(base + "_split"),
                                             cs.ranges, cs.frame.w,
                                             Size2{1, 1}, Step2{1, 1});
  cs.split = g.id_of(g.add_kernel(std::move(split)));
  g.disconnect(in_c);
  g.connect(in_ch.src_kernel, in_ch.src_port, cs.split, 0);

  // Slice loads: a reuse link transfers fresh columns only. The split
  // reads every pixel once and writes overlap columns twice.
  double total_in = 0.0;
  for (const auto& [a, b] : cs.ranges) total_in += b - a;
  for (size_t i = 0; i < n; ++i) {
    const auto& [a, b] = cs.ranges[i];
    LoadModel l;
    const double in_items = static_cast<double>(b - a) * cs.frame.h * rate;
    const double out_items =
        static_cast<double>(cs.runs[i]) * cs.iters.h * rate;
    l.firings_per_second = in_items;
    l.cycles_per_second = in_items * 6.0;
    l.read_words_per_second = in_items;
    l.write_words_per_second =
        reuse_link ? out_items * cs.win.h * cs.step.x +
                         cs.iters.h * rate * cs.win.area()
                   : out_items * cs.win.area() + cs.iters.h * rate;
    l.memory_words =
        static_cast<BufferKernel&>(g.kernel(cs.slices[i])).storage_words() + 16;
    loads.set(cs.slices[i], l);
  }
  const double pixel_ps = static_cast<double>(cs.frame.area()) * rate;
  loads.set(cs.split, forwarding_load(pixel_ps, 1, total_in / cs.frame.w));
}

BufferSplitResult split_buffer(Graph& g, DataflowResult& df, LoadMap& loads,
                               KernelId k, int slices) {
  ColumnSlices cs = plan_column_slices(g, k, slices);
  const std::string base = g.kernel(k).name();
  if (cs.count() < 2)
    throw AnalysisError(base + ": nothing to split (slices <= 1)");

  BufferSplitResult res;
  res.original = base;
  res.slices = cs.count();
  res.overlap_columns = cs.win.w - cs.step.x;
  res.input_ranges = cs.ranges;

  // Remember the original wiring.
  const ChannelId first_new_channel = g.channel_count();
  const ChannelId in_c = *g.in_channel(k, 0);
  const std::vector<ChannelId> out_cs = g.out_channels(k, 0);
  const double rate = df.channel[static_cast<size_t>(in_c)].rate_hz;

  slice_buffer(g, loads, k, rate, cs, false);
  for (int i = 0; i < cs.count(); ++i)
    g.connect(cs.split, i, cs.slices[static_cast<size_t>(i)], 0);
  for (KernelId sid : cs.slices)
    res.slice_annotations.push_back(
        static_cast<BufferKernel&>(g.kernel(sid)).size_annotation());

  // Run-length join behind, restoring scan order window-by-window.
  auto join = std::make_unique<JoinKernel>(g.unique_name(base + "_join"),
                                           cs.runs, cs.win, cs.step);
  const KernelId join_id = g.id_of(g.add_kernel(std::move(join)));
  for (int i = 0; i < cs.count(); ++i)
    g.connect(cs.slices[static_cast<size_t>(i)], 0, join_id, i);
  for (ChannelId c : out_cs) {
    const Channel ch = g.channel(c);
    g.disconnect(c);
    g.connect(join_id, 0, ch.dst_kernel, ch.dst_port);
  }
  loads.set(join_id,
            forwarding_load(static_cast<double>(cs.iters.area()) * rate,
                            cs.win.area()));

  // Stream info for the new channels: conservative copies so later passes
  // can still look up item shapes.
  df.channel.resize(static_cast<size_t>(g.channel_count()));
  for (ChannelId c = first_new_channel; c < g.channel_count(); ++c) {
    const Channel& ch = g.channel(c);
    if (!ch.alive) continue;
    StreamInfo s;
    const Kernel& src = g.kernel(ch.src_kernel);
    const PortSpec& op = src.output(ch.src_port).spec;
    s.item = op.window;
    s.item_step = op.step;
    s.rate_hz = rate;
    s.frame = cs.frame;
    s.items_per_frame = 0;  // routed subsets: not a whole-frame stream
    if (ch.src_kernel == join_id) {
      // The join restores the original buffered stream.
      s = df.channel[static_cast<size_t>(out_cs.front())];
    }
    df.channel[static_cast<size_t>(c)] = s;
  }

  return res;
}

}  // namespace bpp
