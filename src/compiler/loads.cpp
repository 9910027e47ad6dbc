#include "compiler/loads.h"

#include "core/token.h"

namespace bpp {

namespace {

/// Control-token traffic of one framed stream, per frame: end-of-line
/// tokens (one per grid row) plus one end-of-frame. End-of-stream happens
/// once per run, not per frame, so it is not part of steady state.
double tokens_per_frame(const StreamInfo& si) {
  if (si.rate_hz <= 0.0) return 0.0;  // untimed parameter stream
  return static_cast<double>(si.grid.h) + 1.0;
}

/// One kernel's steady-state demand per frame of its stream.
struct FrameDemand {
  double cycles = 0.0;
  double read_words = 0.0;
  double write_words = 0.0;
  double firings = 0.0;
  double forwards = 0.0;
};

FrameDemand frame_demand(const Graph& g, const DataflowResult& df,
                         KernelId k) {
  const Kernel& kn = g.kernel(k);
  const KernelAnalysis& a = df.kernel[static_cast<size_t>(k)];
  FrameDemand d;
  d.cycles = static_cast<double>(a.cycles_per_frame);
  d.read_words = static_cast<double>(a.read_words_per_frame);
  d.firings = static_cast<double>(a.firings_per_frame);

  // Write traffic, per out-channel: data items plus the control tokens the
  // kernel emits or forwards downstream (grid.h end-of-lines + 1
  // end-of-frame per frame, plus declared user tokens).
  for (ChannelId c : g.out_channels(k)) {
    const StreamInfo& si = df.channel[static_cast<size_t>(c)];
    if (si.rate_hz <= 0.0) continue;  // untimed: emitted once, not per frame
    d.write_words +=
        static_cast<double>(si.items_per_frame) *
            static_cast<double>(si.item.area()) +
        tokens_per_frame(si);
    for (const auto& tr : si.token_rates) d.write_words += tr.second;
  }

  // Token forwards: for every data-triggered method, tokens arriving on
  // its trigger inputs that no token method of this kernel handles are
  // forwarded — one firing per token instance, popping every input of the
  // method (the subtract-kernel rule: the class must head all of them).
  for (const MethodDef& md : kn.methods()) {
    if (md.token_triggered() || md.inputs.empty()) continue;
    // Live trigger inputs of this method and the framed stream they carry.
    int live_inputs = 0;
    const StreamInfo* si = nullptr;
    for (int port : md.inputs) {
      const auto ch = g.in_channel(k, port);
      if (!ch) continue;
      ++live_inputs;
      const StreamInfo& s = df.channel[static_cast<size_t>(*ch)];
      if (s.rate_hz > 0.0) si = &s;
    }
    if (live_inputs == 0 || !si) continue;
    const int port0 = md.inputs.front();
    double forwards = 0.0;
    if (kn.token_method_of_input(port0, tok::kEndOfLine) < 0)
      forwards += static_cast<double>(si->grid.h);
    if (kn.token_method_of_input(port0, tok::kEndOfFrame) < 0) forwards += 1.0;
    for (const auto& tr : si->token_rates)
      if (kn.token_method_of_input(port0, tr.first) < 0) forwards += tr.second;
    if (forwards <= 0.0) continue;
    d.forwards += forwards;
    d.firings += forwards;
    d.cycles += 2.0 * forwards;  // token forwarding FSM step
    d.read_words += forwards * static_cast<double>(live_inputs);
  }
  return d;
}

}  // namespace

LoadMap::LoadMap(const Graph& g, const DataflowResult& df) {
  loads_.resize(static_cast<size_t>(g.kernel_count()));
  for (KernelId k = 0; k < g.kernel_count(); ++k) {
    const KernelAnalysis& a = df.kernel[static_cast<size_t>(k)];
    const FrameDemand d = frame_demand(g, df, k);
    LoadModel& l = loads_[static_cast<size_t>(k)];
    l.cycles_per_second = d.cycles * a.rate_hz;
    l.read_words_per_second = d.read_words * a.rate_hz;
    l.write_words_per_second = d.write_words * a.rate_hz;
    l.firings_per_second = d.firings * a.rate_hz;
    l.forwards_per_second = d.forwards * a.rate_hz;
    l.memory_words = a.memory_words;
  }
}

}  // namespace bpp
