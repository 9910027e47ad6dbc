#include "compiler/alignment.h"

#include <cmath>
#include <limits>

#include "kernels/border.h"

namespace bpp {

namespace {

constexpr double kTol = 1e-6;

long to_count(double v, const std::string& what) {
  const double r = std::round(v);
  if (std::abs(v - r) > kTol)
    throw AnalysisError("alignment: " + what + " is not an integral number of "
                        "samples (" + std::to_string(v) + "); streams have "
                        "incompatible sampling grids");
  return static_cast<long>(r);
}

/// Output-sample lattice of one misaligned input: first sample position in
/// origin coordinates, inter-sample pitch, and sample counts.
struct Lattice {
  Offset2 first;
  Offset2 pitch;
  Size2 count;
};

Lattice lattice_of(const Kernel& kn, int port, const StreamInfo& s) {
  const PortSpec& spec = kn.input(port).spec;
  Lattice l;
  l.first = {s.inset.x + spec.offset.x * s.scale.x,
             s.inset.y + spec.offset.y * s.scale.y};
  l.pitch = {spec.step.x * s.scale.x, spec.step.y * s.scale.y};
  l.count = iteration_count(s.frame, spec.window, spec.step);
  return l;
}

}  // namespace

KernelId splice_into_channel(Graph& g, ChannelId c, std::unique_ptr<Kernel> k,
                             const std::string& in_port,
                             const std::string& out_port) {
  const Channel ch = g.channel(c);
  Kernel& inserted = g.add_kernel(std::move(k));
  const KernelId id = g.id_of(inserted);
  g.disconnect(c);
  g.connect(ch.src_kernel, ch.src_port, id, inserted.input_index(in_port));
  g.connect(id, inserted.output_index(out_port), ch.dst_kernel, ch.dst_port);
  return id;
}

std::vector<AlignmentEdit> align(Graph& g, AlignPolicy policy) {
  std::vector<AlignmentEdit> edits;

  for (int round = 0; round < 64; ++round) {
    DataflowResult df = analyze(g, Strictness::Lenient);
    if (df.misaligned.empty()) return edits;
    const Misalignment& mis = df.misaligned.front();
    const Kernel& kn = g.kernel(mis.kernel);

    // Overlay the output-sample lattices of the misaligned inputs (Fig. 8).
    std::vector<Lattice> lats;
    lats.reserve(mis.input_ports.size());
    for (size_t i = 0; i < mis.input_ports.size(); ++i)
      lats.push_back(lattice_of(kn, mis.input_ports[i], mis.inputs[i]));

    const Offset2 pitch = lats.front().pitch;
    for (const Lattice& l : lats)
      if (std::abs(l.pitch.x - pitch.x) > kTol || std::abs(l.pitch.y - pitch.y) > kTol)
        throw AnalysisError(kn.name() +
                            ": inputs sample the origin at different pitches; "
                            "trimming/padding cannot align them");
    for (const Lattice& l : lats) {
      if (std::abs((l.first.x - lats.front().first.x) / pitch.x -
                   std::round((l.first.x - lats.front().first.x) / pitch.x)) > kTol ||
          std::abs((l.first.y - lats.front().first.y) / pitch.y -
                   std::round((l.first.y - lats.front().first.y) / pitch.y)) > kTol)
        throw AnalysisError(kn.name() + ": input lattices are phase-shifted by a "
                            "fractional sample; cannot align");
    }

    if (policy == AlignPolicy::Trim) {
      // Target = intersection of the sample lattices.
      double x0 = -std::numeric_limits<double>::infinity(), y0 = x0;
      double x1 = std::numeric_limits<double>::infinity(), y1 = x1;
      for (const Lattice& l : lats) {
        x0 = std::max(x0, l.first.x);
        y0 = std::max(y0, l.first.y);
        x1 = std::min(x1, l.first.x + l.count.w * pitch.x);
        y1 = std::min(y1, l.first.y + l.count.h * pitch.y);
      }
      if (x1 <= x0 || y1 <= y0)
        throw AnalysisError(kn.name() + ": input extents do not overlap");

      for (size_t i = 0; i < mis.input_ports.size(); ++i) {
        const Lattice& l = lats[i];
        const StreamInfo& s = mis.inputs[i];
        const int port = mis.input_ports[i];
        const PortSpec& spec = kn.input(port).spec;
        const long lead_x = to_count((x0 - l.first.x) / pitch.x, "left trim");
        const long lead_y = to_count((y0 - l.first.y) / pitch.y, "top trim");
        const long keep_w = to_count((x1 - x0) / pitch.x, "kept width");
        const long keep_h = to_count((y1 - y0) / pitch.y, "kept height");
        // Trim in stream pixels: drop lead iterations' worth on the
        // left/top and whatever the kept iterations do not reach on the
        // right/bottom.
        Border b;
        b.left = static_cast<int>(lead_x) * spec.step.x;
        b.top = static_cast<int>(lead_y) * spec.step.y;
        const Size2 need = covered_extent(
            {static_cast<int>(keep_w), static_cast<int>(keep_h)}, spec.window,
            spec.step);
        b.right = s.frame.w - b.left - need.w;
        b.bottom = s.frame.h - b.top - need.h;
        if (!b.any()) continue;
        if (s.item != Size2{1, 1})
          throw AnalysisError(kn.name() + ": cannot trim a stream delivered in " +
                              to_string(s.item) + " tiles (trim before buffering)");
        auto c = g.in_channel(mis.kernel, port);
        auto inset = std::make_unique<InsetKernel>(
            g.unique_name("inset_" + kn.name() + "_" + spec.name), b, s.frame);
        const std::string iname = inset->name();
        splice_into_channel(g, *c, std::move(inset));
        edits.push_back(AlignmentEdit{kn.name(), iname, b, false});
      }
    } else {
      // Pad: target = union; grow the less-covering streams by zero-padding
      // the data input of the windowed kernel that shrank them (§III-C:
      // "pad evenly around the input to the convolution filter").
      double x0 = std::numeric_limits<double>::infinity(), y0 = x0;
      double x1 = -std::numeric_limits<double>::infinity(), y1 = x1;
      for (const Lattice& l : lats) {
        x0 = std::min(x0, l.first.x);
        y0 = std::min(y0, l.first.y);
        x1 = std::max(x1, l.first.x + l.count.w * pitch.x);
        y1 = std::max(y1, l.first.y + l.count.h * pitch.y);
      }

      for (size_t i = 0; i < mis.input_ports.size(); ++i) {
        const Lattice& l = lats[i];
        const int port = mis.input_ports[i];
        Border grow;
        grow.left = static_cast<int>(to_count((l.first.x - x0) / pitch.x, "pad"));
        grow.top = static_cast<int>(to_count((l.first.y - y0) / pitch.y, "pad"));
        grow.right = static_cast<int>(
            to_count((x1 - (l.first.x + l.count.w * pitch.x)) / pitch.x, "pad"));
        grow.bottom = static_cast<int>(
            to_count((y1 - (l.first.y + l.count.h * pitch.y)) / pitch.y, "pad"));
        if (!grow.any()) continue;

        // Walk upstream to the windowed kernel that introduced the inset.
        ChannelId c = *g.in_channel(mis.kernel, port);
        for (int depth = 0; depth < 32; ++depth) {
          const Channel& ch = g.channel(c);
          const Kernel& prod = g.kernel(ch.src_kernel);
          // Find the producing data method's pixel input with a halo.
          int halo_input = -1;
          for (const MethodDef& m : prod.methods()) {
            if (m.token_triggered()) continue;
            for (int pi : m.inputs) {
              const PortSpec& ps = prod.input(pi).spec;
              if (!ps.replicated && (ps.window.w > ps.step.x || ps.window.h > ps.step.y))
                halo_input = pi;
            }
          }
          if (halo_input >= 0) {
            auto up = g.in_channel(ch.src_kernel, halo_input);
            DataflowResult cur = analyze(g, Strictness::Lenient);
            const StreamInfo& us = cur.channel[static_cast<size_t>(*up)];
            if (us.item != Size2{1, 1})
              throw AnalysisError(prod.name() +
                                  ": cannot pad a non-pixel-granularity input");
            // Pad in the producer's input pixels: one padded input pixel
            // extends the output lattice by one sample per step.
            Border b{grow.left * prod.input(halo_input).spec.step.x,
                     grow.top * prod.input(halo_input).spec.step.y,
                     grow.right * prod.input(halo_input).spec.step.x,
                     grow.bottom * prod.input(halo_input).spec.step.y};
            std::unique_ptr<Kernel> pad;
            if (policy == AlignPolicy::MirrorPad)
              pad = std::make_unique<MirrorPadKernel>(
                  g.unique_name("mirrorpad_" + prod.name()), b, us.frame);
            else
              pad = std::make_unique<PadKernel>(
                  g.unique_name("pad_" + prod.name()), b, us.frame);
            const std::string pname = pad->name();
            splice_into_channel(g, *up, std::move(pad));
            edits.push_back(AlignmentEdit{kn.name(), pname, b, true});
            break;
          }
          // Pass-through producer: keep walking if it has exactly one input.
          if (prod.inputs().size() == 1 && g.in_channel(ch.src_kernel, 0)) {
            c = *g.in_channel(ch.src_kernel, 0);
            continue;
          }
          throw AnalysisError(kn.name() + ": found no windowed producer to pad "
                              "upstream of input '" +
                              kn.input(port).spec.name + "'");
        }
      }
    }
  }
  throw AnalysisError("alignment did not converge after 64 rounds");
}

}  // namespace bpp
