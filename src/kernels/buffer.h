#pragma once
// Parameterized buffer kernel (paper §III-B).
//
// A buffer is a regular computation kernel implementing a two-dimensional
// circular buffer. It adapts the producer's emission granularity (e.g.
// 1x1 pixels from the application input) to the consumer's windowed access
// pattern (e.g. (5x5)[1,1] for a convolution), emitting one window tile
// per consumer iteration in scan-line order together with regenerated
// end-of-line/end-of-frame tokens. Buffers are sized to double-buffer the
// larger of input or output: `frame_width x 2*max(window_h, granule_h)`
// rows — the `Buffer [20x10]` annotations of Fig. 3/4.
//
// Buffers are inserted automatically by the buffering pass; their
// parallelization is the custom column-split of §IV-C (Fig. 10).

#include <string>
#include <vector>

#include "core/kernel.h"

namespace bpp {

class BufferKernel final : public Kernel {
 public:
  /// @param in_gran granularity of arriving tiles (tiles the frame exactly)
  /// @param out_win window emitted per consumer iteration
  /// @param out_step window advance per iteration
  /// @param frame   extent of the stream this buffer adapts
  BufferKernel(std::string name, Size2 in_gran, Size2 out_win, Step2 out_step,
               Size2 frame);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<BufferKernel>(*this);
  }
  void init() override;

  [[nodiscard]] ParKind parallel_kind() const override { return ParKind::Custom; }
  [[nodiscard]] std::string dot_shape() const override { return "parallelogram"; }

  [[nodiscard]] std::optional<StreamInfo> custom_output_stream(
      int out_port, const StreamInfo& in) const override {
    if (out_port != 0) return std::nullopt;
    StreamInfo out = in;  // same frame, rate, inset: only regranulated
    out.item = out_win_;
    out.item_step = out_step_;
    out.items_per_frame = iters_.area();
    out.grid = iters_;
    return out;
  }

  [[nodiscard]] Size2 frame() const { return frame_; }
  [[nodiscard]] Size2 in_granularity() const { return in_gran_; }
  [[nodiscard]] Size2 out_window() const { return out_win_; }
  [[nodiscard]] Step2 out_step() const { return out_step_; }

  /// Ring height in rows (double-buffers the larger of input/output).
  [[nodiscard]] int ring_rows() const {
    return 2 * std::max(out_win_.h, in_gran_.h);
  }
  /// Modeled storage requirement in words: width x ring rows (the paper's
  /// `Buffer [WxR]` annotation).
  [[nodiscard]] long storage_words() const {
    return static_cast<long>(frame_.w) * ring_rows();
  }
  /// Paper-style size annotation, e.g. "[20x10]".
  [[nodiscard]] std::string size_annotation() const;

  /// Re-target this buffer to a narrower frame (used when the buffer-split
  /// pass turns it into the first column slice, §IV-C). Ports are
  /// unchanged; storage and iteration bookkeeping are rebuilt.
  void reshape(Size2 new_frame);

  /// Output-side slack: the double-buffered half of the storage holds two
  /// window-rows of completed windows while downstream is busy. The Fig. 9
  /// reuse experiments shrink this to demonstrate stalls from insufficient
  /// output buffering.
  [[nodiscard]] long pending_capacity() const override { return output_slack_; }
  void set_output_slack(long items) { output_slack_ = std::max(1L, items); }

  /// Reuse-optimized link (Fig. 9): the consumer keeps the overlapping
  /// part of consecutive windows, so only the fresh columns/rows are
  /// charged as transfer. Enabled by the reuse-optimization pass when this
  /// buffer feeds exactly one windowed kernel in stripe order.
  void set_reuse_link(bool on) { reuse_link_ = on; }
  [[nodiscard]] bool reuse_link() const { return reuse_link_; }
  /// Transfer charge for window (wx, wy) under the reuse link model.
  [[nodiscard]] long window_charge(int wx, int wy) const {
    if (!reuse_link_) return out_win_.area();
    if (wx == 0 && wy == 0) return out_win_.area();       // cold start
    if (wx == 0) return out_win_.w * out_step_.y;          // fresh rows
    return out_win_.h * out_step_.x;                       // fresh columns
  }

 private:
  void absorb();   // data arrival: place granule, emit completed windows
  void on_eol();   // producer row boundary: position check only
  void on_eof();   // frame boundary: forward EOF, reset cursors
  void on_eos();   // stream end: forward EOS, reset

  void emit_ready_windows();
  [[nodiscard]] bool pixel_received(int px, int py) const;
  [[nodiscard]] double& cell(int x, int y);
  [[nodiscard]] double cell(int x, int y) const;

  Size2 in_gran_;
  Size2 out_win_;
  Step2 out_step_;
  Size2 frame_;
  Size2 iters_{0, 0};  ///< windows per frame
  int in_ = -1, out_ = -1;  ///< port indices, resolved in configure()

  // Circular row storage.
  std::vector<double> ring_;
  int in_x_ = 0, in_y_ = 0;  ///< next granule position (pixels)
  int ex_ = 0, ey_ = 0;      ///< next window to emit (window coords)
  long output_slack_ = 8;
  bool reuse_link_ = false;
};

}  // namespace bpp
