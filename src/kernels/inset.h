#pragma once
// Inset (trim) and pad kernels (paper §III-C, Fig. 3, Fig. 8).
//
// When two differently-haloed streams meet at one kernel (median output is
// one pixel larger per side than convolution output), the compiler either
// trims the larger stream (InsetKernel) or zero-pads the smaller one's
// source (PadKernel). The choice is the programmer's policy; the insertion
// and sizing are automatic. Both operate on 1x1 pixel streams and rewrite
// EOL/EOF tokens to the new geometry.

#include <string>

#include "core/kernel.h"

namespace bpp {

/// Drops `border` pixels from each side of a (1x1)-granularity stream.
/// The Fig. 3 annotation "Inset (0,0)[1,1,1,1]" is border {1,1,1,1}.
class InsetKernel final : public Kernel {
 public:
  /// @param frame extent of the incoming stream
  InsetKernel(std::string name, Border border, Size2 frame);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<InsetKernel>(*this);
  }
  void init() override;

  [[nodiscard]] std::string dot_shape() const override { return "invhouse"; }
  /// Scan-order FSM: replication would break the position tracking.
  [[nodiscard]] ParKind parallel_kind() const override { return ParKind::Serial; }

  [[nodiscard]] Border border() const { return border_; }
  [[nodiscard]] Size2 in_frame() const { return frame_; }
  [[nodiscard]] Size2 out_frame() const {
    return {frame_.w - border_.left - border_.right,
            frame_.h - border_.top - border_.bottom};
  }

  [[nodiscard]] std::optional<StreamInfo> custom_output_stream(
      int out_port, const StreamInfo& in) const override {
    if (out_port != 0) return std::nullopt;
    StreamInfo out = in;
    out.frame = out_frame();
    out.items_per_frame = out.frame.area();
    out.grid = out.frame;
    out.inset.x += border_.left * in.scale.x;
    out.inset.y += border_.top * in.scale.y;
    return out;
  }

 private:
  void pass();
  void on_eol();
  void on_eof();
  void on_eos();

  Border border_;
  Size2 frame_;
  int in_ = -1, out_ = -1;  ///< port indices, resolved in configure()
  int x_ = 0, y_ = 0;
};

/// Surrounds a (1x1)-granularity stream with a zero border.
class PadKernel final : public Kernel {
 public:
  PadKernel(std::string name, Border border, Size2 frame);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<PadKernel>(*this);
  }
  void init() override;

  [[nodiscard]] std::string dot_shape() const override { return "invhouse"; }
  /// Scan-order FSM: replication would break the position tracking.
  [[nodiscard]] ParKind parallel_kind() const override { return ParKind::Serial; }

  [[nodiscard]] Border border() const { return border_; }
  [[nodiscard]] Size2 in_frame() const { return frame_; }
  [[nodiscard]] Size2 out_frame() const {
    return {frame_.w + border_.left + border_.right,
            frame_.h + border_.top + border_.bottom};
  }

  [[nodiscard]] std::optional<StreamInfo> custom_output_stream(
      int out_port, const StreamInfo& in) const override {
    if (out_port != 0) return std::nullopt;
    StreamInfo out = in;
    out.frame = out_frame();
    out.items_per_frame = out.frame.area();
    out.grid = out.frame;
    out.inset.x -= border_.left * in.scale.x;
    out.inset.y -= border_.top * in.scale.y;
    return out;
  }

  /// Pad bursts (top/bottom border rows) need room for whole rows.
  [[nodiscard]] long pending_capacity() const override {
    return 2L * out_frame().w + 8;
  }

 private:
  void pass();
  void on_eol();
  void on_eof();
  void on_eos();

  void emit_zero_row();

  Border border_;
  Size2 frame_;
  int in_ = -1, out_ = -1;  ///< port indices, resolved in configure()
  int x_ = 0, y_ = 0;
};

}  // namespace bpp
