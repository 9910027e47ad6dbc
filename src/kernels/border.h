#pragma once
// Border kernels: trim, zero pad and mirror pad (paper §III-C, Fig. 3,
// Fig. 8: "The compiler can then choose to either zero-pad or mirror the
// input...").
//
// When two differently-haloed streams meet at one kernel (median output is
// one pixel larger per side than convolution output), the compiler either
// trims the larger stream (InsetKernel) or pads the smaller one's source
// (PadKernel, MirrorPadKernel). The choice is the programmer's policy; the
// insertion and sizing are automatic. All three share one skeleton,
// BorderKernel: a 1x1 pixel stream in, the stream with its border removed
// or added out, EOL/EOF tokens rewritten to the new geometry. Each
// subclass keeps only its scan-order FSM.

#include <string>
#include <vector>

#include "core/kernel.h"

namespace bpp {

class BorderKernel : public Kernel {
 public:
  [[nodiscard]] std::string dot_shape() const final { return "invhouse"; }
  /// Scan-order FSM: replication would break the position tracking.
  [[nodiscard]] ParKind parallel_kind() const final { return ParKind::Serial; }

  [[nodiscard]] Border border() const { return border_; }
  [[nodiscard]] Size2 in_frame() const { return frame_; }
  /// The incoming frame less (trim) or plus (pad) the border.
  [[nodiscard]] Size2 out_frame() const {
    return {frame_.w + sign_ * (border_.left + border_.right),
            frame_.h + sign_ * (border_.top + border_.bottom)};
  }

  [[nodiscard]] std::optional<StreamInfo> custom_output_stream(
      int out_port, const StreamInfo& in) const final;

 protected:
  /// @param frame extent of the incoming stream
  /// @param sign  -1 for a trim, +1 for a pad
  BorderKernel(std::string name, Border border, Size2 frame, int sign);

  /// Declares the 1x1 ports "in" and "out" and the four methods, each
  /// writing "out": `on_data` (named `data_name`) per pixel, then the
  /// eol, eof and eos token handlers.
  template <class K>
  void configure_border(const char* data_name, Resources data,
                        long token_cycles, void (K::*on_data)(),
                        void (K::*on_eol)(), void (K::*on_eof)()) {
    create_input("in", {1, 1}, {1, 1}, {0.0, 0.0});
    create_output("out", {1, 1});
    bind(register_method(data_name, data, on_data), std::nullopt);
    bind(register_method("eol", Resources{token_cycles, 0}, on_eol),
         tok::kEndOfLine);
    bind(register_method("eof", Resources{token_cycles, 0}, on_eof),
         tok::kEndOfFrame);
    bind(register_method("eos", Resources{2, 0}, &BorderKernel::on_eos),
         tok::kEndOfStream);
  }

  /// Port indices: the kernel's only ports, created first.
  static constexpr int in_ = 0;
  static constexpr int out_ = 0;

  Border border_;
  Size2 frame_;

 private:
  void bind(MethodDef& m, std::optional<TokenClass> cls);
  /// Forwards end-of-stream and resets the FSM (init()).
  void on_eos();

  int sign_;
};

/// Drops `border` pixels from each side of a (1x1)-granularity stream.
/// The Fig. 3 annotation "Inset (0,0)[1,1,1,1]" is border {1,1,1,1}.
class InsetKernel final : public BorderKernel {
 public:
  InsetKernel(std::string name, Border border, Size2 frame);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<InsetKernel>(*this);
  }
  void init() override { x_ = y_ = 0; }

 private:
  void pass();
  void on_eol();
  void on_eof();

  int x_ = 0, y_ = 0;
};

/// Surrounds a (1x1)-granularity stream with a zero border.
class PadKernel final : public BorderKernel {
 public:
  PadKernel(std::string name, Border border, Size2 frame);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<PadKernel>(*this);
  }
  void init() override { x_ = y_ = 0; }

  /// Pad bursts (top/bottom border rows) need room for whole rows.
  [[nodiscard]] long pending_capacity() const override {
    return 2L * out_frame().w + 8;
  }

 private:
  void pass();
  void on_eol();
  void on_eof();

  void emit_zero_row();

  int x_ = 0, y_ = 0;
};

/// Surrounds a (1x1)-granularity stream with its own reflection.
///
/// Unlike zero padding, mirroring needs lookahead: the first output row
/// reflects input row `top`, so emission lags `top` rows behind the input.
/// The kernel buffers incoming rows and streams padded rows out in scan
/// order as their reflected sources arrive; the bottom border drains at
/// end-of-frame. Reflection excludes the edge sample (like Tile::padded
/// with mirror=true): out(-1) = in(1).
class MirrorPadKernel final : public BorderKernel {
 public:
  MirrorPadKernel(std::string name, Border border, Size2 frame);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<MirrorPadKernel>(*this);
  }
  void init() override;

  /// Row bursts: when input row `top` completes, top+1 padded rows drain.
  [[nodiscard]] long pending_capacity() const override {
    return static_cast<long>(border_.top + 2) * (out_frame().w + 1) + 8;
  }

 private:
  void absorb();
  void on_eol();
  void on_eof();

  void emit_ready_rows();
  void emit_row(int out_row);
  [[nodiscard]] static int reflect(int v, int n);

  std::vector<std::vector<double>> rows_;  // received input rows this frame
  std::vector<double> cur_;
  int next_out_ = 0;  // next output row to emit
};

}  // namespace bpp
