#include "kernels/border.h"

namespace bpp {

// --------------------------------------------------------------- Border

BorderKernel::BorderKernel(std::string name, Border border, Size2 frame,
                           int sign)
    : Kernel(std::move(name)), border_(border), frame_(frame), sign_(sign) {
  if (border.left < 0 || border.top < 0 || border.right < 0 || border.bottom < 0)
    throw GraphError(this->name() +
                     (sign < 0 ? ": negative trim" : ": negative pad"));
  if (sign < 0 && !out_frame().positive())
    throw GraphError(this->name() + ": trim leaves an empty frame");
}

std::optional<StreamInfo> BorderKernel::custom_output_stream(
    int out_port, const StreamInfo& in) const {
  if (out_port != 0) return std::nullopt;
  StreamInfo out = in;
  out.frame = out_frame();
  out.items_per_frame = out.frame.area();
  out.grid = out.frame;
  out.inset.x -= sign_ * border_.left * in.scale.x;
  out.inset.y -= sign_ * border_.top * in.scale.y;
  return out;
}

void BorderKernel::bind(MethodDef& m, std::optional<TokenClass> cls) {
  method_input(m, "in", cls);
  method_output(m, "out");
}

void BorderKernel::on_eos() {
  emit_token(out_, tok::kEndOfStream, trigger_payload());
  init();
}

// ---------------------------------------------------------------- Inset

InsetKernel::InsetKernel(std::string name, Border border, Size2 frame)
    : BorderKernel(std::move(name), border, frame, -1) {}

void InsetKernel::configure() {
  configure_border("pass", Resources{4, 8}, 3, &InsetKernel::pass,
                   &InsetKernel::on_eol, &InsetKernel::on_eof);
}

void InsetKernel::pass() {
  const bool keep_row = y_ >= border_.top && y_ < frame_.h - border_.bottom;
  const bool keep_col = x_ >= border_.left && x_ < frame_.w - border_.right;
  if (keep_row && keep_col) write_output(out_, take_input(in_));
  ++x_;
}

void InsetKernel::on_eol() {
  if (y_ >= border_.top && y_ < frame_.h - border_.bottom)
    emit_token(out_, tok::kEndOfLine, y_ - border_.top);
  x_ = 0;
  ++y_;
}

void InsetKernel::on_eof() {
  emit_token(out_, tok::kEndOfFrame, trigger_payload());
  x_ = y_ = 0;
}

// ------------------------------------------------------------------ Pad

PadKernel::PadKernel(std::string name, Border border, Size2 frame)
    : BorderKernel(std::move(name), border, frame, +1) {}

void PadKernel::configure() {
  configure_border("pass", Resources{5, 8}, 4, &PadKernel::pass,
                   &PadKernel::on_eol, &PadKernel::on_eof);
}

void PadKernel::emit_zero_row() {
  for (int x = 0; x < out_frame().w; ++x) write_output(out_, Tile({1, 1}, 0.0));
}

void PadKernel::pass() {
  if (x_ == 0 && y_ == 0) {
    // Top border rows, each a full padded-width row of zeros.
    for (int r = 0; r < border_.top; ++r) {
      emit_zero_row();
      emit_token(out_, tok::kEndOfLine, r);
    }
  }
  if (x_ == 0)
    for (int p = 0; p < border_.left; ++p) write_output(out_, Tile({1, 1}, 0.0));
  write_output(out_, take_input(in_));
  ++x_;
}

void PadKernel::on_eol() {
  for (int p = 0; p < border_.right; ++p) write_output(out_, Tile({1, 1}, 0.0));
  emit_token(out_, tok::kEndOfLine, border_.top + y_);
  x_ = 0;
  ++y_;
}

void PadKernel::on_eof() {
  for (int r = 0; r < border_.bottom; ++r) {
    emit_zero_row();
    emit_token(out_, tok::kEndOfLine, border_.top + frame_.h + r);
  }
  emit_token(out_, tok::kEndOfFrame, trigger_payload());
  x_ = y_ = 0;
}

// ----------------------------------------------------------- Mirror pad

MirrorPadKernel::MirrorPadKernel(std::string name, Border border, Size2 frame)
    : BorderKernel(std::move(name), border, frame, +1) {
  // Reflection about the edge needs the reflected samples to exist.
  if (border.left >= frame.w || border.right >= frame.w ||
      border.top >= frame.h || border.bottom >= frame.h)
    throw GraphError(this->name() + ": mirror pad must be smaller than the frame");
}

void MirrorPadKernel::configure() {
  configure_border(
      "absorb", Resources{6, static_cast<long>(border_.top + 2) * frame_.w + 16},
      4, &MirrorPadKernel::absorb, &MirrorPadKernel::on_eol,
      &MirrorPadKernel::on_eof);
}

void MirrorPadKernel::init() {
  rows_.clear();
  cur_.clear();
  next_out_ = 0;
}

int MirrorPadKernel::reflect(int v, int n) {
  if (n == 1) return 0;
  while (v < 0 || v >= n) {
    if (v < 0) v = -v;
    if (v >= n) v = 2 * n - 2 - v;
  }
  return v;
}

void MirrorPadKernel::absorb() { cur_.push_back(read_input(in_).at(0, 0)); }

void MirrorPadKernel::emit_row(int out_row) {
  const int src = reflect(out_row - border_.top, frame_.h);
  const std::vector<double>& row = rows_[static_cast<size_t>(src)];
  for (int x = 0; x < out_frame().w; ++x) {
    Tile px(1, 1);
    px.at(0, 0) = row[static_cast<size_t>(reflect(x - border_.left, frame_.w))];
    write_output(out_, std::move(px));
  }
  emit_token(out_, tok::kEndOfLine, out_row);
}

void MirrorPadKernel::emit_ready_rows() {
  while (next_out_ < out_frame().h) {
    const int src = reflect(next_out_ - border_.top, frame_.h);
    if (src >= static_cast<int>(rows_.size())) return;
    emit_row(next_out_++);
  }
}

void MirrorPadKernel::on_eol() {
  if (static_cast<int>(cur_.size()) != frame_.w)
    throw ExecutionError(name() + ": row of " + std::to_string(cur_.size()) +
                         " pixels, expected " + std::to_string(frame_.w));
  rows_.push_back(std::move(cur_));
  cur_.clear();
  emit_ready_rows();
}

void MirrorPadKernel::on_eof() {
  if (static_cast<int>(rows_.size()) != frame_.h)
    throw ExecutionError(name() + ": end-of-frame after " +
                         std::to_string(rows_.size()) + " of " +
                         std::to_string(frame_.h) + " rows");
  emit_ready_rows();  // bottom border: all sources now available
  if (next_out_ != out_frame().h)
    throw ExecutionError(name() + ": frame ended with unemitted rows");
  emit_token(out_, tok::kEndOfFrame, trigger_payload());
  rows_.clear();
  next_out_ = 0;
}

}  // namespace bpp
