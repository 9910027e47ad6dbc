#include "kernels/buffer.h"

#include <algorithm>
#include <sstream>

namespace bpp {

BufferKernel::BufferKernel(std::string name, Size2 in_gran, Size2 out_win,
                           Step2 out_step, Size2 frame)
    : Kernel(std::move(name)),
      in_gran_(in_gran),
      out_win_(out_win),
      out_step_(out_step),
      frame_(frame) {
  if (!in_gran.positive() || !out_win.positive() || !out_step.positive() ||
      !frame.positive())
    throw GraphError(this->name() + ": buffer geometry must be positive");
  if (frame.w % in_gran.w != 0 || frame.h % in_gran.h != 0)
    throw GraphError(this->name() + ": input granularity " + to_string(in_gran) +
                     " does not tile frame " + to_string(frame));
  if (out_win.w > frame.w || out_win.h > frame.h)
    throw GraphError(this->name() + ": output window " + to_string(out_win) +
                     " exceeds frame " + to_string(frame));
  iters_ = iteration_count(frame, out_win, out_step);
  output_slack_ = std::max<long>(8, 2L * iters_.w);
}

std::string BufferKernel::size_annotation() const {
  std::ostringstream os;
  os << '[' << frame_.w << 'x' << ring_rows() << ']';
  return os.str();
}

void BufferKernel::reshape(Size2 new_frame) {
  if (!new_frame.positive() || new_frame.w % in_gran_.w != 0 ||
      new_frame.h % in_gran_.h != 0 || out_win_.w > new_frame.w ||
      out_win_.h > new_frame.h)
    throw GraphError(name() + ": invalid reshape to " + to_string(new_frame));
  frame_ = new_frame;
  iters_ = iteration_count(frame_, out_win_, out_step_);
  output_slack_ = std::max<long>(8, 2L * iters_.w);
  if (configured())
    method_mut("absorb").res.memory_words = storage_words() + 16;
  init();
}

void BufferKernel::configure() {
  create_input("in", in_gran_, {in_gran_.w, in_gran_.h}, {0.0, 0.0});
  create_output("out", out_win_, out_step_);
  in_ = input_index("in");
  out_ = output_index("out");

  auto& absorb = register_method(
      "absorb", Resources{4 + 2L * in_gran_.area(), storage_words() + 16},
      &BufferKernel::absorb);
  method_input(absorb, "in");
  method_output(absorb, "out");

  auto& eol = register_method("eol", Resources{2, 0}, &BufferKernel::on_eol);
  method_input(eol, "in", tok::kEndOfLine);
  auto& eof = register_method("eof", Resources{4, 0}, &BufferKernel::on_eof);
  method_input(eof, "in", tok::kEndOfFrame);
  method_output(eof, "out");
  auto& eos = register_method("eos", Resources{2, 0}, &BufferKernel::on_eos);
  method_input(eos, "in", tok::kEndOfStream);
  method_output(eos, "out");

  init();
}

void BufferKernel::init() {
  ring_.assign(static_cast<size_t>(frame_.w) * ring_rows(), 0.0);
  in_x_ = in_y_ = ex_ = ey_ = 0;
}

double& BufferKernel::cell(int x, int y) {
  return ring_[static_cast<size_t>(y % ring_rows()) * frame_.w + x];
}

double BufferKernel::cell(int x, int y) const {
  return ring_[static_cast<size_t>(y % ring_rows()) * frame_.w + x];
}

bool BufferKernel::pixel_received(int px, int py) const {
  // Rows strictly below the current granule band are complete; within the
  // band, columns left of the write cursor are complete.
  if (py < in_y_) return true;
  if (py >= in_y_ + in_gran_.h) return false;
  return px < in_x_;
}

void BufferKernel::absorb() {
  const Tile& t = read_input(in_);
  for (int y = 0; y < in_gran_.h; ++y) {
    const double* src = t.row_ptr(y);
    std::copy(src, src + in_gran_.w, &cell(in_x_, in_y_ + y));
  }
  in_x_ += in_gran_.w;
  if (in_x_ >= frame_.w) {
    in_x_ = 0;
    in_y_ += in_gran_.h;
  }
  emit_ready_windows();
}

void BufferKernel::emit_ready_windows() {
  while (ey_ < iters_.h) {
    const int px = ex_ * out_step_.x;
    const int py = ey_ * out_step_.y;
    if (!pixel_received(px + out_win_.w - 1, py + out_win_.h - 1)) return;
    Tile win(out_win_);
    for (int y = 0; y < out_win_.h; ++y) {
      const double* src = &cell(px, py + y);  // ring rows are contiguous
      std::copy(src, src + out_win_.w, win.row_ptr(y));
    }
    write_output_charged(out_, std::move(win), window_charge(ex_, ey_));
    if (++ex_ == iters_.w) {
      ex_ = 0;
      ++ey_;
      emit_token(out_, tok::kEndOfLine, ey_ - 1);
    }
  }
}

void BufferKernel::on_eol() {
  if (in_x_ != 0)
    throw ExecutionError(name() + ": end-of-line token arrived mid-row (x=" +
                         std::to_string(in_x_) + ")");
}

void BufferKernel::on_eof() {
  if (in_y_ < frame_.h)
    throw ExecutionError(name() + ": end-of-frame after only " +
                         std::to_string(in_y_) + " of " + std::to_string(frame_.h) +
                         " rows");
  if (ey_ != iters_.h)
    throw ExecutionError(name() + ": frame ended with unemitted windows");
  emit_token(out_, tok::kEndOfFrame, trigger_payload());
  in_x_ = in_y_ = ex_ = ey_ = 0;
}

void BufferKernel::on_eos() {
  emit_token(out_, tok::kEndOfStream, trigger_payload());
  in_x_ = in_y_ = ex_ = ey_ = 0;
}

}  // namespace bpp
