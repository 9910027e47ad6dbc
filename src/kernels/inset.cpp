#include "kernels/inset.h"

namespace bpp {

InsetKernel::InsetKernel(std::string name, Border border, Size2 frame)
    : Kernel(std::move(name)), border_(border), frame_(frame) {
  if (border.left < 0 || border.top < 0 || border.right < 0 || border.bottom < 0)
    throw GraphError(this->name() + ": negative trim");
  if (!out_frame().positive())
    throw GraphError(this->name() + ": trim leaves an empty frame");
}

void InsetKernel::configure() {
  create_input("in", {1, 1}, {1, 1}, {0.0, 0.0});
  create_output("out", {1, 1});
  in_ = input_index("in");
  out_ = output_index("out");
  auto& pass = register_method("pass", Resources{4, 8}, &InsetKernel::pass);
  method_input(pass, "in");
  method_output(pass, "out");
  auto& eol = register_method("eol", Resources{3, 0}, &InsetKernel::on_eol);
  method_input(eol, "in", tok::kEndOfLine);
  method_output(eol, "out");
  auto& eof = register_method("eof", Resources{3, 0}, &InsetKernel::on_eof);
  method_input(eof, "in", tok::kEndOfFrame);
  method_output(eof, "out");
  auto& eos = register_method("eos", Resources{2, 0}, &InsetKernel::on_eos);
  method_input(eos, "in", tok::kEndOfStream);
  method_output(eos, "out");
}

void InsetKernel::init() { x_ = y_ = 0; }

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

void InsetKernel::on_eos() {
  emit_token(out_, tok::kEndOfStream, trigger_payload());
  x_ = y_ = 0;
}

PadKernel::PadKernel(std::string name, Border border, Size2 frame)
    : Kernel(std::move(name)), border_(border), frame_(frame) {
  if (border.left < 0 || border.top < 0 || border.right < 0 || border.bottom < 0)
    throw GraphError(this->name() + ": negative pad");
}

void PadKernel::configure() {
  create_input("in", {1, 1}, {1, 1}, {0.0, 0.0});
  create_output("out", {1, 1});
  in_ = input_index("in");
  out_ = output_index("out");
  auto& pass = register_method("pass", Resources{5, 8}, &PadKernel::pass);
  method_input(pass, "in");
  method_output(pass, "out");
  auto& eol = register_method("eol", Resources{4, 0}, &PadKernel::on_eol);
  method_input(eol, "in", tok::kEndOfLine);
  method_output(eol, "out");
  auto& eof = register_method("eof", Resources{4, 0}, &PadKernel::on_eof);
  method_input(eof, "in", tok::kEndOfFrame);
  method_output(eof, "out");
  auto& eos = register_method("eos", Resources{2, 0}, &PadKernel::on_eos);
  method_input(eos, "in", tok::kEndOfStream);
  method_output(eos, "out");
}

void PadKernel::init() { x_ = y_ = 0; }

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

void PadKernel::on_eos() {
  emit_token(out_, tok::kEndOfStream, trigger_payload());
  x_ = y_ = 0;
}

}  // namespace bpp
