#include "kernels/output.h"

#include <algorithm>

namespace bpp {

OutputKernel::OutputKernel(std::string name, Size2 item)
    : Kernel(std::move(name)), item_(item) {}

void OutputKernel::configure() {
  create_input("in", item_, {item_.w, item_.h});
  in_ = input_index("in");
  auto& collect = register_method("collect", Resources{5 + item_.area(), 64},
                                  &OutputKernel::collect);
  method_input(collect, "in");
  auto& eol = register_method("eol", Resources{2, 0}, &OutputKernel::on_eol);
  method_input(eol, "in", tok::kEndOfLine);
  auto& eof = register_method("eof", Resources{4, 0}, &OutputKernel::on_eof);
  method_input(eof, "in", tok::kEndOfFrame);
  auto& eos = register_method("eos", Resources{2, 0}, &OutputKernel::on_eos);
  method_input(eos, "in", tok::kEndOfStream);
}

void OutputKernel::init() {
  tiles_.clear();
  frames_.clear();
  rows_.clear();
  band_.clear();
  eol_count_ = eof_count_ = eos_count_ = 0;
  finished_ = false;
}

void OutputKernel::collect() {
  const Tile& t = read_input(in_);
  tiles_.push_back(t);
  // Build up the current band of item_.h pixel rows for 2-D reassembly
  // (items of height > 1 tile the frame band by band).
  if (band_.size() < static_cast<size_t>(t.height()))
    band_.resize(static_cast<size_t>(t.height()));
  for (int y = 0; y < t.height(); ++y) {
    const double* row = t.row_ptr(y);
    band_[static_cast<size_t>(y)].insert(band_[static_cast<size_t>(y)].end(),
                                         row, row + t.width());
  }
}

void OutputKernel::on_eol() {
  ++eol_count_;
  for (auto& row : band_) rows_.push_back(std::move(row));
  band_.clear();
}

void OutputKernel::on_eof() {
  ++eof_count_;
  for (auto& row : band_)  // stream without EOL tokens: flush the band
    if (!row.empty()) rows_.push_back(std::move(row));
  band_.clear();
  if (rows_.empty()) return;
  const size_t w = rows_.front().size();
  bool rect = true;
  for (const auto& r : rows_) rect = rect && r.size() == w;
  if (rect && w > 0) {
    Tile frame(static_cast<int>(w), static_cast<int>(rows_.size()));
    for (size_t y = 0; y < rows_.size(); ++y)
      std::copy(rows_[y].begin(), rows_[y].end(),
                frame.row_ptr(static_cast<int>(y)));
    frames_.push_back(std::move(frame));
  }
  rows_.clear();
}

void OutputKernel::on_eos() {
  ++eos_count_;
  finished_ = true;
}

long OutputKernel::tokens_seen(TokenClass cls) const {
  switch (cls) {
    case tok::kEndOfLine:
      return eol_count_;
    case tok::kEndOfFrame:
      return eof_count_;
    case tok::kEndOfStream:
      return eos_count_;
    default:
      return 0;
  }
}

}  // namespace bpp
