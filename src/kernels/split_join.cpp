#include "kernels/split_join.h"

#include <algorithm>

namespace bpp {

namespace {

std::string branch_name(const char* base, int i) {
  return std::string(base) + std::to_string(i);
}

}  // namespace

// ---------------------------------------------------------------- Split

SplitKernel::SplitKernel(std::string name, int n, Size2 item, Step2 step)
    : Kernel(std::move(name)),
      mode_(Mode::RoundRobin),
      n_(n),
      item_(item),
      step_(step) {
  if (n < 1) throw GraphError(this->name() + ": split needs >= 1 branch");
}

SplitKernel::SplitKernel(std::string name,
                         std::vector<std::pair<int, int>> ranges,
                         int items_per_line, Size2 item, Step2 step)
    : Kernel(std::move(name)),
      mode_(Mode::ColumnRanges),
      n_(static_cast<int>(ranges.size())),
      item_(item),
      step_(step),
      ranges_(std::move(ranges)),
      items_per_line_(items_per_line) {
  if (n_ < 1) throw GraphError(this->name() + ": split needs >= 1 range");
  for (const auto& [a, b] : ranges_)
    if (a < 0 || b <= a || b > items_per_line_)
      throw GraphError(this->name() + ": bad column range [" + std::to_string(a) +
                       ", " + std::to_string(b) + ")");
}

void SplitKernel::configure() {
  create_input("in", item_, step_, {0.0, 0.0});
  in_ = input_index("in");
  auto& route = register_method("route", Resources{8, 8},
                                &SplitKernel::route);
  method_input(route, "in");
  for (int i = 0; i < n_; ++i) {
    create_output(branch_name("out", i), item_, step_);
    method_output(route, branch_name("out", i));
    outs_.push_back(output_index(branch_name("out", i)));
  }
  auto& eol = register_method("eol", Resources{2 + n_, 0}, &SplitKernel::on_eol);
  method_input(eol, "in", tok::kEndOfLine);
  auto& eof = register_method("eof", Resources{2 + n_, 0}, &SplitKernel::on_eof);
  method_input(eof, "in", tok::kEndOfFrame);
  auto& eos = register_method("eos", Resources{2 + n_, 0}, &SplitKernel::on_eos);
  method_input(eos, "in", tok::kEndOfStream);
  for (int i = 0; i < n_; ++i) {
    method_output(eol, branch_name("out", i));
    method_output(eof, branch_name("out", i));
    method_output(eos, branch_name("out", i));
  }
}

void SplitKernel::init() {
  rr_ = 0;
  x_ = 0;
}

void SplitKernel::route() {
  if (mode_ == Mode::RoundRobin) {
    write_output(outs_[static_cast<size_t>(rr_)], take_input(in_));
    rr_ = (rr_ + 1) % n_;
  } else {
    const Tile& t = read_input(in_);
    for (int i = 0; i < n_; ++i)
      if (x_ >= ranges_[static_cast<size_t>(i)].first &&
          x_ < ranges_[static_cast<size_t>(i)].second)
        write_output(outs_[static_cast<size_t>(i)], t);
    if (++x_ == items_per_line_) x_ = 0;
  }
}

void SplitKernel::broadcast(TokenClass cls) {
  for (int o : outs_) emit_token(o, cls, trigger_payload());
}

void SplitKernel::on_eol() {
  x_ = 0;
  broadcast(tok::kEndOfLine);
}

void SplitKernel::on_eof() {
  rr_ = 0;
  x_ = 0;
  broadcast(tok::kEndOfFrame);
}

void SplitKernel::on_eos() {
  rr_ = 0;
  x_ = 0;
  broadcast(tok::kEndOfStream);
}

// ----------------------------------------------------------------- Join

JoinKernel::JoinKernel(std::string name, int n, Size2 item, Step2 step)
    : Kernel(std::move(name)),
      mode_(Mode::RoundRobin),
      n_(n),
      item_(item),
      step_(step) {
  if (n < 1) throw GraphError(this->name() + ": join needs >= 1 branch");
}

JoinKernel::JoinKernel(std::string name, std::vector<int> runs, Size2 item,
                       Step2 step)
    : Kernel(std::move(name)),
      mode_(Mode::RunLength),
      n_(static_cast<int>(runs.size())),
      item_(item),
      step_(step),
      runs_(std::move(runs)) {
  if (n_ < 1) throw GraphError(this->name() + ": join needs >= 1 run");
  for (int r : runs_)
    if (r < 0) throw GraphError(this->name() + ": negative run length");
}

void JoinKernel::configure() {
  auto& take = register_method("take", Resources{8, 8},
                               &JoinKernel::take);
  for (int i = 0; i < n_; ++i) {
    create_input(branch_name("in", i), item_, step_, {0.0, 0.0});
    method_input(take, branch_name("in", i));
  }
  create_output("out", item_, step_);
  out_ = output_index("out");
  method_output(take, "out");

  auto& eol = register_method("eol", Resources{3, 0}, &JoinKernel::on_eol);
  auto& eof = register_method("eof", Resources{3, 0}, &JoinKernel::on_eof);
  auto& eos = register_method("eos", Resources{3, 0}, &JoinKernel::on_eos);
  for (int i = 0; i < n_; ++i) {
    method_input(eol, branch_name("in", i), tok::kEndOfLine);
    method_input(eof, branch_name("in", i), tok::kEndOfFrame);
    method_input(eos, branch_name("in", i), tok::kEndOfStream);
  }
  method_output(eol, "out");
  method_output(eof, "out");
  method_output(eos, "out");

  init();
}

void JoinKernel::init() {
  cur_ = 0;
  taken_ = 0;
  if (mode_ == Mode::RunLength) reset_line();
}

void JoinKernel::reset_line() {
  cur_ = 0;
  taken_ = 0;
  // Skip branches that contribute nothing to a line.
  while (mode_ == Mode::RunLength && cur_ < n_ &&
         runs_[static_cast<size_t>(cur_)] == 0)
    ++cur_;
}

bool JoinKernel::decide_custom(const std::vector<int>& connected,
                               const HeadFn& head, FireDecision& out) const {
  // Data: consume from the current branch only.
  if (cur_ < n_) {
    const Item* h = head(cur_);
    if (h && is_data(*h)) {
      out.kind = FireDecision::Kind::Method;
      out.method = 0;  // take() is registered first
      out.pop_inputs.push_back(cur_);
      return true;
    }
  }
  // Tokens: require the same class at the head of every branch, then run
  // the registered handler (which resets the FSM and forwards one copy).
  const Item* first = nullptr;
  for (int i : connected) {
    const Item* h = head(i);
    if (!h || !is_token(*h)) return true;
    if (!first)
      first = h;
    else if (as_token(*h).cls != as_token(*first).cls)
      return true;
  }
  if (!first || static_cast<int>(connected.size()) != n_) return true;
  const TokenClass cls = as_token(*first).cls;
  const int m = token_method_of_input(0, cls);
  out.pop_inputs.assign(connected.begin(), connected.end());
  out.token = cls;
  out.payload = as_token(*first).payload;
  if (m >= 0) {
    out.kind = FireDecision::Kind::Method;
    out.method = m;
  } else {
    out.kind = FireDecision::Kind::Forward;
    out.forward_outputs.push_back(0);
  }
  return true;
}

void JoinKernel::take() {
  // Branch i is input port i, as decide_custom assumes.
  write_output(out_, take_input(cur_));
  advance();
}

void JoinKernel::advance() {
  if (mode_ == Mode::RoundRobin) {
    cur_ = (cur_ + 1) % n_;
    return;
  }
  if (++taken_ >= runs_[static_cast<size_t>(cur_)]) {
    taken_ = 0;
    ++cur_;
    while (cur_ < n_ && runs_[static_cast<size_t>(cur_)] == 0) ++cur_;
    // cur_ == n_ means the line is exhausted; the next EOL resets it.
  }
}

void JoinKernel::on_eol() {
  if (mode_ == Mode::RunLength) reset_line();
  emit_token(out_, tok::kEndOfLine, trigger_payload());
}

void JoinKernel::on_eof() {
  if (mode_ == Mode::RunLength)
    reset_line();
  else
    cur_ = 0;
  emit_token(out_, tok::kEndOfFrame, trigger_payload());
}

void JoinKernel::on_eos() {
  if (mode_ == Mode::RunLength)
    reset_line();
  else
    cur_ = 0;
  emit_token(out_, tok::kEndOfStream, trigger_payload());
}

// ------------------------------------------------------------ Replicate

ReplicateKernel::ReplicateKernel(std::string name, int n, Size2 item, Step2 step)
    : Kernel(std::move(name)), n_(n), item_(item), step_(step) {
  if (n < 1) throw GraphError(this->name() + ": replicate needs >= 1 branch");
}

void ReplicateKernel::configure() {
  create_input("in", item_, step_, {0.0, 0.0});
  in_ = input_index("in");
  auto& copy = register_method("copy", Resources{4 + n_ * item_.area(), 8},
                               &ReplicateKernel::copy_all);
  method_input(copy, "in");
  for (int i = 0; i < n_; ++i) {
    create_output(branch_name("out", i), item_, step_);
    method_output(copy, branch_name("out", i));
    outs_.push_back(output_index(branch_name("out", i)));
  }
}

void ReplicateKernel::copy_all() {
  // Copies into every branch but the last, which takes the tile itself.
  for (size_t i = 0; i + 1 < outs_.size(); ++i)
    write_output(outs_[i], read_input(in_));
  write_output(outs_.back(), take_input(in_));
}

}  // namespace bpp
