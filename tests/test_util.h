#pragma once
// Shared helpers for the test suite: tiny configurable kernels, manual
// engine drivers, and graph-building shorthands.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/graph.h"
#include "core/kernel.h"

namespace bpp::testutil {

/// A 1x1 pass-through kernel with configurable cycle cost.
class PassKernel final : public Kernel {
 public:
  explicit PassKernel(std::string name, long cycles = 5)
      : Kernel(std::move(name)), cycles_(cycles) {}

  void configure() override {
    create_input("in", {1, 1}, {1, 1}, {0.0, 0.0});
    create_output("out", {1, 1});
    auto& m = register_method("pass", Resources{cycles_, 2}, &PassKernel::pass);
    method_input(m, "in");
    method_output(m, "out");
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<PassKernel>(*this);
  }

 private:
  void pass() { write_output("out", read_input("in")); }
  long cycles_;
};

/// Emits a fixed list of items on one output, then stops (no EOS unless
/// included in the list). Untimed (release 0) unless a rate is given.
class ScriptedSource final : public Kernel {
 public:
  ScriptedSource(std::string name, std::vector<Item> items, Size2 frame = {1, 1},
                 double rate = 0.0)
      : Kernel(std::move(name)), items_(std::move(items)), frame_(frame),
        rate_(rate) {}

  void configure() override { create_output("out", {1, 1}); }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<ScriptedSource>(*this);
  }
  void init() override { next_ = 0; }

  [[nodiscard]] bool is_source() const override { return true; }
  [[nodiscard]] std::optional<SourceStreamSpec> source_spec(int port) const override {
    if (port != 0) return std::nullopt;
    SourceStreamSpec s;
    s.frame = frame_;
    s.granularity = {1, 1};
    s.rate_hz = rate_;
    s.frames = 1;
    return s;
  }
  bool source_poll(SourceEmission& out) override {
    if (next_ >= items_.size()) return false;
    out.port = 0;
    out.item = items_[next_++];
    out.release_seconds = 0.0;
    out.cycles = 1;
    return true;
  }

 private:
  std::vector<Item> items_;
  Size2 frame_;
  double rate_;
  size_t next_ = 0;
};

/// Collects every item (data and tokens) arriving on its single input.
class ItemSink final : public Kernel {
 public:
  explicit ItemSink(std::string name, Size2 item = {1, 1})
      : Kernel(std::move(name)), item_(item) {}

  void configure() override {
    create_input("in", item_, {item_.w, item_.h}, {0.0, 0.0});
    auto& d = register_method("take", Resources{2, 2}, &ItemSink::take);
    method_input(d, "in");
    auto& eol = register_method("eol", Resources{1, 0}, &ItemSink::tok_eol);
    method_input(eol, "in", tok::kEndOfLine);
    auto& eof = register_method("eof", Resources{1, 0}, &ItemSink::tok_eof);
    method_input(eof, "in", tok::kEndOfFrame);
    auto& eos = register_method("eos", Resources{1, 0}, &ItemSink::tok_eos);
    method_input(eos, "in", tok::kEndOfStream);
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<ItemSink>(*this);
  }
  void init() override { log.clear(); }

  /// Arrival log: data items record their first value; tokens record
  /// -(1000 + class).
  std::vector<double> log;
  [[nodiscard]] long data_count() const {
    long n = 0;
    for (double v : log)
      if (v > -1000.0) ++n;
    return n;
  }
  [[nodiscard]] long token_count(TokenClass cls) const {
    long n = 0;
    for (double v : log)
      if (v == -(1000.0 + cls)) ++n;
    return n;
  }

 private:
  void take() { log.push_back(read_input("in").at(0, 0)); }
  void tok_eol() { log.push_back(-(1000.0 + tok::kEndOfLine)); }
  void tok_eof() { log.push_back(-(1000.0 + tok::kEndOfFrame)); }
  void tok_eos() { log.push_back(-(1000.0 + tok::kEndOfStream)); }

  Size2 item_;
};

/// 1x1 data item shorthand.
[[nodiscard]] inline Item px(double v) {
  Tile t(1, 1);
  t.at(0, 0) = v;
  return t;
}
[[nodiscard]] inline Item token(TokenClass cls, std::int64_t payload = 0) {
  return ControlToken{cls, payload};
}

/// Scripted scan-line stream for a WxH frame: pixels row by row with EOL
/// after each row, EOF after the frame, and optionally EOS at the end.
[[nodiscard]] std::vector<Item> inline scanline_items(
    Size2 frame, const std::function<double(int, int)>& f, bool eos = true) {
  std::vector<Item> items;
  for (int y = 0; y < frame.h; ++y) {
    for (int x = 0; x < frame.w; ++x) items.push_back(px(f(x, y)));
    items.push_back(token(tok::kEndOfLine, y));
  }
  items.push_back(token(tok::kEndOfFrame, 0));
  if (eos) items.push_back(token(tok::kEndOfStream, 1));
  return items;
}

/// 64-bit FNV-1a over raw bytes: the golden digests pin whole results
/// with it.
class Fnv1a {
 public:
  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
  }
  template <class T>
  void pod(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  void str(const std::string& s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace bpp::testutil
