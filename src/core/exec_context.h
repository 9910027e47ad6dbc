#pragma once
// Execution context: the engine<->kernel interface for one method firing.
//
// Both the timing-accurate simulator (src/sim) and the threaded host
// runtime (src/runtime) drive kernels through this structure: they bind
// the triggering items and the kernel's pending-emission queue here, then
// invoke the method. Each emission is appended straight onto that queue;
// the engine drains it to channels as space allows, which is what models
// output back-pressure (Fig. 9(b)).

#include <utility>
#include <vector>

#include "core/fifo.h"
#include "core/token.h"

namespace bpp {

struct Emission {
  int port = -1;  ///< output-port index on the emitting kernel
  Item item;
  /// Words actually transferred for this item; -1 means the full item.
  /// Reuse-optimized buffer links (Fig. 9) emit whole windows but only
  /// transfer the columns the consumer has not already seen.
  long charge_words = -1;
};

class ExecContext {
 public:
  /// Engine side: bind the item consumed from input port `port`. The
  /// engine owns it; a forwarding kernel may move its tile out
  /// (Kernel::take_input), so after the firing only its tokens are read.
  void bind_input(int port, Item* item) {
    if (port >= static_cast<int>(inputs_.size())) inputs_.resize(port + 1, nullptr);
    inputs_[static_cast<size_t>(port)] = item;
  }

  /// Engine side: the queue this context's emissions append to (the
  /// kernel's pending emissions). It stays bound across reset().
  void bind_output(Fifo<Emission>& out) { out_ = &out; }
  [[nodiscard]] bool output_bound() const { return out_ != nullptr; }

  /// Engine side: the token class that triggered a token method, or -1.
  void set_trigger_token(TokenClass cls, std::int64_t payload = 0) {
    trigger_token_ = cls;
    trigger_payload_ = payload;
  }

  [[nodiscard]] Item* input(int port) const {
    if (port < 0 || port >= static_cast<int>(inputs_.size())) return nullptr;
    return inputs_[static_cast<size_t>(port)];
  }

  [[nodiscard]] TokenClass trigger_token() const { return trigger_token_; }
  [[nodiscard]] std::int64_t trigger_payload() const { return trigger_payload_; }

  /// Append an emission to the bound queue, filling its slot in place.
  void emit(int port, Tile&& t, long charge_words = -1) {
    Emission& e = out_->emplace_back();
    e.port = port;
    e.item = std::move(t);
    e.charge_words = charge_words;
  }
  void emit(int port, ControlToken t) {
    Emission& e = out_->emplace_back();
    e.port = port;
    e.item = t;
    e.charge_words = -1;
  }

  /// Dynamic-resource extension (the paper's conclusion): a method with
  /// input-dependent work reports its actual cycles here; the declared
  /// Resources::cycles become its *bound*. The simulator times the firing
  /// with the reported value and raises a runtime resource exception when
  /// the bound is exceeded.
  void report_dynamic_cycles(long cycles) { dynamic_cycles_ = cycles; }
  [[nodiscard]] long dynamic_cycles() const { return dynamic_cycles_; }
  [[nodiscard]] bool has_dynamic_cycles() const { return dynamic_cycles_ >= 0; }

  void reset() {
    inputs_.clear();
    trigger_token_ = -1;
    trigger_payload_ = 0;
    dynamic_cycles_ = -1;
  }

 private:
  std::vector<Item*> inputs_;
  Fifo<Emission>* out_ = nullptr;
  TokenClass trigger_token_ = -1;
  std::int64_t trigger_payload_ = 0;
  long dynamic_cycles_ = -1;
};

}  // namespace bpp
