#pragma once
// Kernel base class: the programmer-facing core of the block-parallel
// programming model (paper §II-B, Fig. 6 and Fig. 7).
//
// A kernel subclass declares its inputs, outputs, methods, and resource
// requirements in configure() — the C++ analogue of the paper's
// configureKernel(). Method bodies are ordinary member functions that use
// read_input()/write_output()/emit_token() while executing.
//
//   class Convolution : public Kernel {
//    public:
//     Convolution(std::string name, int w, int h);
//     void configure() override {
//       create_input("in", {w_, h_}, {1, 1}, {w_ / 2.0, h_ / 2.0});
//       create_output("out", {1, 1});
//       auto& run = register_method("run", {10 + 3 * w_ * h_, 0},
//                                   &Convolution::run_convolve);
//       method_input(run, "in");
//       method_output(run, "out");
//       ...
//     }
//   };

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/exec_context.h"
#include "core/firing.h"
#include "core/method.h"
#include "core/port.h"
#include "core/stream_info.h"

namespace bpp {

/// How a kernel may be parallelized (paper §IV).
enum class ParKind {
  DataParallel,  ///< replicate + round-robin split/join (§IV-A)
  Serial,        ///< never replicated (e.g. histogram merge)
  Custom,        ///< parallelized by a kernel-specific routine (§IV-C, buffers)
};

/// Stream description a source kernel seeds into the data-flow analysis.
struct SourceStreamSpec {
  Size2 frame{0, 0};      ///< logical frame extent in pixels
  Size2 granularity{1, 1};  ///< tile size per emitted item
  double rate_hz = 0.0;   ///< frames per second (0 = untimed, e.g. constants)
  bool pixel_space = true;  ///< participates in inset/alignment analysis
  int frames = 0;         ///< finite run length for execution (0 = emit once)
};

/// One pending emission from a source kernel, with its release time.
struct SourceEmission {
  int port = 0;
  Item item;
  double release_seconds = 0.0;  ///< earliest wall-clock availability
  long cycles = 0;               ///< production cost charged to the source
};

class Kernel {
 public:
  virtual ~Kernel() = default;

  Kernel(const Kernel&) = default;
  Kernel& operator=(const Kernel&) = delete;

  /// Declare ports and methods. Called exactly once when the kernel is
  /// added to a graph. Implementations must be deterministic.
  virtual void configure() = 0;

  /// Deep copy used by the parallelization pass when replicating kernels.
  [[nodiscard]] virtual std::unique_ptr<Kernel> clone() const = 0;

  /// Reset private state before an execution run (paper's init()).
  virtual void init() {}

  [[nodiscard]] virtual ParKind parallel_kind() const { return ParKind::DataParallel; }

  /// True for kernels that generate data spontaneously (application inputs,
  /// constant sources). Sources are driven by source_poll, not by firings.
  [[nodiscard]] virtual bool is_source() const { return false; }

  /// Stream specification for output `port` of a source kernel.
  [[nodiscard]] virtual std::optional<SourceStreamSpec> source_spec(int port) const {
    (void)port;
    return std::nullopt;
  }

  /// Produce the next emission of a source kernel. Returns false when the
  /// source is exhausted. Engines call this only for source kernels.
  virtual bool source_poll(SourceEmission& out) {
    (void)out;
    return false;
  }

  /// True for kernels that break cycles in the data-flow analysis
  /// (feedback support, paper §III-D).
  [[nodiscard]] virtual bool is_feedback() const { return false; }

  /// Stream produced by a feedback kernel, declared statically so the
  /// data-flow analysis can seed loop-carried streams (§III-D).
  [[nodiscard]] virtual std::optional<SourceStreamSpec> feedback_spec() const {
    return std::nullopt;
  }

  /// Items a kernel emits unconditionally at start-up, before any input —
  /// how initialization kernels prime feedback loops (§III-D).
  [[nodiscard]] virtual std::vector<Emission> initial_emissions() const {
    return {};
  }

  /// How many produced-but-undelivered items a kernel may hold before the
  /// engines stop firing it (models its output buffering). Plain kernels
  /// get one iteration's worth of slack; buffers override this with their
  /// double-buffer capacity so they keep absorbing while downstream is
  /// back-pressured (otherwise differently-haloed fan-out paths deadlock).
  [[nodiscard]] virtual long pending_capacity() const { return 8; }

  /// Single-input infrastructure kernels whose output stream does not
  /// follow the generic windowed-iteration rule (buffers re-granulate,
  /// inset/pad kernels change the frame extent) override this so the
  /// data-flow analysis propagates correctly through them.
  [[nodiscard]] virtual std::optional<StreamInfo> custom_output_stream(
      int out_port, const StreamInfo& in) const {
    (void)out_port;
    (void)in;
    return std::nullopt;
  }

  /// Graphviz node shape used by dot export (box for computation kernels,
  /// parallelogram for buffers, invhouse for insets, diamond for
  /// split/join — matching the paper's figures).
  [[nodiscard]] virtual std::string dot_shape() const {
    return is_source() ? "oval" : "box";
  }

  /// Kernels whose consumption pattern depends on internal state (the
  /// round-robin and run-length join FSMs, §IV-A) override this to decide
  /// firing themselves: fill `out`, the engine's reused decision (already
  /// reset to None with empty port lists, so assigning into it allocates
  /// nothing once warm), and return true; leaving it None means nothing
  /// fires. Return false to use the standard rules. `head` is a borrowed
  /// view of the engine's channel heads — valid only for the duration of
  /// this call, so it must not be stored. Never return false because an
  /// input looked empty: on the host a push may land before the standard
  /// rules read that input again.
  [[nodiscard]] virtual bool decide_custom(const std::vector<int>& connected,
                                           const HeadFn& head,
                                           FireDecision& out) const {
    (void)connected;
    (void)head;
    (void)out;
    return false;
  }

  /// Notification that the producer feeding input `input_idx` was
  /// replicated `factor` ways (used e.g. by histogram-merge to expect
  /// `factor` partial results per frame).
  virtual void on_upstream_parallelized(int input_idx, int factor) {
    (void)input_idx;
    (void)factor;
  }

  // ---- Introspection (used by the graph, compiler, and engines) ----

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  [[nodiscard]] const std::vector<InputPort>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<OutputPort>& outputs() const { return outputs_; }
  [[nodiscard]] const std::deque<MethodDef>& methods() const { return methods_; }

  [[nodiscard]] int input_index(const std::string& port_name) const;
  [[nodiscard]] int output_index(const std::string& port_name) const;
  [[nodiscard]] const InputPort& input(int i) const { return inputs_.at(static_cast<size_t>(i)); }
  [[nodiscard]] const OutputPort& output(int i) const { return outputs_.at(static_cast<size_t>(i)); }

  /// Mutable port specs, for compiler passes that retarget granularities.
  [[nodiscard]] PortSpec& input_spec(int i) { return inputs_.at(static_cast<size_t>(i)).spec; }
  [[nodiscard]] PortSpec& output_spec(int i) { return outputs_.at(static_cast<size_t>(i)).spec; }

  /// The data-triggered method fed by input `i`, or -1.
  [[nodiscard]] int data_method_of_input(int i) const;
  /// The token-triggered method for (input i, token class), or -1.
  [[nodiscard]] int token_method_of_input(int i, TokenClass cls) const;

  /// Total state memory across methods (words).
  [[nodiscard]] long state_memory() const;

  /// Runs configure() exactly once; called by Graph::add_kernel.
  void ensure_configured();
  [[nodiscard]] bool configured() const { return configured_; }

  /// Execute method `m` against context `ctx` (engine side).
  void invoke(int m, ExecContext& ctx);

  /// Set while a wired parameter input has not loaded (the parameter
  /// rule, firing.h): wire_kernel sets it, fire() clears it.
  [[nodiscard]] bool awaiting_parameter() const { return awaiting_parameter_; }
  void set_awaiting_parameter(bool awaiting) { awaiting_parameter_ = awaiting; }

 protected:
  explicit Kernel(std::string name) : name_(std::move(name)) {}

  // ---- Registration API (call from configure()) ----

  InputPort& create_input(const std::string& port_name, Size2 window,
                          Step2 step = {1, 1}, Offset2 offset = {});
  OutputPort& create_output(const std::string& port_name, Size2 window,
                            Step2 step = {0, 0});  // step defaults to window

  /// Mark an input as replicated under parallelization (Fig. 2 dashed edges).
  void set_replicated(const std::string& port_name, bool replicated = true);

  template <class K>
  MethodDef& register_method(const std::string& method_name, Resources res,
                             void (K::*fn)()) {
    return register_method_impl(method_name, res,
                                [fn](Kernel& k) { (static_cast<K&>(k).*fn)(); });
  }

  /// Bind input `port_name` as a trigger of `m`. With `cls` set the method
  /// fires on that control-token class instead of on data (Fig. 7).
  void method_input(MethodDef& m, const std::string& port_name,
                    std::optional<TokenClass> cls = std::nullopt);
  void method_output(MethodDef& m, const std::string& port_name);
  /// Declare that `m` may emit user token `cls` on `port_name` at most
  /// `max_per_frame` times per frame (§II-C). Emission beyond the bound is
  /// an ExecutionError — the static rate is a contract, not advice.
  void method_token_output(MethodDef& m, const std::string& port_name,
                           TokenClass cls, double max_per_frame);

  // ---- Runtime API (call from method bodies) ----

  /// The tile present on input `port_name` for this firing.
  [[nodiscard]] const Tile& read_input(const std::string& port_name) const;
  /// Write a tile to output `port_name`; the tile must match the port window.
  void write_output(const std::string& port_name, Tile t);
  /// Like write_output but with an explicit transfer charge in words (for
  /// reuse-optimized links, Fig. 9).
  void write_output_charged(const std::string& port_name, Tile t,
                            long charge_words);
  /// Emit a control token on output `port_name`.
  void emit_token(const std::string& port_name, TokenClass cls,
                  std::int64_t payload = 0);
  /// The same four by port index, for kernels that resolve their ports
  /// once in configure() rather than by name on every firing.
  [[nodiscard]] const Tile& read_input(int port) const;
  void write_output(int port, Tile t);
  void write_output_charged(int port, Tile t, long charge_words);
  void emit_token(int port, TokenClass cls, std::int64_t payload = 0);
  /// Move the tile bound to input `port` out, for a kernel that forwards
  /// it unchanged (split, join, inset): the engine owns the popped item
  /// and reads only tokens after the firing. Throws like read_input when
  /// no tile is bound; afterwards the input reads as an empty tile.
  [[nodiscard]] Tile take_input(int port);
  /// Mutable access to a registered method (e.g. to re-derive resource
  /// numbers after a compiler pass reshapes the kernel).
  [[nodiscard]] MethodDef& method_mut(const std::string& method_name);
  /// Token class that triggered this firing (-1 for data-triggered).
  [[nodiscard]] TokenClass trigger_token() const;
  [[nodiscard]] std::int64_t trigger_payload() const;
  /// Report this firing's actual (input-dependent) cycle count; the
  /// method's declared cycles act as the real-time bound (dynamic-resource
  /// extension from the paper's conclusions).
  void report_cycles(long cycles);

 private:
  MethodDef& register_method_impl(const std::string& method_name, Resources res,
                                  MethodBody body);
  void require_ctx(const char* what) const;
  /// Index of output `port_name`; throws for an unknown port.
  [[nodiscard]] int output_for(const char* what,
                               const std::string& port_name) const;
  void write_output_at(int o, Tile&& t, long charge_words);
  /// The tile bound to input `port`; throws when none is.
  [[nodiscard]] Tile& bound_tile(const char* what, int port) const;

  std::string name_;
  std::vector<InputPort> inputs_;
  std::vector<OutputPort> outputs_;
  std::deque<MethodDef> methods_;
  bool configured_ = false;
  bool awaiting_parameter_ = false;
  ExecContext* ctx_ = nullptr;  // valid only during invoke()
};

}  // namespace bpp
