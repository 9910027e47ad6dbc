#pragma once
// Firing rules shared by the simulator and the host runtime.
//
// Given the items at the head of each input FIFO of a kernel, decide what
// happens next (paper §II-B/§II-C):
//  * a data-triggered method fires when every one of its inputs has a data
//    tile at its head;
//  * a token-triggered method fires when every one of its inputs has the
//    registered token class at its head;
//  * a control token no method handles is forwarded, in order, to the
//    outputs of the data method fed by that input — and when several inputs
//    feed one method, the same token class must head all of them before one
//    copy is forwarded (the subtract-kernel rule);
//  * the parameter rule: until a replicated (parameter) input has loaded
//    (Kernel::awaiting_parameter), only a method reading parameter inputs
//    alone may fire, and no other input is read.
//
// Kernels with data-dependent consumption (round-robin joins) override
// Kernel::decide_custom instead.
//
// Also the firing step around the decision that both engines share
// (DESIGN.md §4.6): port wiring, invoke-or-forward, the pending-emission
// drain, and sink/source frame bookkeeping. Each engine keeps only its
// clock, its channel storage and its timing or threading policy.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/exec_context.h"
#include "core/fifo.h"
#include "core/token.h"

namespace bpp {

class Graph;
class Kernel;
using KernelId = int;   // as in core/graph.h
using ChannelId = int;  // as in core/graph.h

/// Non-owning view of the head items of a kernel's input channels:
/// `head(port)` returns the item at the head of input `port`'s FIFO, or
/// nullptr when it is empty (or the port is unconnected).
///
/// This is a function_ref, not a std::function: decide_fire runs on every
/// scheduling step of both engines, and the erased callable it receives is
/// always a short-lived lambda over the engine's channel state (a lock-free
/// ring peek in the host runtime, a Fifo front in the simulator), so the
/// view must not allocate or own. The referenced callable only needs to
/// outlive the decide_fire/decide_custom call it is passed to.
class HeadFn {
 public:
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::remove_cv_t<std::remove_reference_t<F>>,
                                HeadFn> &&
                std::is_invocable_r_v<const Item*, const F&, int>>>
  HeadFn(const F& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(&f), call_([](const void* o, int port) -> const Item* {
          return (*static_cast<const F*>(o))(port);
        }) {}

  const Item* operator()(int port) const { return call_(obj_, port); }

 private:
  const void* obj_;
  const Item* (*call_)(const void*, int);
};

struct FireDecision {
  enum class Kind {
    None,     ///< nothing can fire now
    Method,   ///< run method `method` on the popped inputs
    Forward,  ///< pop a token from each input and forward one copy
  };

  Kind kind = Kind::None;
  int method = -1;
  TokenClass token = -1;  ///< trigger/forwarded token class
  std::int64_t payload = 0;
  std::vector<int> pop_inputs;       ///< input ports to pop
  std::vector<int> forward_outputs;  ///< outputs receiving the forwarded token

  [[nodiscard]] bool fires() const { return kind != Kind::None; }
};

/// Compute the next action for `k` given its input heads. `connected`
/// lists the input-port indices that have a live channel; unconnected
/// inputs are ignored (they can never trigger).
[[nodiscard]] FireDecision decide_fire(const Kernel& k,
                                       const std::vector<int>& connected,
                                       const HeadFn& head);

/// Allocation-free variant for engine hot loops: overwrites `out`
/// (clearing, not shrinking, its vectors), so a decision object reused
/// across firings stops heap-allocating once its capacity warms up, on
/// every path of the rules above (not-ready, method and forward alike) and
/// of a Kernel::decide_custom override, which fills `out` in place.
void decide_fire_into(const Kernel& k, const std::vector<int>& connected,
                      const HeadFn& head, FireDecision& out);

/// One kernel's channel wiring for an engine run. The ids index the
/// engine's own channel storage.
struct KernelPorts {
  std::vector<int> connected;         ///< input ports with a live channel
  std::vector<ChannelId> in_channel;  ///< per input port; -1 if unconnected
  std::vector<std::vector<ChannelId>> out_channels;  ///< per output port
  std::vector<ChannelId> outs;  ///< every output channel, flattened
  bool is_sink = false;         ///< a non-source kernel with no outputs
  Fifo<Emission> pending;  ///< emissions not yet on a channel
};

/// Wire kernel `k` of `g`, reset it (init()) and stage its initial
/// emissions on `pending`. The kernel awaits its parameter when a method
/// that reads parameter inputs alone has all of them connected.
[[nodiscard]] KernelPorts wire_kernel(Graph& g, KernelId k);

/// Fire `k` on decision `d` (Method or Forward): bind `popped`, the items
/// popped from d.pop_inputs in that order, and `pending`, then run the
/// decided method with its trigger token or forward the token; each
/// emission lands on `pending` directly. The method may move tiles out of
/// `popped` (Kernel::take_input); its tokens stay. Returns the method's
/// declared run cycles, or 2 for a forward (the token-forwarding FSM
/// step). `ctx` keeps the firing's dynamic-cycle report. A parameter-load
/// method ends the kernel's parameter wait.
long fire(Kernel& k, const FireDecision& d, std::vector<Item>& popped,
          ExecContext& ctx, Fifo<Emission>& pending);

/// Move `p.pending` onto its channels, in order, while every channel of the
/// head emission's port has room: `has_space(outs)` checks a port's
/// channels, `push(outs, emission)` pushes to them. Returns true when
/// nothing is left pending. A template, not a std::function: it runs on
/// every hot path of both engines.
template <class HasSpace, class Push>
bool drain_pending(KernelPorts& p, HasSpace&& has_space, Push&& push) {
  while (!p.pending.empty()) {
    Emission& e = p.pending.front();
    const auto& outs = p.out_channels[static_cast<std::size_t>(e.port)];
    if (!has_space(outs)) return false;
    push(outs, e);
    p.pending.pop_front();
  }
  return true;
}

/// The control tokens a sink consumed in one firing (the firing may have
/// moved its tiles out, never its tokens): calls
/// `on_frame_end(payload)` for each end-of-frame token in `popped` (the
/// payload is the frame index) and returns the number of end-of-stream
/// tokens.
template <class OnFrameEnd>
int scan_sink_tokens(const std::vector<Item>& popped,
                     OnFrameEnd&& on_frame_end) {
  int eos = 0;
  for (const Item& it : popped) {
    if (!is_token(it)) continue;
    const ControlToken& t = as_token(it);
    if (t.cls == tok::kEndOfFrame) on_frame_end(t.payload);
    if (t.cls == tok::kEndOfStream) ++eos;
  }
  return eos;
}

/// A source's frame cursor: whether its next data item opens a frame, and
/// that frame's index.
struct FrameCursor {
  bool at_start = true;
  std::int32_t index = 0;

  /// Step past `item`, released or shed. Returns true when it opens frame
  /// `index`; an end-of-frame token moves on to the next frame.
  bool step(const Item& item) {
    if (is_data(item)) return std::exchange(at_start, false);
    if (as_token(item).cls == tok::kEndOfFrame) {
      ++index;
      at_start = true;
    }
    return false;
  }
};

}  // namespace bpp
