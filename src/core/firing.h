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
//    copy is forwarded (the subtract-kernel rule).
//
// Kernels with data-dependent consumption (round-robin joins) override
// Kernel::decide_custom instead.

#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/token.h"

namespace bpp {

class Kernel;

/// Non-owning view of the head items of a kernel's input channels:
/// `head(port)` returns the item at the head of input `port`'s FIFO, or
/// nullptr when it is empty (or the port is unconnected).
///
/// This is a function_ref, not a std::function: decide_fire runs on every
/// scheduling step of both engines, and the erased callable it receives is
/// always a short-lived lambda over the engine's channel state (a lock-free
/// ring peek in the host runtime, a deque front in the simulator), so the
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
/// every path of the rules above (not-ready, method and forward alike). A
/// Kernel::decide_custom override allocates only if it does so itself.
void decide_fire_into(const Kernel& k, const std::vector<int>& connected,
                      const HeadFn& head, FireDecision& out);

}  // namespace bpp
