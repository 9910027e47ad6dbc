#include "core/firing.h"

#include <algorithm>
#include <span>

#include "core/graph.h"
#include "core/kernel.h"

namespace bpp {

namespace {

/// True when every port in `ports` is connected and has a head item
/// satisfying `pred`.
template <class Pred>
bool all_heads(const std::vector<int>& ports, const std::vector<int>& connected,
               const HeadFn& head, Pred pred) {
  if (ports.empty()) return false;
  for (int p : ports) {
    if (std::find(connected.begin(), connected.end(), p) == connected.end())
      return false;
    const Item* it = head(p);
    if (!it || !pred(*it)) return false;
  }
  return true;
}

/// True for a method that reads parameter (replicated) inputs alone.
bool loads_parameter(const Kernel& k, const MethodDef& def) {
  return !def.inputs.empty() &&
         std::ranges::all_of(def.inputs, [&](int p) {
           return k.input(p).spec.replicated;
         });
}

}  // namespace

void decide_fire_into(const Kernel& k, const std::vector<int>& connected,
                      const HeadFn& head, FireDecision& out) {
  out.kind = FireDecision::Kind::None;
  out.method = -1;
  out.token = -1;
  out.payload = 0;
  out.pop_inputs.clear();
  out.forward_outputs.clear();

  // The parameter rule: while it is pending, try only its load methods.
  const bool awaiting = k.awaiting_parameter();
  if (!awaiting && k.decide_custom(connected, head, out)) return;

  // 1. Method triggers, in registration order.
  const auto& methods = k.methods();
  for (size_t m = 0; m < methods.size(); ++m) {
    const MethodDef& def = methods[m];
    if (def.inputs.empty() || (awaiting && !loads_parameter(k, def))) continue;
    bool ready;
    if (def.token_triggered()) {
      ready = all_heads(def.inputs, connected, head, [&](const Item& it) {
        return is_token(it) && as_token(it).cls == *def.trigger_token;
      });
    } else {
      ready = all_heads(def.inputs, connected, head,
                        [](const Item& it) { return is_data(it); });
    }
    if (ready) {
      out.kind = FireDecision::Kind::Method;
      out.method = static_cast<int>(m);
      out.pop_inputs = def.inputs;
      if (def.token_triggered()) {
        out.token = *def.trigger_token;
        out.payload = as_token(*head(def.inputs.front())).payload;
      }
      return;
    }
  }
  if (awaiting) return;

  // 2. Automatic forwarding of unhandled tokens, grouped by the data method
  //    each input feeds (§II-C). Inputs feeding no data method form
  //    singleton groups whose tokens are dropped. Groups are spans over the
  //    kernel's own method tables, so no decision allocates.
  auto try_group = [&](std::span<const int> group,
                       std::span<const int> outs) -> bool {
    const Item* first = nullptr;
    for (int p : group) {
      if (std::find(connected.begin(), connected.end(), p) == connected.end())
        return false;
      const Item* it = head(p);
      if (!it || !is_token(*it)) return false;
      if (!first) {
        first = it;
      } else if (as_token(*it).cls != as_token(*first).cls) {
        return false;
      }
    }
    if (!first) return false;
    const TokenClass cls = as_token(*first).cls;
    // A registered handler takes precedence; it simply was not ready yet
    // (e.g. waits on further inputs), so do not forward past it.
    for (int p : group)
      if (k.token_method_of_input(p, cls) >= 0) return false;
    out.kind = FireDecision::Kind::Forward;
    out.token = cls;
    out.payload = as_token(*first).payload;
    out.pop_inputs.assign(group.begin(), group.end());
    out.forward_outputs.assign(outs.begin(), outs.end());
    return true;
  };

  auto feeds_data_method = [&](int p) {
    return std::any_of(methods.begin(), methods.end(),
                       [&](const MethodDef& def) {
                         return !def.token_triggered() &&
                                std::find(def.inputs.begin(), def.inputs.end(),
                                          p) != def.inputs.end();
                       });
  };
  for (const MethodDef& def : methods) {
    if (def.token_triggered() || def.inputs.empty()) continue;
    if (try_group(def.inputs, def.outputs)) return;
  }
  for (int p = 0; p < static_cast<int>(k.inputs().size()); ++p) {
    if (feeds_data_method(p)) continue;
    if (try_group(std::span<const int>(&p, 1), {})) return;
  }
}

KernelPorts wire_kernel(Graph& g, KernelId k) {
  Kernel& kn = g.kernel(k);
  KernelPorts p;
  p.in_channel.assign(kn.inputs().size(), -1);
  for (size_t i = 0; i < kn.inputs().size(); ++i)
    if (auto c = g.in_channel(k, static_cast<int>(i))) {
      p.in_channel[i] = *c;
      p.connected.push_back(static_cast<int>(i));
    }
  p.out_channels.resize(kn.outputs().size());
  for (size_t o = 0; o < kn.outputs().size(); ++o)
    p.out_channels[o] = g.out_channels(k, static_cast<int>(o));
  p.outs = g.out_channels(k);
  p.is_sink = !kn.is_source() && p.outs.empty();
  kn.init();
  kn.set_awaiting_parameter(
      std::ranges::any_of(kn.methods(), [&](const MethodDef& def) {
        return loads_parameter(kn, def) &&
               std::ranges::all_of(def.inputs, [&](int i) {
                 return p.in_channel[static_cast<size_t>(i)] >= 0;
               });
      }));
  for (Emission& e : kn.initial_emissions()) p.pending.push_back(std::move(e));
  return p;
}

long fire(Kernel& k, const FireDecision& d, std::vector<Item>& popped,
          ExecContext& ctx, Fifo<Emission>& pending) {
  ctx.reset();
  ctx.bind_output(pending);
  for (size_t i = 0; i < d.pop_inputs.size(); ++i)
    ctx.bind_input(d.pop_inputs[i], &popped[i]);
  long run_cycles = 2;
  if (d.kind == FireDecision::Kind::Method) {
    const MethodDef& def = k.methods()[static_cast<size_t>(d.method)];
    if (d.token >= 0) ctx.set_trigger_token(d.token, d.payload);
    k.invoke(d.method, ctx);
    if (k.awaiting_parameter() && loads_parameter(k, def))
      k.set_awaiting_parameter(false);
    run_cycles = def.res.cycles;
  } else {
    for (int o : d.forward_outputs)
      ctx.emit(o, ControlToken{d.token, d.payload});
  }
  return run_cycles;
}

FireDecision decide_fire(const Kernel& k, const std::vector<int>& connected,
                         const HeadFn& head) {
  FireDecision d;
  decide_fire_into(k, connected, head, d);
  return d;
}

}  // namespace bpp
