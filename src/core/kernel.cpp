#include "core/kernel.h"

#include <algorithm>

namespace bpp {

int Kernel::input_index(const std::string& port_name) const {
  for (size_t i = 0; i < inputs_.size(); ++i)
    if (inputs_[i].spec.name == port_name) return static_cast<int>(i);
  return -1;
}

int Kernel::output_index(const std::string& port_name) const {
  for (size_t i = 0; i < outputs_.size(); ++i)
    if (outputs_[i].spec.name == port_name) return static_cast<int>(i);
  return -1;
}

int Kernel::data_method_of_input(int i) const {
  for (size_t m = 0; m < methods_.size(); ++m) {
    const MethodDef& def = methods_[m];
    if (def.token_triggered()) continue;
    if (std::find(def.inputs.begin(), def.inputs.end(), i) != def.inputs.end())
      return static_cast<int>(m);
  }
  return -1;
}

int Kernel::token_method_of_input(int i, TokenClass cls) const {
  for (size_t m = 0; m < methods_.size(); ++m) {
    const MethodDef& def = methods_[m];
    if (!def.token_triggered() || *def.trigger_token != cls) continue;
    if (std::find(def.inputs.begin(), def.inputs.end(), i) != def.inputs.end())
      return static_cast<int>(m);
  }
  return -1;
}

long Kernel::state_memory() const {
  long total = 0;
  for (const MethodDef& m : methods_) total += m.res.memory_words;
  return total;
}

void Kernel::ensure_configured() {
  if (configured_) return;
  configure();
  configured_ = true;
}

void Kernel::invoke(int m, ExecContext& ctx) {
  if (m < 0 || m >= static_cast<int>(methods_.size()))
    throw ExecutionError(name_ + ": invoking unknown method index " + std::to_string(m));
  if (!ctx.output_bound())
    throw ExecutionError(name_ + ": invoked without an output queue");
  ctx_ = &ctx;
  try {
    methods_[static_cast<size_t>(m)].body(*this);
  } catch (...) {
    ctx_ = nullptr;
    throw;
  }
  ctx_ = nullptr;
}

InputPort& Kernel::create_input(const std::string& port_name, Size2 window,
                                Step2 step, Offset2 offset) {
  if (input_index(port_name) >= 0)
    throw GraphError(name_ + ": duplicate input port '" + port_name + "'");
  if (!window.positive() || !step.positive())
    throw GraphError(name_ + ": input '" + port_name + "' has non-positive window/step");
  inputs_.push_back({PortSpec{port_name, window, step, offset, false}});
  return inputs_.back();
}

OutputPort& Kernel::create_output(const std::string& port_name, Size2 window,
                                  Step2 step) {
  if (output_index(port_name) >= 0)
    throw GraphError(name_ + ": duplicate output port '" + port_name + "'");
  if (step.x == 0 && step.y == 0) step = {window.w, window.h};
  if (!window.positive() || !step.positive())
    throw GraphError(name_ + ": output '" + port_name + "' has non-positive window/step");
  outputs_.push_back({PortSpec{port_name, window, step, Offset2{}, false}});
  return outputs_.back();
}

void Kernel::set_replicated(const std::string& port_name, bool replicated) {
  int i = input_index(port_name);
  if (i < 0) throw GraphError(name_ + ": no input '" + port_name + "' to replicate");
  inputs_[static_cast<size_t>(i)].spec.replicated = replicated;
}

MethodDef& Kernel::register_method_impl(const std::string& method_name,
                                        Resources res, MethodBody body) {
  for (const MethodDef& m : methods_)
    if (m.name == method_name)
      throw GraphError(name_ + ": duplicate method '" + method_name + "'");
  methods_.push_back(
      MethodDef{method_name, res, {}, std::nullopt, {}, {}, std::move(body)});
  return methods_.back();
}

void Kernel::method_input(MethodDef& m, const std::string& port_name,
                          std::optional<TokenClass> cls) {
  int i = input_index(port_name);
  if (i < 0)
    throw GraphError(name_ + ": method '" + m.name + "' references unknown input '" +
                     port_name + "'");
  if (cls && !m.inputs.empty() && !m.token_triggered())
    throw GraphError(name_ + ": method '" + m.name +
                     "' mixes data- and token-triggered inputs");
  if (cls) m.trigger_token = *cls;
  if (!m.token_triggered()) {
    // An input may drive at most one data-triggered method (§II-B: methods
    // trigger on *disjoint* input sets).
    int existing = data_method_of_input(i);
    if (existing >= 0 && &methods_[static_cast<size_t>(existing)] != &m)
      throw GraphError(name_ + ": input '" + port_name +
                       "' already triggers data method '" +
                       methods_[static_cast<size_t>(existing)].name + "'");
  }
  if (std::find(m.inputs.begin(), m.inputs.end(), i) == m.inputs.end())
    m.inputs.push_back(i);
}

void Kernel::method_output(MethodDef& m, const std::string& port_name) {
  int o = output_index(port_name);
  if (o < 0)
    throw GraphError(name_ + ": method '" + m.name + "' references unknown output '" +
                     port_name + "'");
  if (std::find(m.outputs.begin(), m.outputs.end(), o) == m.outputs.end())
    m.outputs.push_back(o);
}

void Kernel::method_token_output(MethodDef& m, const std::string& port_name,
                                 TokenClass cls, double max_per_frame) {
  int o = output_index(port_name);
  if (o < 0)
    throw GraphError(name_ + ": method '" + m.name + "' references unknown output '" +
                     port_name + "'");
  if (cls < tok::kFirstUser)
    throw GraphError(name_ + ": token class " + std::to_string(cls) +
                     " is reserved for the framework");
  if (max_per_frame <= 0.0)
    throw GraphError(name_ + ": user tokens need a positive max rate (§II-C)");
  m.token_outputs.push_back(TokenEmission{o, cls, max_per_frame});
}

MethodDef& Kernel::method_mut(const std::string& method_name) {
  for (MethodDef& m : methods_)
    if (m.name == method_name) return m;
  throw GraphError(name_ + ": no method '" + method_name + "'");
}

void Kernel::require_ctx(const char* what) const {
  if (!ctx_)
    throw ExecutionError(name_ + ": " + what + " outside method execution");
}

int Kernel::output_for(const char* what, const std::string& port_name) const {
  require_ctx(what);
  const int o = output_index(port_name);
  if (o < 0)
    throw ExecutionError(name_ + ": " + what + " to unknown port '" +
                         port_name + "'");
  return o;
}

const Tile& Kernel::read_input(const std::string& port_name) const {
  require_ctx("read_input");
  const int i = input_index(port_name);
  if (i < 0) throw ExecutionError(name_ + ": read_input of unknown port '" + port_name + "'");
  return read_input(i);
}

Tile& Kernel::bound_tile(const char* what, int port) const {
  require_ctx(what);
  Item* it = ctx_->input(port);
  if (!it || !is_data(*it))
    throw ExecutionError(name_ + ": no data bound to input '" +
                         inputs_.at(static_cast<size_t>(port)).spec.name +
                         "' for this firing");
  return std::get<Tile>(*it);
}

const Tile& Kernel::read_input(int port) const {
  return bound_tile("read_input", port);
}

Tile Kernel::take_input(int port) {
  return std::move(bound_tile("take_input", port));
}


void Kernel::write_output(const std::string& port_name, Tile t) {
  write_output_at(output_for("write_output", port_name), std::move(t), -1);
}

void Kernel::write_output_charged(const std::string& port_name, Tile t,
                                  long charge_words) {
  write_output_at(output_for("write_output", port_name), std::move(t),
                  charge_words);
}

void Kernel::write_output(int port, Tile t) {
  require_ctx("write_output");
  write_output_at(port, std::move(t), -1);
}

void Kernel::write_output_charged(int port, Tile t, long charge_words) {
  require_ctx("write_output");
  write_output_at(port, std::move(t), charge_words);
}

void Kernel::write_output_at(int o, Tile&& t, long charge_words) {
  const PortSpec& spec = outputs_.at(static_cast<size_t>(o)).spec;
  if (t.size() != spec.window)
    throw ExecutionError(name_ + ": output '" + spec.name + "' expects " +
                         to_string(spec.window) + " tile, got " + to_string(t.size()));
  ctx_->emit(o, std::move(t), charge_words);
}

void Kernel::emit_token(const std::string& port_name, TokenClass cls,
                        std::int64_t payload) {
  emit_token(output_for("emit_token", port_name), cls, payload);
}

void Kernel::emit_token(int port, TokenClass cls, std::int64_t payload) {
  require_ctx("emit_token");
  if (cls >= tok::kFirstUser) {
    // User tokens must have been declared with a rate bound (§II-C).
    bool declared = false;
    for (const MethodDef& m : methods_)
      for (const TokenEmission& te : m.token_outputs)
        declared = declared || (te.port == port && te.cls == cls);
    if (!declared)
      throw ExecutionError(name_ + ": user token " + token_class_name(cls) +
                           " emitted on '" +
                           outputs_.at(static_cast<size_t>(port)).spec.name +
                           "' without a declared rate (§II-C)");
  }
  ctx_->emit(port, ControlToken{cls, payload});
}

void Kernel::report_cycles(long cycles) {
  if (!ctx_) throw ExecutionError(name_ + ": report_cycles outside method execution");
  if (cycles < 0) throw ExecutionError(name_ + ": negative cycle report");
  ctx_->report_dynamic_cycles(cycles);
}

TokenClass Kernel::trigger_token() const {
  if (!ctx_) throw ExecutionError(name_ + ": trigger_token outside method execution");
  return ctx_->trigger_token();
}

std::int64_t Kernel::trigger_payload() const {
  if (!ctx_) throw ExecutionError(name_ + ": trigger_payload outside method execution");
  return ctx_->trigger_payload();
}

}  // namespace bpp
