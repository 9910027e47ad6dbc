#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <sstream>
#include <string>

#include "core/error.h"
#include "core/firing.h"
#include "fault/injector.h"
#include "obs/deadline.h"
#include "obs/recorder.h"

namespace bpp {

double SimResult::avg_utilization(const MachineSpec& m) const {
  if (sim_seconds <= 0.0) return 0.0;
  const double capacity = m.clock_hz * sim_seconds;
  double sum = 0.0;
  int n = 0;
  for (const CoreStats& c : cores) {
    if (c.source_only) continue;
    sum += c.busy_cycles() / capacity;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

CoreStats SimResult::totals() const {
  CoreStats t;
  t.source_only = false;
  for (const CoreStats& c : cores) {
    if (c.source_only) continue;
    t.run_cycles += c.run_cycles;
    t.read_cycles += c.read_cycles;
    t.write_cycles += c.write_cycles;
    t.switch_cycles += c.switch_cycles;
    t.firings += c.firings;
  }
  return t;
}

namespace {

/// Instants closer than this are one instant.
constexpr double kInstant = 1e-15;
/// Abort after this many simulated firings (runaway guard).
constexpr long kMaxFirings = 500'000'000;

struct TimedItem {
  Item item;
  double avail = 0.0;
  long charge = 0;  ///< words transferred (reuse links charge less)
};

struct ChannelState {
  Fifo<TimedItem> q;
  KernelId producer = -1;  ///< readied when a pop frees space
  KernelId consumer = -1;  ///< readied when a pushed item becomes visible
};

struct KernelState {
  KernelPorts ports;
  int sink_index = -1;  ///< into SimResult::sink_frame_times
  int core = -1;        ///< -1 for sources, which are retried every pass
  /// The kernel's next attempt may act: it has never been attempted, or
  /// it has pending output or a visible item at an input's head. A failed
  /// attempt has no side effects, so a kernel that is not ready would
  /// fail and is skipped; whatever turns visible later readies it again.
  bool ready = false;
};

struct SourceState {
  KernelId id = -1;
  bool exhausted = false;
  bool have_next = false;
  SourceEmission next;
  FrameCursor frame;
  /// Items released so far (the injector's firing index for sources).
  std::int64_t released = 0;
  /// Release time of this source's entry in the wake heap (NaN if none).
  double queued_release = std::numeric_limits<double>::quiet_NaN();
};

struct CoreState {
  std::vector<KernelId> kernels;  // non-source kernels mapped here
  double busy_until = 0.0;
  size_t rr = 0;
  int ready_kernels = 0;
  /// Channels written by the action in flight; their consumers are readied
  /// when the action completes and the items become visible.
  std::vector<ChannelId> pushed;
};

/// A wake-heap entry: the instant something becomes possible, and what.
struct Wake {
  enum class Kind : std::uint8_t {
    kStart,     ///< time 0
    kCore,      ///< core `id` finishes its action
    kSource,    ///< source `id` releases its next item
    kDelivery,  ///< delivery-delayed items of kernel `id` become visible
  };
  double t = 0.0;
  Kind kind = Kind::kStart;
  int id = -1;

  bool operator>(const Wake& o) const { return t > o.t; }
};

class Sim {
 public:
  Sim(Graph& g, const Mapping& mapping, const SimOptions& opt)
      : g_(g), opt_(opt) {
    const int n = g.kernel_count();
    channels_.resize(static_cast<size_t>(g.channel_count()));
    for (ChannelId c = 0; c < g.channel_count(); ++c) {
      channels_[static_cast<size_t>(c)].producer = g.channel(c).src_kernel;
      channels_[static_cast<size_t>(c)].consumer = g.channel(c).dst_kernel;
    }
    kstate_.resize(static_cast<size_t>(n));
    core_of_ = mapping.core_of;
    cores_.resize(static_cast<size_t>(mapping.cores));
    res_.cores.resize(static_cast<size_t>(mapping.cores));
    const size_t words = (cores_.size() + 63) / 64;
    ready_cores_.assign(words, 0);
    idle_cores_.assign(words, 0);
    for (size_t c = 0; c < cores_.size(); ++c) set_bit(idle_cores_, c);

    for (KernelId k = 0; k < n; ++k) {
      Kernel& kn = g.kernel(k);
      KernelState& st = kstate_[static_cast<size_t>(k)];
      st.ports = wire_kernel(g, k);
      if (kn.is_source()) {
        SourceState ss;
        ss.id = k;
        sources_.push_back(ss);
        auto spec = kn.source_spec(0);
        if (spec && spec->rate_hz > 0.0)
          res_.input_span_seconds = std::max(
              res_.input_span_seconds, spec->frames / spec->rate_hz);
      } else {
        const int core = core_of_[static_cast<size_t>(k)];
        cores_[static_cast<size_t>(core)].kernels.push_back(k);
        res_.cores[static_cast<size_t>(core)].source_only = false;
        st.core = core;
        make_ready(k);  // never attempted yet
      }
      if (st.ports.is_sink) {
        st.sink_index = static_cast<int>(res_.sink_frame_times.size());
        res_.sink_frame_times.emplace_back(k, std::vector<double>{});
      }
    }
    res_.kernel_activity.assign(static_cast<size_t>(n), {0L, 0.0});

    if (opt.recorder) {
      rec_ = opt.recorder;
      std::vector<std::string> names;
      names.reserve(static_cast<size_t>(n));
      for (KernelId k = 0; k < n; ++k) names.push_back(g.kernel(k).name());
      rec_->begin_session(obs::TraceClock::kModeled, opt.machine.clock_hz,
                          mapping.cores, std::move(names));
      // The simulator is single-threaded: everything goes through ring 0,
      // which also keeps events chronological without sorting.
      ring_ = mapping.cores > 0 ? rec_->ring(0) : nullptr;
      if (ring_) chan_hw_.assign(channels_.size(), 0);
    }

    // Fault injection: copy + re-bind so the caller's injector can be
    // reused across runs of different graphs.
    if (opt.injector != nullptr) {
      inj_ = *opt.injector;
      inj_.bind(g, core_of_);
      faults_ = inj_.active();
    }
  }

  /// Event-driven: each wake instant settles in passes until nothing acts.
  /// A pass first releases due source items, then gives one action to each
  /// idle core holding a ready kernel, in ascending core order. That is the
  /// order a sweep over every core would act in, minus the attempts that
  /// could only fail (DESIGN.md "Simulator scheduling").
  SimResult run() {
    for (SourceState& s : sources_) advance_source(s);

    wake_.push(Wake{});
    double now = 0.0;

    while (!wake_.empty()) {
      now = wake_.top().t;
      while (!wake_.empty() && wake_.top().t <= now + kInstant) {
        const Wake w = wake_.top();
        wake_.pop();
        on_wake(w, now);
      }

      // Keep the recorder's ring drained so sessions longer than its
      // capacity keep every event (single-threaded: we are both the
      // producer and the collector).
      if (ring_) rec_->poll();

      bool acted = true;
      while (acted) {
        acted = false;
        // Application inputs release on their schedule; a blocked release
        // is retried and its lag recorded (the camera cannot wait).
        for (size_t i = 0; i < sources_.size(); ++i) {
          SourceState& s = sources_[i];
          while (s.have_next && s.next.release_seconds <= now + kInstant) {
            if (!push_source(s, now)) break;
            acted = true;
          }
          if (s.have_next && s.next.release_seconds > now &&
              s.queued_release != s.next.release_seconds) {
            s.queued_release = s.next.release_seconds;
            wake_.push(Wake{s.queued_release, Wake::Kind::kSource,
                            static_cast<int>(i)});
          }
        }
        // A core readied by a lower core's action acts later in this pass;
        // one readied by a higher core's action, in the next pass.
        for (int c = next_due(0); c >= 0; c = next_due(c + 1)) {
          const double dur = core_action(c, now);
          if (dur > 0.0) {
            CoreState& core = cores_[static_cast<size_t>(c)];
            core.busy_until = now + dur;
            wake_.push(Wake{core.busy_until, Wake::Kind::kCore, c});
            if (core.busy_until > now + kInstant)
              clear_bit(idle_cores_, static_cast<size_t>(c));
            acted = true;
          }
        }
        if (res_.total_firings > kMaxFirings) {
          res_.diagnostics = "aborted: firing limit exceeded";
          finish(now);
          return std::move(res_);
        }
      }
    }
    finish(now);
    return std::move(res_);
  }

 private:
  static void set_bit(std::vector<std::uint64_t>& bits, size_t i) {
    bits[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  static void clear_bit(std::vector<std::uint64_t>& bits, size_t i) {
    bits[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Lowest idle core >= `from` holding a ready kernel, or -1.
  [[nodiscard]] int next_due(int from) const {
    const auto first = static_cast<size_t>(from) >> 6;
    for (size_t w = first; w < ready_cores_.size(); ++w) {
      std::uint64_t bits = ready_cores_[w] & idle_cores_[w];
      if (w == first) bits &= ~std::uint64_t{0} << (from & 63);
      if (bits != 0) return static_cast<int>(w * 64) + std::countr_zero(bits);
    }
    return -1;
  }

  void make_ready(KernelId k) {
    KernelState& st = kstate_[static_cast<size_t>(k)];
    if (st.ready || st.core < 0) return;
    st.ready = true;
    if (cores_[static_cast<size_t>(st.core)].ready_kernels++ == 0)
      set_bit(ready_cores_, static_cast<size_t>(st.core));
  }

  void make_unready(KernelId k) {
    KernelState& st = kstate_[static_cast<size_t>(k)];
    st.ready = false;
    if (--cores_[static_cast<size_t>(st.core)].ready_kernels == 0)
      clear_bit(ready_cores_, static_cast<size_t>(st.core));
  }

  void ready_consumers(const std::vector<ChannelId>& cs) {
    for (ChannelId c : cs)
      make_ready(channels_[static_cast<size_t>(c)].consumer);
  }

  void on_wake(const Wake& w, double now) {
    switch (w.kind) {
      case Wake::Kind::kCore: {
        CoreState& core = cores_[static_cast<size_t>(w.id)];
        if (core.busy_until > now + kInstant) break;  // a later action runs
        set_bit(idle_cores_, static_cast<size_t>(w.id));
        ready_consumers(core.pushed);
        core.pushed.clear();
        break;
      }
      case Wake::Kind::kSource: {
        SourceState& s = sources_[static_cast<size_t>(w.id)];
        if (s.queued_release == w.t)
          s.queued_release = std::numeric_limits<double>::quiet_NaN();
        break;
      }
      case Wake::Kind::kDelivery:
        ready_consumers(kstate_[static_cast<size_t>(w.id)].ports.outs);
        break;
      case Wake::Kind::kStart:
        break;
    }
  }

  /// An action's items become visible at `avail`: ready their consumers
  /// now if that is this instant, else when the core's completion wake
  /// pops, or (delivery-delayed items) a wake of their own.
  void publish(CoreState& core, KernelId k, double now, double avail,
               bool delayed) {
    if (avail <= now + kInstant) {
      ready_consumers(core.pushed);
      core.pushed.clear();
    } else if (delayed) {
      wake_.push(Wake{avail, Wake::Kind::kDelivery, k});
      core.pushed.clear();
    }
  }

  /// The head of channel `c` if an item is there and visible at `now`.
  [[nodiscard]] const Item* visible_head(ChannelId c, double now) const {
    const auto& q = channels_[static_cast<size_t>(c)].q;
    if (q.empty() || q.front().avail > now + kInstant) return nullptr;
    return &q.front().item;
  }

  /// After kernel `k` acted: it stays ready only if its next attempt may
  /// act — output is pending or an input's head is visible. An item that
  /// turns visible later readies it by its wake (core completion,
  /// delivery) or at once when published at `now`.
  void settle_ready(KernelId k, const KernelPorts& ports, double now) {
    if (!ports.pending.empty()) return;
    for (int p : ports.connected)
      if (visible_head(ports.in_channel[static_cast<size_t>(p)], now)) return;
    make_unready(k);
  }

  [[nodiscard]] bool channel_has_space(ChannelId c) const {
    return static_cast<int>(channels_[static_cast<size_t>(c)].q.size()) <
           opt_.channel_capacity;
  }

  [[nodiscard]] bool all_have_space(const std::vector<ChannelId>& cs) const {
    return std::all_of(cs.begin(), cs.end(),
                       [&](ChannelId c) { return channel_has_space(c); });
  }

  /// Append `item` to every channel in `outs`, filling each slot in
  /// place: copies into all but the last, which takes it by move.
  void push_all(const std::vector<ChannelId>& outs, Item& item, double avail,
                long charge, double now) {
    for (size_t i = 0; i < outs.size(); ++i) {
      TimedItem& slot = channels_[static_cast<size_t>(outs[i])].q.emplace_back();
      if (i + 1 < outs.size())
        slot.item = item;
      else
        slot.item = std::move(item);
      slot.avail = avail;
      slot.charge = charge;
      record_push(outs[i], now);
    }
  }

  void advance_source(SourceState& s) {
    s.have_next = g_.kernel(s.id).source_poll(s.next);
    if (!s.have_next) s.exhausted = true;
  }

  bool push_source(SourceState& s, double now) {
    const KernelPorts& ports = kstate_[static_cast<size_t>(s.id)].ports;
    const auto& outs = ports.out_channels[static_cast<size_t>(s.next.port)];
    if (!all_have_space(outs)) return false;
    const double lag = now - s.next.release_seconds;
    const bool late = obs::is_late(lag, tolerance_);
    if (late) ++res_.delayed_releases;
    res_.max_input_lag_seconds = std::max(res_.max_input_lag_seconds, lag);
    // Sources only feel delivery faults (a camera cannot run slow, but its
    // link can): matching items land in the channel late.
    double avail = now;
    if (faults_) {
      const fault::Perturbation pert = inj_.perturb(s.id, s.released);
      if (!pert.identity()) record_fault(s.id, -1, now, pert);
      if (pert.delivery_delay_seconds > 0.0)
        avail = now + pert.delivery_delay_seconds;
    }
    ++s.released;
    const bool opens_frame = s.frame.step(s.next.item);
    push_all(outs, s.next.item, avail, item_words(s.next.item), now);
    if (avail <= now + kInstant)
      ready_consumers(outs);
    else
      wake_.push(Wake{avail, Wake::Kind::kDelivery, s.id});
    // Input releases happen off-core (the "sources" track).
    if (ring_) {
      ring_->emit(obs::source_release(now, s.id, -1, lag, late));
      if (opens_frame)
        ring_->emit(obs::frame_instant(obs::EventKind::kFrameStart, now,
                                       s.id, -1, s.frame.index));
    }
    advance_source(s);
    return true;
  }

  /// Channel occupancy sample after a push.
  void record_push(ChannelId c, double now) {
    if (!ring_) return;
    const auto occ =
        static_cast<long>(channels_[static_cast<size_t>(c)].q.size());
    if (occ > chan_hw_[static_cast<size_t>(c)])
      chan_hw_[static_cast<size_t>(c)] = occ;
    ring_->emit(
        obs::channel_sample(obs::EventKind::kChannelPush, now, c, -1, occ));
  }

  /// Count a perturbed firing/release and mark it with an instant.
  void record_fault(KernelId k, int core, double now,
                    const fault::Perturbation& p) {
    ++res_.faults_injected;
    if (ring_)
      ring_->emit(obs::fault_instant(now, k, core, p.time_scale, p.stall_seconds,
                                     p.delivery_delay_seconds));
  }

  /// Move as many pending emissions of kernel `k` to channels as fit,
  /// marking them with a provisional +inf availability that retime_recent
  /// replaces with the action's end time. Returns words written.
  long deliver_pending(KernelId k, CoreState& core, double now) {
    constexpr double kProvisional = std::numeric_limits<double>::infinity();
    long words = 0;
    drain_pending(
        kstate_[static_cast<size_t>(k)].ports,
        [&](const std::vector<ChannelId>& outs) {
          return all_have_space(outs);
        },
        [&](const std::vector<ChannelId>& outs, Emission& e) {
          const long charge =
              e.charge_words >= 0 ? e.charge_words : item_words(e.item);
          push_all(outs, e.item, kProvisional, charge, now);
          words += charge * static_cast<long>(outs.size());
          core.pushed.insert(core.pushed.end(), outs.begin(), outs.end());
        });
    return words;
  }

  /// Attempt one action on core `c` at time `now`; returns its duration in
  /// seconds (0 = nothing to do). Only ready kernels are attempted, in
  /// round-robin order from the core's cursor.
  double core_action(int c, double now) {
    CoreState& core = cores_[static_cast<size_t>(c)];
    CoreStats& stats = res_.cores[static_cast<size_t>(c)];
    const size_t n = core.kernels.size();
    for (size_t off = 0; off < n; ++off) {
      const size_t idx = (core.rr + off) % n;
      const KernelId k = core.kernels[idx];
      KernelState& st = kstate_[static_cast<size_t>(k)];
      if (!st.ready) continue;
      Kernel& kn = g_.kernel(k);
      KernelPorts& ports = st.ports;

      // Deliver back-pressured output first; a kernel may keep firing
      // while its undelivered items fit its modeled output buffering.
      if (!ports.pending.empty()) {
        const long words = deliver_pending(k, core, now);
        if (words > 0) {
          const double cycles = words * opt_.machine.write_cost;
          const double dur = cycles / opt_.machine.clock_hz;
          retime_recent(k, now + dur);
          publish(core, k, now, now + dur, false);
          stats.write_cycles += cycles;
          if (ring_)
            ring_->emit(obs::write_span(now, now + dur, k, c, cycles));
          core.rr = (idx + 1) % n;
          last_action_ = std::max(last_action_, now + dur);
          settle_ready(k, ports, now);
          return dur;
        }
        if (static_cast<long>(ports.pending.size()) >= kn.pending_capacity()) {
          make_unready(k);
          continue;  // stalled on insufficient output buffering (Fig. 9(b))
        }
      }

      FireDecision& d = fire_scratch_;
      ++fire_decisions_;
      decide_fire_into(
          kn, ports.connected,
          [&](int port) -> const Item* {
            const ChannelId ch = ports.in_channel[static_cast<size_t>(port)];
            return ch < 0 ? nullptr : visible_head(ch, now);
          },
          d);
      if (!d.fires()) {
        make_unready(k);
        continue;
      }

      // Pop the consumed items; a producer holding undelivered output may
      // now have room for it.
      popped_.clear();
      long read_words = 0;
      for (int p : d.pop_inputs) {
        const ChannelId ch = ports.in_channel[static_cast<size_t>(p)];
        ChannelState& cs = channels_[static_cast<size_t>(ch)];
        read_words += cs.q.front().charge;
        popped_.push_back(std::move(cs.q.front().item));
        cs.q.pop_front();
        if (ring_)
          ring_->emit(obs::channel_sample(obs::EventKind::kChannelPop, now, ch,
                                          c, cs.q.size()));
        if (!kstate_[static_cast<size_t>(cs.producer)].ports.pending.empty())
          make_ready(cs.producer);
      }

      long run_cycles = fire(kn, d, popped_, ctx_, ports.pending);
      if (ctx_.has_dynamic_cycles()) {
        // Dynamic-resource extension: time the firing with the reported
        // cycles; the declared count is the allocated bound.
        const long bound = run_cycles;
        run_cycles = ctx_.dynamic_cycles();
        if (run_cycles > bound) {
          ++res_.resource_exception_count;
          if (res_.resource_exceptions.size() < 64)
            res_.resource_exceptions.push_back(ResourceException{
                kn.name(), kn.methods()[static_cast<size_t>(d.method)].name,
                run_cycles, bound, now});
        }
      }

      const double base_cycles = opt_.machine.context_switch +
                                 read_words * opt_.machine.read_cost +
                                 static_cast<double>(run_cycles);
      const long write_words = deliver_pending(k, core, now);  // retimed below
      const double cycles =
          base_cycles + write_words * opt_.machine.write_cost;

      // Fault injection: jitter/overrun/throttle scale the firing, stalls
      // prepend dead time, delivery delay pushes output availability past
      // the firing's end. Keyed on the kernel's firing index, so the host
      // runtime perturbs the same firings.
      fault::Perturbation pert;
      double fault_cycles = 0.0;
      if (faults_) {
        pert = inj_.perturb(
            k, res_.kernel_activity[static_cast<size_t>(k)].first);
        if (!pert.identity()) record_fault(k, c, now, pert);
        fault_cycles = cycles * (pert.time_scale - 1.0) +
                       pert.stall_seconds * opt_.machine.clock_hz;
      }
      const double dur = (cycles + fault_cycles) / opt_.machine.clock_hz;
      const double avail = now + dur + pert.delivery_delay_seconds;
      retime_recent(k, avail);
      publish(core, k, now, avail, pert.delivery_delay_seconds > 0.0);

      stats.switch_cycles += opt_.machine.context_switch;
      stats.read_cycles += read_words * opt_.machine.read_cost;
      // Induced overrun/stall time counts as run: it occupies the core.
      stats.run_cycles += static_cast<double>(run_cycles) + fault_cycles;
      stats.write_cycles += write_words * opt_.machine.write_cost;
      ++stats.firings;
      ++res_.total_firings;
      res_.kernel_activity[static_cast<size_t>(k)].first += 1;
      res_.kernel_activity[static_cast<size_t>(k)].second +=
          cycles + fault_cycles;
      if (ports.is_sink)
        scan_sink_tokens(popped_, [&](std::int64_t frame) {
          res_.sink_frame_times[static_cast<size_t>(st.sink_index)]
              .second.push_back(now + dur);
          if (ring_)
            ring_->emit(obs::frame_instant(obs::EventKind::kFrameEnd,
                                           now + dur, k, c, frame));
        });
      popped_.clear();
      if (ring_)
        ring_->emit(obs::firing_span(
            now, now + dur, k, c,
            d.kind == FireDecision::Kind::Method ? d.method : -1,
            run_cycles, read_words * opt_.machine.read_cost,
            write_words * opt_.machine.write_cost));
      core.rr = (idx + 1) % n;
      last_action_ = std::max(last_action_, now + dur);
      settle_ready(k, ports, now);
      return dur;
    }
    return 0.0;
  }

  /// Items just pushed with a provisional +inf availability get the final
  /// action-end time (they sit at the back of their queues).
  void retime_recent(KernelId k, double avail) {
    for (ChannelId c : kstate_[static_cast<size_t>(k)].ports.outs) {
      auto& q = channels_[static_cast<size_t>(c)].q;
      for (size_t i = q.size(); i > 0 && std::isinf(q[i - 1].avail); --i)
        q[i - 1].avail = avail;
    }
  }

  void finish(double now) {
    res_.sim_seconds = std::max(last_action_, now);
    bool exhausted = true;
    for (const SourceState& s : sources_) exhausted = exhausted && s.exhausted;
    long leftover = 0;
    for (const ChannelState& cs : channels_) leftover += static_cast<long>(cs.q.size());
    for (const KernelState& ks : kstate_)
      leftover += static_cast<long>(ks.ports.pending.size());
    res_.completed = exhausted;
    res_.deadlocked = !exhausted;
    if (leftover > 0 && res_.diagnostics.empty()) {
      std::ostringstream os;
      os << leftover << " items left in flight";
      res_.diagnostics = os.str();
    }
    res_.realtime_met = res_.completed && res_.delayed_releases == 0;

    if (rec_) {
      rec_->finish_session(res_.sim_seconds);
      obs::MetricsRegistry& m = rec_->metrics();
      m.gauge("sim.seconds").set(res_.sim_seconds);
      m.counter("sim.total_firings").add(res_.total_firings);
      m.counter("sim.fire_decisions").add(fire_decisions_);
      m.counter("sim.delayed_releases").add(res_.delayed_releases);
      m.gauge("sim.max_input_lag_seconds").set(res_.max_input_lag_seconds);
      m.gauge("sim.realtime_met").set(res_.realtime_met ? 1.0 : 0.0);
      if (faults_) m.counter("sim.faults_injected").add(res_.faults_injected);
      for (std::size_t c = 0; c < chan_hw_.size(); ++c)
        if (chan_hw_[c] > 0)
          m.high_water("sim.channel." + std::to_string(c) + ".occupancy")
              .update(static_cast<double>(chan_hw_[c]));
    }
  }

  Graph& g_;
  SimOptions opt_;
  SimResult res_;
  std::vector<ChannelState> channels_;
  std::vector<KernelState> kstate_;
  std::vector<SourceState> sources_;
  std::vector<CoreState> cores_;
  std::vector<int> core_of_;
  const double tolerance_ = obs::lateness_tolerance(g_);
  double last_action_ = 0.0;

  /// Pending wake instants, earliest first.
  std::priority_queue<Wake, std::vector<Wake>, std::greater<>> wake_;
  /// Per-core bitsets: holds a ready kernel / not busy at the current
  /// instant. A pass visits the cores set in both.
  std::vector<std::uint64_t> ready_cores_;
  std::vector<std::uint64_t> idle_cores_;
  long fire_decisions_ = 0;

  // Reused across firings so the hot loop does not allocate once warm.
  FireDecision fire_scratch_;
  ExecContext ctx_;
  std::vector<Item> popped_;

  /// Fault injection (see ctor): a bound copy of the caller's injector.
  fault::Injector inj_;
  bool faults_ = false;

  /// Observability (see ctor): null when no recorder is attached. Every
  /// event goes through ring_: firing and write spans, releases, faults,
  /// channel occupancy samples.
  obs::Recorder* rec_ = nullptr;
  obs::EventRing* ring_ = nullptr;
  std::vector<long> chan_hw_;
};

}  // namespace

SimResult simulate(Graph& g, const Mapping& mapping, const SimOptions& options) {
  if (static_cast<int>(mapping.core_of.size()) != g.kernel_count())
    throw ExecutionError("simulate: mapping does not cover the graph");
  return Sim(g, mapping, options).run();
}

}  // namespace bpp
