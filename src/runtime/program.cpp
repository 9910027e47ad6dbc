#include "runtime/program.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/firing.h"
#include "core/spsc_ring.h"
#include "fault/degradation.h"
#include "fault/injector.h"
#include "obs/deadline.h"
#include "obs/recorder.h"
#include "runtime/machine.h"

namespace bpp {

namespace {

// The per-program execution state (see DESIGN.md §4.1 and §6):
//
//  * Channels are lock-free SPSC rings — each has exactly one producer
//    kernel and one consumer kernel, each kernel owned by one core.
//  * A kernel is enqueued on its core's ready queue at most once however
//    many channels feed it, guarded by a per-kernel ready bit.
//  * All flag protocols are the store/fence/load pattern: the announcing
//    side writes its state (ring slot + index, or blocked bit), issues a
//    seq_cst fence, then reads the other side's state; the reacting side
//    does the mirror image. The two fences are totally ordered, so at
//    least one side always observes the other. The flags themselves are
//    relaxed: the fences do the ordering (DESIGN.md §4.1 lists each one).
//  * The steady-state firing writes only lines its worker owns (per-core
//    counters and scratch, the producer half of its output rings), plus
//    the ring slot/index and the consumer's ready bit and queue when an
//    edge crosses cores.
//
// The worker threads themselves, the ready queues, and the parking lots
// live in rt::Machine; this file only decides *what* each kernel does
// when its (program, kernel) node is popped.

struct RtChannel {
  explicit RtChannel(std::size_t capacity) : ring(capacity) {}

  SpscRing<Item> ring;
  KernelId producer_kernel = -1;
  KernelId consumer_kernel = -1;
  /// Peak occupancy observed at push time (SpscRing::update_peak).
  /// Producer-owned (only the producing worker writes it); read after the
  /// program finishes.
  std::size_t high_water = 0;
  /// Producer saw the ring full and parked; the consumer's next pop must
  /// re-arm (mark ready) the producer kernel. Padded: written by both
  /// sides, and must not share a line with the ring indices.
  alignas(kCacheLineSize) std::atomic<bool> producer_blocked{false};
};

struct alignas(kCacheLineSize) ReadyFlag {
  std::atomic<bool> ready{false};
};

/// Frames a sink has closed (one past the last end-of-frame index it
/// consumed): written once per frame by the sink's worker, read by the
/// workers watching for the close.
struct alignas(kCacheLineSize) CloseCount {
  std::atomic<std::int64_t> through{0};
};

/// A kernel's ports on lines of their own: its worker writes `pending` on
/// every firing, and neighbouring kernels may run on other cores.
struct alignas(kCacheLineSize) OwnedPorts : KernelPorts {};

}  // namespace

struct GraphProgram::Impl final : rt::Program {
  /// Per-core scratch, reused across process() calls so the hot loop
  /// stops heap-allocating once vector capacities warm up. Only the
  /// worker owning the core writes its entry; each entry has its own
  /// cache lines.
  struct alignas(kCacheLineSize) CoreState {
    ExecContext ctx;
    FireDecision decision;
    std::vector<Item> popped;
    /// timed[k] >= 0: release time (program seconds) paced source k waits
    /// for; entries only for this core's kernels.
    std::vector<double> timed;
    int timed_armed = 0;
    /// This program's event ring for this core, or null when tracing is
    /// off — the single branch every instrumented site pays when disabled.
    obs::EventRing* ring = nullptr;
    /// Core-local per-kernel firing counts, merged at finish() (keeps the
    /// hot loop off shared cache lines).
    std::vector<long> fired;
    /// Firings on this core: written by its worker (plain load + store),
    /// summed by firings() from any thread.
    std::atomic<long> firings{0};
    /// Core-local count of perturbed firings, merged at finish().
    long faults = 0;
    /// Frame-close watch (close_watch): the earliest frame not yet known
    /// closed or past due, its close time (program seconds), the last
    /// frame whose close the worker watched, and how many it watched.
    std::int64_t watch_frame = -1;
    double watch_due = 0.0;
    std::int64_t watched_frame = -1;
    long close_watches = 0;
  };

  Impl(Graph& g, const Mapping& mapping, const RuntimeOptions& opt,
       rt::Machine& machine)
      // A paced run of a graph with a frame schedule watches each frame
      // close (close_watch).
      : rt::Program(machine.cores(),
                    opt.pace_inputs &&
                        std::isfinite(obs::frame_close_seconds(g, 0))),
        g_(g),
        opt_(opt),
        mapping_(mapping),
        machine_(machine) {
    const int n = g.kernel_count();
    const int mcores = machine.cores();
    for (int k = 0; k < n; ++k) {
      const int c = mapping.core_of.at(static_cast<size_t>(k));
      if (c < 0 || c >= mcores)
        throw ExecutionError(
            "GraphProgram: mapping core " + std::to_string(c) +
            " outside the machine's pool of " + std::to_string(mcores));
    }

    channels_.resize(static_cast<size_t>(g.channel_count()));
    for (int c = 0; c < g.channel_count(); ++c) {
      const Channel& ch = g.channel(c);
      if (!ch.alive) continue;  // dead channels get no runtime state
      auto rt = std::make_unique<RtChannel>(
          static_cast<std::size_t>(opt.channel_capacity));
      rt->producer_kernel = ch.src_kernel;
      rt->consumer_kernel = ch.dst_kernel;
      channels_[static_cast<size_t>(c)] = std::move(rt);
    }

    eos_seen_.assign(static_cast<size_t>(n), 0);
    src_next_.resize(static_cast<size_t>(n));
    sink_done_ = std::make_unique<std::atomic<bool>[]>(static_cast<size_t>(n));
    closed_ = std::make_unique<CloseCount[]>(static_cast<size_t>(n));
    ready_ = std::make_unique<ReadyFlag[]>(static_cast<size_t>(n));
    nodes_ = std::make_unique<rt::ReadyNode[]>(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      sink_done_[static_cast<size_t>(i)] = false;
      nodes_[static_cast<size_t>(i)].kernel = i;
      nodes_[static_cast<size_t>(i)].program = this;
    }
    core_kernels_.resize(static_cast<size_t>(mcores));
    state_ = std::make_unique<CoreState[]>(static_cast<size_t>(mcores));

    ports_.reserve(static_cast<size_t>(n));
    for (KernelId k = 0; k < n; ++k) {
      ports_.push_back(OwnedPorts{wire_kernel(g, k)});
      if (ports_.back().is_sink) sinks_.push_back(k);
      core_kernels_[static_cast<size_t>(mapping.core_of[static_cast<size_t>(k)])]
          .push_back(k);
    }

    kernel_fired_.assign(static_cast<size_t>(n), 0);
    src_frame_.resize(static_cast<size_t>(n));
    src_dropping_.assign(static_cast<size_t>(n), 0);
    src_pushed_.assign(static_cast<size_t>(n), 0);
    src_stopped_.assign(static_cast<size_t>(n), 0);
    wedged_.assign(static_cast<size_t>(n), 0);
    for (KernelId k = 0; k < n; ++k)
      if (g.kernel(k).is_source()) ++total_sources_;

    cores_used_.clear();
    for (int c = 0; c < mcores; ++c)
      if (!core_kernels_[static_cast<size_t>(c)].empty())
        cores_used_.push_back(c);

    // Fault injection: copy + re-bind so the caller's injector is reusable
    // across runs of different graphs.
    if (opt.injector != nullptr) {
      inj_ = *opt.injector;
      inj_.bind(g, mapping.core_of);
      faults_ = inj_.active();
    }

    // Graceful degradation: sinks report completions, and the first
    // rate-driven finite source owns shed claims (a deterministic choice;
    // shedding with several independent rate-driven sources would need a
    // cross-source frame barrier this runtime does not model).
    ctrl_ = opt.degradation;
    if (ctrl_ != nullptr) {
      ctrl_->attach_sinks(static_cast<int>(sinks_.size()), tolerance_);
      for (KernelId k = 0; k < n; ++k) {
        Kernel& kn = g.kernel(k);
        if (!kn.is_source()) continue;
        auto spec = kn.source_spec(0);
        if (spec && spec->rate_hz > 0.0 && spec->frames > 0) {
          shed_source_ = k;
          break;
        }
      }
    }
  }

  ~Impl() override = default;

  // ---- machine-facing interface -----------------------------------------

  void start() {
    if (opt_.recorder) {
      rec_ = opt_.recorder;
      std::vector<std::string> names;
      names.reserve(static_cast<size_t>(g_.kernel_count()));
      for (KernelId k = 0; k < g_.kernel_count(); ++k)
        names.push_back(g_.kernel(k).name());
      rec_->begin_session(obs::TraceClock::kWall, 0.0, machine_.cores(),
                          std::move(names));
      for (int c : cores_used_)
        state_[static_cast<size_t>(c)].ring = rec_->ring(c);
    }
    for (int c : cores_used_) {
      CoreState& s = state_[static_cast<size_t>(c)];
      s.fired.assign(static_cast<size_t>(g_.kernel_count()), 0);
      s.timed.assign(static_cast<size_t>(g_.kernel_count()), -1.0);
    }

    t0_off_ = machine_.now();
    started_ = true;
    machine_.attach(this, cores_used_);
    // Everything starts ready: sources to emit, the rest to drain initial
    // emissions or discover they have nothing to do. Two phases, because
    // the machine's workers are already running: every ready bit must be
    // set before the first node is enqueued, so a worker that processes an
    // early kernel and pushes to a later one finds that consumer's bit
    // already true and skips mark_ready's enqueue. Interleaving bit-set
    // with enqueue would let that mark_ready enqueue a node the loop below
    // then enqueues again — a double-push that corrupts the intrusive
    // ready queue (nodes may only be queued once). The queue push is a
    // release and the pop an acquire, so a worker that pops any of these
    // nodes sees every bit set.
    for (KernelId k = 0; k < g_.kernel_count(); ++k)
      ready_[static_cast<size_t>(k)].ready.store(true,
                                                 std::memory_order_relaxed);
    for (KernelId k = 0; k < g_.kernel_count(); ++k)
      machine_.enqueue(&nodes_[static_cast<size_t>(k)],
                       mapping_.core_of[static_cast<size_t>(k)],
                       /*self_core=*/-1);
  }

  void process(KernelId k, int core) override {
    // Clear the ready bit before examining anything, then seq_cst fence
    // C: pairs with the producer's fence P in push_all (ring push, then
    // ready-bit check), the consumer's fence Q before re-arming us after a
    // pop, and request_drain's fence D. Either this run sees their write,
    // or they see the clear and re-queue us.
    ready_[static_cast<size_t>(k)].ready.store(false, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);

    CoreState& w = state_[static_cast<size_t>(core)];
    Kernel& kn = g_.kernel(k);
    KernelPorts& ports = ports_[static_cast<size_t>(k)];
    if (kn.is_source()) {
      if (!drain(k, core, w) &&
          static_cast<long>(ports.pending.size()) >= kn.pending_capacity())
        return;
      run_source(k, kn, core, w);
      return;
    }

    if (wedged_[static_cast<size_t>(k)]) return;  // kWedge: never fires again
    const auto& in_of = ports.in_channel;
    while (!quiesced()) {
      if (!drain(k, core, w) &&
          static_cast<long>(ports.pending.size()) >= kn.pending_capacity())
        return;  // back-pressured; the consumer's pop re-arms us

      decide_fire_into(
          kn, ports.connected,
          [&](int port) -> const Item* {
            const ChannelId c = in_of[static_cast<size_t>(port)];
            if (c < 0) return nullptr;
            return chan(c).ring.front();  // lock-free consumer-side peek
          },
          w.decision);
      const FireDecision& d = w.decision;
      if (!d.fires()) return;  // idle; the next push re-arms us

      const bool rec = w.ring != nullptr;
      const double t_begin = rec ? elapsed() : 0.0;

      // Fault injection, keyed on the kernel's firing index — w.fired[k]
      // counts exactly that, and only this core fires k, so the key is
      // interleaving-independent (same seed -> same perturbed firings).
      fault::Perturbation pert;
      if (faults_) {
        pert = inj_.perturb(k, w.fired[static_cast<size_t>(k)]);
        record_fault(w, k, core, pert);
        // Recovery fault kinds (DESIGN.md §8): a wedge halts this kernel
        // for good before it pops anything — inputs back up and the
        // program stops making progress (the supervisor's stall watchdog
        // is what notices). A throw aborts the firing; the machine's
        // worker backstop routes it to on_worker_exception, which fails
        // and quiesces this program only.
        if (pert.wedge) {
          wedged_[static_cast<size_t>(k)] = 1;
          return;
        }
        if (pert.throw_fault)
          throw fault::InjectedFault("injected fault: kernel '" + kn.name() +
                                     "' firing " +
                                     std::to_string(w.fired[static_cast<size_t>(k)]));
      }

      w.popped.clear();
      w.popped.reserve(d.pop_inputs.size());
      for (int p : d.pop_inputs) {
        RtChannel& ch = chan(in_of[static_cast<size_t>(p)]);
        w.popped.push_back(std::move(*ch.ring.front_mut()));
        ch.ring.pop();
        if (rec)
          w.ring->emit(obs::channel_sample(
              obs::EventKind::kChannelPop, elapsed(),
              in_of[static_cast<size_t>(p)], core, ch.ring.size_approx()));
      }
      // seq_cst fence Q: orders the head stores of the pops above before
      // the producer_blocked loads below; pairs with the producer's fence
      // B in has_space_or_arm (blocked store, then fullness re-check).
      std::atomic_thread_fence(std::memory_order_seq_cst);
      for (int p : d.pop_inputs)
        rearm_blocked_producer(chan(in_of[static_cast<size_t>(p)]), core);

      const double t_read = rec || faults_ ? elapsed() : 0.0;
      if (pert.stall_seconds > 0.0) fault::spin_for(pert.stall_seconds);
      const double t_run = pert.stall_seconds > 0.0 ? elapsed() : t_read;
      fire(kn, d, w.popped, w.ctx, ports.pending);
      // Overrun/throttle: stretch the firing by spinning for the induced
      // extra time (wall clock cannot run a kernel faster, so time scales
      // below 1 are a no-op here; the simulator honors them). Delivery
      // delay spins between the firing and the publication of its outputs.
      if (pert.time_scale > 1.0)
        fault::spin_for((elapsed() - t_run) * (pert.time_scale - 1.0));
      if (pert.delivery_delay_seconds > 0.0)
        fault::spin_for(pert.delivery_delay_seconds);
      w.firings.store(w.firings.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
      ++w.fired[static_cast<size_t>(k)];
      if (rec) {
        const double t1 = elapsed();  // run is the invoke, read the pops
        w.ring->emit(obs::firing_span(
            t_begin, t1, k, core,
            d.kind == FireDecision::Kind::Method ? d.method : -1, t1 - t_read,
            t_read - t_begin));
      }
      if (!ports.is_sink) continue;

      // Frame tracking: a sink consuming an end-of-frame token closes the
      // frame whose index rides in the token payload. The degradation
      // controller gets the same completions as miss feedback.
      int& eos_seen = eos_seen_[static_cast<size_t>(k)];
      eos_seen += scan_sink_tokens(w.popped, [&](std::int64_t frame) {
        std::atomic<std::int64_t>& closed =
            closed_[static_cast<size_t>(k)].through;
        if (frame >= closed.load(std::memory_order_relaxed))
          closed.store(frame + 1, std::memory_order_relaxed);
        if (!rec && ctrl_ == nullptr) return;
        const double t_end = elapsed();
        if (rec)
          w.ring->emit(obs::frame_instant(obs::EventKind::kFrameEnd, t_end, k,
                                          core, frame));
        if (ctrl_ != nullptr) ctrl_->on_frame_end(frame, t_end);
      });
      // Sink completion: all connected inputs delivered end-of-stream.
      if (eos_seen >= static_cast<int>(ports.connected.size()) &&
          !sink_done_[static_cast<size_t>(k)].exchange(true) &&
          finished_sinks_.fetch_add(1, std::memory_order_acq_rel) + 1 >=
              static_cast<int>(sinks_.size()))
        signal_done();
    }
  }

  double fire_due_sources(int core, double now_machine) override {
    CoreState& w = state_[static_cast<size_t>(core)];
    if (w.timed_armed == 0) return -1.0;
    const double now = now_machine - t0_off_;
    double next = -1.0;
    for (KernelId k : core_kernels_[static_cast<size_t>(core)]) {
      double& rel = w.timed[static_cast<size_t>(k)];
      if (rel < 0.0) continue;
      if (rt::release_is_due(now, rel)) {
        rel = -1.0;
        --w.timed_armed;
        mark_ready(k, core);  // our own queue; runs on the next pop
      } else if (next < 0.0 || rel < next) {
        next = rel;
      }
    }
    return next < 0.0 ? -1.0 : next + t0_off_;
  }

  double close_watch(int core, double now_machine, double lead) override {
    constexpr double kNever = std::numeric_limits<double>::infinity();
    CoreState& w = state_[static_cast<size_t>(core)];
    const double now = now_machine - t0_off_;
    // The earliest frame not closed at every sink. One the source sheds
    // counts as closed; one past its due time plus the tolerance is late,
    // and no longer watched. Each of the three only moves forward, so
    // the frame this core last looked at bounds it from below.
    std::int64_t closed = std::numeric_limits<std::int64_t>::max();
    for (KernelId s : sinks_)
      closed = std::min(
          closed, closed_[static_cast<size_t>(s)].through.load(
                      std::memory_order_relaxed));
    std::int64_t f = std::max(w.watch_frame, closed);
    if (f == shed_frame_.load(std::memory_order_relaxed)) ++f;
    for (;; ++f) {
      if (f != w.watch_frame) {
        w.watch_frame = f;
        w.watch_due = obs::frame_close_seconds(g_, f, opt_.pace_slowdown);
      }
      if (w.watch_due == kNever) return kNever;  // past the last frame
      if (now < w.watch_due + tolerance_) break;
    }
    const double from = w.watch_due - lead;
    if (now >= from && w.watched_frame != f) {
      w.watched_frame = f;
      ++w.close_watches;
    }
    return from + t0_off_;
  }

  void record_park(int core, double t0_machine, double t1_machine) override {
    CoreState& w = state_[static_cast<size_t>(core)];
    // A worker may have parked before start(): the program's share of the
    // park begins at its time 0.
    const double t0 = std::max(t0_machine, t0_off_);
    if (w.ring)
      w.ring->emit({.t0 = t0 - t0_off_,
                    .t1 = std::max(t1_machine, t0) - t0_off_, .core = core,
                    .kind = obs::EventKind::kPark});
  }

  // ---- internals ---------------------------------------------------------

  [[nodiscard]] double elapsed() const { return machine_.now() - t0_off_; }

  /// Sum of the per-core firing counters. Each only grows, so successive
  /// calls from one thread never decrease.
  [[nodiscard]] long firings() const {
    long total = 0;
    for (int c : cores_used_)
      total += state_[static_cast<size_t>(c)].firings.load(
          std::memory_order_relaxed);
    return total;
  }

  RtChannel& chan(ChannelId c) { return *channels_[static_cast<size_t>(c)]; }

  /// Mark kernel `k` ready and wake its core. Callers must have issued a
  /// seq_cst fence after the channel writes this readiness reports.
  /// `self_core` is the calling worker's core: a push onto one's own queue
  /// needs no eventcount bump — the worker is awake and re-polls its queue
  /// before it can park.
  void mark_ready(KernelId k, int self_core) {
    // A set bit read after the caller's fence is either not yet cleared
    // by the consumer (whose clear and fence C then order before its
    // examination of our write) or set again by a later marker that
    // queued the kernel. Either way the kernel runs after our write, so
    // the RMW is needed only when the bit reads clear.
    std::atomic<bool>& ready = ready_[static_cast<size_t>(k)].ready;
    if (ready.load(std::memory_order_relaxed) ||
        ready.exchange(true, std::memory_order_acq_rel))
      return;  // already queued (or about to re-run)
    machine_.enqueue(&nodes_[static_cast<size_t>(k)],
                     mapping_.core_of[static_cast<size_t>(k)], self_core);
  }

  /// True when every channel in `outs` has space. On the first full one,
  /// arms its producer_blocked flag so the consumer's next pop re-arms us,
  /// re-checking afterwards to close the race against a concurrent pop.
  bool has_space_or_arm(const std::vector<ChannelId>& outs) {
    for (ChannelId c : outs) {
      RtChannel& ch = chan(c);
      if (!ch.ring.full()) continue;
      // seq_cst fence B: orders the blocked store before the fullness
      // re-check (a head load); pairs with the consumer's fence Q.
      ch.producer_blocked.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!ch.ring.full()) continue;  // freed meanwhile; stale flag only
                                      // costs one spurious re-arm
      return false;
    }
    return true;
  }

  /// Push one item to every channel of a fan-out, copying into all but the
  /// last, which takes it by move, and mark the consumers ready. Callers
  /// guarantee space (has_space_or_arm) — only the owning worker pushes,
  /// so space cannot shrink in between.
  void push_all(const std::vector<ChannelId>& outs, Item& item, int core,
                CoreState& w) {
    const size_t n = outs.size();
    for (size_t i = 0; i < n; ++i) {
      RtChannel& ch = chan(outs[i]);
      const bool ok = i + 1 == n ? ch.ring.try_push(std::move(item))
                                 : ch.ring.try_push(item);
      if (!ok)
        throw ExecutionError("runtime: push on full channel (scheduler bug)");
      ch.ring.update_peak(ch.high_water);
      if (w.ring)
        w.ring->emit(obs::channel_sample(
            obs::EventKind::kChannelPush, elapsed(), outs[i], core,
            static_cast<int>(ch.ring.size_approx())));
    }
    // seq_cst fence P: orders the tail stores above before the consumers'
    // ready-bit loads in mark_ready; pairs with the consumer's fence C.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (ChannelId c : outs) mark_ready(chan(c).consumer_kernel, core);
  }

  /// Drain pending emissions of kernel k. Returns true if all were moved.
  /// With tracing on, a drain that moved items is recorded as a write span
  /// (the back-pressured write phase of Fig. 13's breakdown).
  bool drain(KernelId k, int core, CoreState& w) {
    KernelPorts& ports = ports_[static_cast<size_t>(k)];
    if (ports.pending.empty()) return true;
    const bool rec = w.ring != nullptr;
    const double t_begin = rec ? elapsed() : 0.0;
    bool moved = false;
    const bool all = drain_pending(
        ports,
        [&](const std::vector<ChannelId>& outs) {
          return has_space_or_arm(outs);
        },
        [&](const std::vector<ChannelId>& outs, Emission& e) {
          push_all(outs, e.item, core, w);
          moved = true;
        });
    if (rec && moved) {
      const double t1 = elapsed();  // the whole span is write time
      w.ring->emit(obs::write_span(t_begin, t1, k, core, t1 - t_begin));
    }
    return all;
  }

  /// After popping (and fencing), re-arm producers that parked on
  /// back-pressure of channel `ch`.
  void rearm_blocked_producer(RtChannel& ch, int self_core) {
    if (ch.producer_blocked.load(std::memory_order_relaxed) &&
        ch.producer_blocked.exchange(false, std::memory_order_acq_rel))
      mark_ready(ch.producer_kernel, self_core);
  }

  void signal_done() {
    if (!done_.exchange(true, std::memory_order_acq_rel))
      if (on_complete_) on_complete_();
  }

  /// Count a perturbed firing or release and mark it with an instant.
  void record_fault(CoreState& w, KernelId k, int core,
                    const fault::Perturbation& p) {
    if (p.identity()) return;
    ++w.faults;
    if (w.ring)
      w.ring->emit(obs::fault_instant(elapsed(), k, core, p.time_scale,
                                      p.stall_seconds,
                                      p.delivery_delay_seconds));
  }

  void update_max_lag(double lag) {
    double cur = max_lag_.load(std::memory_order_relaxed);
    while (lag > cur &&
           !max_lag_.compare_exchange_weak(cur, lag, std::memory_order_relaxed)) {
    }
  }

  /// Source loop: drain the staged emission then poll for more. Exits when
  /// exhausted (never re-armed), back-pressured (producer_blocked armed),
  /// or — paced — not due yet (timed re-arm via CoreState::timed).
  void run_source(KernelId k, Kernel& kn, int core, CoreState& w) {
    if (src_stopped_[static_cast<size_t>(k)]) return;  // drained or exhausted
    auto& next = src_next_[static_cast<size_t>(k)];
    FrameCursor& frame = src_frame_[static_cast<size_t>(k)];
    char& dropping = src_dropping_[static_cast<size_t>(k)];
    const bool rec = w.ring != nullptr;
    const bool sheddable = ctrl_ != nullptr && k == shed_source_;
    while (!quiesced()) {
      if (next.has_value()) {
        // Drain: retire at the next frame boundary — the same safe point
        // shedding uses — so the in-flight frame completes downstream but
        // no new frame starts. Checked before pacing: a source parked
        // until its next release stops the moment it is next looked at.
        if (frame.at_start && !dropping && is_data(next->item) &&
            drain_.load(std::memory_order_acquire)) {
          mark_source_stopped(k);
          return;
        }
        // Inspect before the item is moved. Frame bookkeeping runs
        // unconditionally — the shed state machine needs it even with
        // tracing off.
        const bool frame_data = is_data(next->item);
        const bool frame_eof =
            !frame_data && as_token(next->item).cls == tok::kEndOfFrame;
        const bool frame_eos =
            !frame_data && as_token(next->item).cls == tok::kEndOfStream;

        // Pacing is honored whether or not the item will be dropped: the
        // camera does not pause while we shed.
        if (opt_.pace_inputs) {
          const double release = next->release_seconds * opt_.pace_slowdown;
          if (!rt::release_is_due(elapsed(), release)) {
            if (w.timed[static_cast<size_t>(k)] < 0.0) ++w.timed_armed;
            w.timed[static_cast<size_t>(k)] = release;  // due later
            machine_.arm_release(core, release + t0_off_);
            return;
          }
        }

        // Frame boundary: claim an armed shed request and drop the whole
        // upcoming frame (never mid-frame, never end-of-stream).
        if (frame_data && frame.at_start && !dropping && sheddable &&
            ctrl_->should_shed()) {
          dropping = 1;
          shed_frame_.store(frame.index, std::memory_order_relaxed);
          if (rec)
            w.ring->emit(obs::frame_instant(obs::EventKind::kFrameShed,
                                            elapsed(), k, core, frame.index));
        }

        if (dropping && !frame_eos) {
          // Dropping: consume without pushing.
          const std::int32_t shed = frame.index;
          frame.step(next->item);
          next.reset();
          if (frame_eof) {
            dropping = 0;
            if (rec)
              w.ring->emit(obs::frame_instant(obs::EventKind::kShedRecover,
                                              elapsed(), k, core, shed));
            ctrl_->on_shed_complete(shed);
          }
        } else {
          const auto& outs = ports_[static_cast<size_t>(k)]
                                 .out_channels[static_cast<size_t>(next->port)];
          if (!has_space_or_arm(outs)) return;
          if (opt_.pace_inputs) {
            const double release = next->release_seconds * opt_.pace_slowdown;
            const double lag = elapsed() - release;
            const bool late = obs::is_late(lag, tolerance_);
            if (late) {
              delayed_.fetch_add(1, std::memory_order_relaxed);
              update_max_lag(lag);
            }
            if (rec)
              w.ring->emit(obs::source_release(elapsed(), k, core, lag, late));
          }
          // Sources feel only delivery faults (Injector::bind). The spin
          // follows the lag measurement: the item lands late, as in the
          // simulator, but its release was on time.
          if (faults_) {
            const fault::Perturbation pert =
                inj_.perturb(k, src_pushed_[static_cast<size_t>(k)]++);
            record_fault(w, k, core, pert);
            fault::spin_for(pert.delivery_delay_seconds);
          }
          const bool opens_frame = frame.step(next->item);
          push_all(outs, next->item, core, w);
          next.reset();
          if (rec && opens_frame)
            w.ring->emit(obs::frame_instant(obs::EventKind::kFrameStart,
                                            elapsed(), k, core, frame.index));
        }
      }
      SourceEmission e;
      if (!kn.source_poll(e)) {
        mark_source_stopped(k);  // exhausted for good
        return;
      }
      next = std::move(e);
    }
  }

  /// Count each source's retirement once (owning worker only writes the
  /// flag; the counter is read cross-thread by sources_drained()).
  void mark_source_stopped(KernelId k) {
    if (src_stopped_[static_cast<size_t>(k)]) return;
    src_stopped_[static_cast<size_t>(k)] = 1;
    sources_stopped_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Terminal failure: record the first message, quiesce, and notify the
  /// completion callback (it signals terminal transitions, not success —
  /// waiters check done()/failed()). Safe from any worker, any time.
  void fail(const char* what) {
    {
      std::lock_guard<std::mutex> lk(err_mu_);
      if (error_.empty()) error_ = what;
    }
    failed_.store(true, std::memory_order_release);
    quiesce();
    if (on_complete_) on_complete_();
  }

  void on_worker_exception(int /*core*/, const char* what) override {
    fail(what);
  }

  void request_drain() {
    if (drain_.exchange(true, std::memory_order_acq_rel)) return;
    if (!started_) return;
    // Wake every source so one parked until a future release re-checks
    // the drain flag now instead of at that release. seq_cst fence D:
    // orders the drain_ store before the ready-bit loads in mark_ready;
    // pairs with the source's fence C.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (KernelId k = 0; k < g_.kernel_count(); ++k)
      if (g_.kernel(k).is_source()) mark_ready(k, /*self_core=*/-1);
  }

  RuntimeResult finish() {
    if (finished_) return result_;
    finished_ = true;
    // A completed program may still hold a firing no sink waits for (a
    // replica dropping its parameter's end-of-stream): let it run.
    if (started_ && done_.load(std::memory_order_acquire) &&
        !failed_.load(std::memory_order_acquire))
      while (!drained())
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    const double wall = started_ ? elapsed() : 0.0;
    quiesce();
    if (started_) machine_.detach(this);

    RuntimeResult res;
    res.completed = done_.load(std::memory_order_acquire);
    res.failed = failed_.load(std::memory_order_acquire);
    {
      std::lock_guard<std::mutex> lk(err_mu_);
      res.error = error_;
    }
    res.wall_seconds = wall;
    res.total_firings = firings();
    long faults_total = 0;
    for (int c : cores_used_) {
      const CoreState& w = state_[static_cast<size_t>(c)];
      for (size_t k = 0; k < w.fired.size(); ++k)
        kernel_fired_[k] += w.fired[k];
      faults_total += w.faults;
    }
    res.faults_injected = faults_total;
    long close_watches = 0;
    for (int c : cores_used_)
      close_watches += state_[static_cast<size_t>(c)].close_watches;
    if (ctrl_ != nullptr) res.frames_shed = ctrl_->frames_shed();
    res.delayed_releases = delayed_.load();
    res.max_release_lag_seconds = max_lag_.load();
    res.kernel_firings = kernel_fired_;
    res.channel_high_water.assign(channels_.size(), -1);
    for (size_t c = 0; c < channels_.size(); ++c)
      if (channels_[c])
        res.channel_high_water[c] = static_cast<long>(channels_[c]->high_water);

    if (rec_) {
      rec_->finish_session(res.wall_seconds);
      obs::MetricsRegistry& m = rec_->metrics();
      m.gauge("runtime.wall_seconds").set(res.wall_seconds);
      m.counter("runtime.total_firings").add(res.total_firings);
      m.counter("runtime.delayed_releases").add(res.delayed_releases);
      if (opt_.pace_inputs)
        m.counter("runtime.close_watches").add(close_watches);
      m.gauge("runtime.max_release_lag_seconds")
          .set(res.max_release_lag_seconds);
      if (faults_) m.counter("runtime.faults_injected").add(res.faults_injected);
      if (ctrl_ != nullptr)
        m.counter("runtime.frames_shed").add(res.frames_shed);
      if (opt_.pace_inputs)
        m.gauge("runtime.pace_slowdown").set(opt_.pace_slowdown);
      for (size_t c = 0; c < channels_.size(); ++c)
        if (channels_[c])
          m.high_water("runtime.channel." + std::to_string(c) + ".occupancy")
              .update(static_cast<double>(channels_[c]->high_water));
      for (size_t k = 0; k < kernel_fired_.size(); ++k)
        if (kernel_fired_[k] > 0)
          m.counter("runtime.kernel." +
                    g_.kernel(static_cast<KernelId>(k)).name() + ".firings")
              .add(kernel_fired_[k]);
    }
    result_ = res;
    return res;
  }

  // ---- state -------------------------------------------------------------

  Graph& g_;
  RuntimeOptions opt_;
  const double tolerance_ = obs::lateness_tolerance(
      g_, opt_.pace_inputs ? opt_.pace_slowdown : 1.0);
  Mapping mapping_;
  rt::Machine& machine_;
  std::function<void()> on_complete_;
  std::vector<std::unique_ptr<RtChannel>> channels_;  // null for dead channels
  std::vector<OwnedPorts> ports_;
  std::vector<std::vector<KernelId>> core_kernels_;
  std::unique_ptr<CoreState[]> state_;  ///< indexed by machine core
  std::vector<int> cores_used_;   ///< machine cores hosting our kernels
  std::vector<int> eos_seen_;
  std::vector<std::optional<SourceEmission>> src_next_;
  /// Per-source frame cursors (only the owning worker touches its sources).
  std::vector<FrameCursor> src_frame_;
  /// Per-source shed state: mid-drop of the current frame.
  std::vector<char> src_dropping_;
  /// Per-source items pushed, counted under fault injection: the
  /// injector's firing index for sources, as the simulator's release
  /// count is (owner-worker written).
  std::vector<std::int64_t> src_pushed_;
  /// Per-source retirement flag (drain/exhaustion; owner-worker written).
  std::vector<char> src_stopped_;
  /// Per-kernel kWedge latches (owner-worker written).
  std::vector<char> wedged_;
  int total_sources_ = 0;
  /// First failure message, set once under err_mu_.
  mutable std::mutex err_mu_;
  std::string error_;
  /// Fault injection (bound copy; see ctor) and degradation wiring.
  fault::Injector inj_;
  bool faults_ = false;
  fault::DegradationController* ctrl_ = nullptr;
  KernelId shed_source_ = -1;
  std::unique_ptr<std::atomic<bool>[]> sink_done_;
  std::unique_ptr<CloseCount[]> closed_;  // per-kernel; sinks write theirs
  std::unique_ptr<ReadyFlag[]> ready_;      // per-kernel, cache-line padded
  std::unique_ptr<rt::ReadyNode[]> nodes_;  // per-kernel ready-queue nodes
  double t0_off_ = 0.0;  ///< machine time at start()
  std::vector<KernelId> sinks_;
  obs::Recorder* rec_ = nullptr;  // null = tracing off
  bool started_ = false;
  bool finished_ = false;
  RuntimeResult result_;
  std::vector<long> kernel_fired_;  // merged from CoreStates in finish()

  // Flags and rare counters (lifecycle, once per sink, late releases),
  // each on its own line so one worker's write does not invalidate a line
  // another reads on its hot path.
  alignas(kCacheLineSize) std::atomic<bool> done_{false};
  alignas(kCacheLineSize) std::atomic<bool> failed_{false};
  alignas(kCacheLineSize) std::atomic<bool> drain_{false};
  alignas(kCacheLineSize) std::atomic<int> sources_stopped_{0};
  alignas(kCacheLineSize) std::atomic<int> finished_sinks_{0};
  alignas(kCacheLineSize) std::atomic<long> delayed_{0};
  alignas(kCacheLineSize) std::atomic<double> max_lag_{0.0};
  /// The frame the shedding source last began to drop (written once per
  /// shed frame, read by close_watch).
  alignas(kCacheLineSize) std::atomic<std::int64_t> shed_frame_{-1};
};

GraphProgram::GraphProgram(Graph& g, const Mapping& mapping,
                           const RuntimeOptions& opt, rt::Machine& machine)
    : impl_(std::make_unique<Impl>(g, mapping, opt, machine)) {}

GraphProgram::~GraphProgram() {
  if (impl_ && impl_->started_ && !impl_->finished_) (void)impl_->finish();
}

void GraphProgram::set_on_complete(std::function<void()> fn) {
  impl_->on_complete_ = std::move(fn);
}

void GraphProgram::start() { impl_->start(); }

bool GraphProgram::done() const {
  return impl_->done_.load(std::memory_order_acquire);
}

bool GraphProgram::failed() const {
  return impl_->failed_.load(std::memory_order_acquire);
}

std::string GraphProgram::error() const {
  std::lock_guard<std::mutex> lk(impl_->err_mu_);
  return impl_->error_;
}

void GraphProgram::request_drain() { impl_->request_drain(); }

bool GraphProgram::sources_drained() const {
  return impl_->sources_stopped_.load(std::memory_order_acquire) >=
         impl_->total_sources_;
}

long GraphProgram::firings() const { return impl_->firings(); }

double GraphProgram::elapsed_seconds() const { return impl_->elapsed(); }

long GraphProgram::frames_shed() const {
  return impl_->ctrl_ != nullptr ? impl_->ctrl_->frames_shed() : 0;
}

void GraphProgram::poll_recorder() {
  if (impl_->rec_ && impl_->started_ && !impl_->finished_)
    impl_->rec_->poll();
}

RuntimeResult GraphProgram::finish() { return impl_->finish(); }

}  // namespace bpp
