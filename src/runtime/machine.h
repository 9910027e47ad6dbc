#pragma once
// The "machine" half of the host runtime: a pool of worker cores that
// multiplexes any number of running programs (pipeline instances).
//
// PR 1 built the scheduling substrate — per-core ready queues with
// eventcount parking — but welded it to one graph per run. This header
// splits that weld so the same worker pool can serve many tenants (the
// `bpd` daemon) or exactly one (run_threaded, unchanged API):
//
//   * Machine owns the worker threads, one per core, plus each core's
//     ready queue and parking lot. It knows nothing about graphs,
//     channels, or kernels.
//   * Program is the unit of multiplexing: a running pipeline instance.
//     It owns every per-graph structure (channels, pending emissions,
//     kernel state, per-core scratch) and exposes process(kernel, core)
//     for the workers to call.
//   * ReadyNode carries (program, kernel), so one core's queue can
//     interleave kernels of different programs; a kernel still runs only
//     on the one core its mapping assigned, preserving the SPSC channel
//     and worker-private-state invariants from PR 1.
//
// Attach/detach protocol: attach() registers the program on the cores it
// uses (for paced-source wakeups) before the program seeds its initial
// ready nodes. detach() requires the program to be quiesced first —
// process() must have become a no-op — then removes it from the timed
// rosters, wakes every core, and waits for in-flight ready nodes to
// drain; after detach() returns, no worker holds a reference to the
// program and it is safe to destroy.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/graph.h"
#include "core/spsc_ring.h"

namespace bpp::rt {

class Program;

/// Whether a paced release due at machine time `due` has arrived at time
/// `t`. The one comparison the worker, Program::fire_due_sources and the
/// source loop share; 1 ns absorbs rounding in the seconds <-> clock
/// conversions.
[[nodiscard]] inline bool release_is_due(double t, double due) {
  return t + 1e-9 >= due;
}

/// How late this thread's timed waits return: a running mean of wake
/// time minus requested time. A worker waiting for a paced release or a
/// frame-close watch wakes this much early and polls the rest (DESIGN.md
/// §4.1). Worker-private.
class WakeMargin {
 public:
  /// Cap on one observation, and so on the estimate: about four times
  /// the lateness of a 1 ns-slack wait on an idle host. A later wake was
  /// a preemption, not timer lateness, and must not make the worker poll
  /// longer.
  static constexpr double kMaxSeconds = 20e-6;

  [[nodiscard]] double seconds() const { return seconds_; }
  void observe(double late_seconds) {
    seconds_ += (std::clamp(late_seconds, 0.0, kMaxSeconds) - seconds_) / 8;
  }

 private:
  double seconds_ = 10e-6;
};

/// Intrusive node of a per-core ready queue; one per (program, kernel).
/// A kernel is in at most one queue at a time (its program's ready bit
/// gates enqueueing), so the node is safe to reuse as soon as pop()
/// returns it. Padded: pushers onto different cores write the `next` of
/// nodes that would otherwise share a line (and the queue's stub would
/// share the consumer's pop_end_ line).
struct alignas(kCacheLineSize) ReadyNode {
  std::atomic<ReadyNode*> next{nullptr};
  Program* program = nullptr;
  KernelId kernel = -1;
};

/// Vyukov intrusive MPSC queue: any worker pushes ready kernels for a
/// core; only that core's worker pops. pop() may transiently report empty
/// while a push is mid-flight — the pusher runs the eventcount protocol
/// after its link store (Machine::enqueue), so a would-be sleeper either
/// sees the link in its final re-check or is woken.
class ReadyQueue {
 public:
  ReadyQueue() : push_end_(&stub_), pop_end_(&stub_) {}

  void push(ReadyNode* n) {
    n->next.store(nullptr, std::memory_order_relaxed);
    ReadyNode* prev = push_end_.exchange(n, std::memory_order_acq_rel);
    prev->next.store(n, std::memory_order_release);
  }

  ReadyNode* pop() {
    ReadyNode* tail = pop_end_;
    ReadyNode* next = tail->next.load(std::memory_order_acquire);
    if (tail == &stub_) {
      if (!next) return nullptr;
      pop_end_ = next;
      tail = next;
      next = next->next.load(std::memory_order_acquire);
    }
    if (next) {
      pop_end_ = next;
      return tail;
    }
    if (tail != push_end_.load(std::memory_order_acquire))
      return nullptr;  // push in flight; the pusher's wake will retry us
    push(&stub_);
    next = tail->next.load(std::memory_order_acquire);
    if (next) {
      pop_end_ = next;
      return tail;
    }
    return nullptr;  // competing push in flight; same recovery
  }

 private:
  alignas(kCacheLineSize) std::atomic<ReadyNode*> push_end_;
  alignas(kCacheLineSize) ReadyNode* pop_end_;  // worker-private
  ReadyNode stub_;
};

/// A running pipeline instance, as the machine sees it. Implemented by
/// the runtime's GraphProgram; the machine only ever calls these from the
/// worker owning `core`, and fire_due_sources while also holding that
/// core's roster lock.
class Program {
 public:
  /// `cores` is the size of the machine's pool the program will attach to.
  /// Only a program that `watches_closes` is asked for close_watch.
  explicit Program(int cores, bool watches_closes = false);
  virtual ~Program() = default;

  /// Run kernel `k` until it can make no more progress. Must return
  /// immediately once the program is quiesced.
  virtual void process(KernelId k, int core) = 0;

  /// Mark ready any of this core's paced sources whose release time (in
  /// machine seconds) has arrived, and return the earliest machine time
  /// one of the others still waits for (negative when none are armed).
  /// Called only when a release armed through Machine::arm_release is due.
  virtual double fire_due_sources(int core, double now_seconds) = 0;

  /// The machine time from which the worker for `core` should stay awake,
  /// polling its queue, because a frame of this program is closing: `lead`
  /// seconds before the frame's close is due, and only until the frame has
  /// closed or is past due. At most `now_seconds` while such a window is
  /// open, +inf while none is ahead. Asked only of a program constructed
  /// with `watches_closes`: when its worker would park and, inside a
  /// window, before each poll; an answer at or before `now_seconds` means
  /// the worker watches. Must not throw. Default: +inf.
  virtual double close_watch(int core, double now_seconds, double lead_seconds);

  /// The worker for `core` parked from t0 to t1 (machine seconds). Called
  /// once per park for every program attached to the core — with several
  /// tenants sharing a core, each tenant's trace sees the pool's idle
  /// spans. Default: ignore.
  virtual void record_park(int core, double t0_seconds, double t1_seconds);

  /// An exception escaped process() or fire_due_sources() on a worker.
  /// The pool contains it: the program is failed, never the machine — a
  /// throwing kernel must not take down co-tenants (DESIGN.md §8). The
  /// default quiesces the program; overrides should record `what` first.
  /// Called on the worker thread, possibly concurrently from several.
  virtual void on_worker_exception(int core, const char* what);

  /// Stop doing work: after this, process() must return without touching
  /// channels and fire_due_sources must not arm new kernels. Queued ready
  /// nodes drain as no-ops.
  void quiesce() { quiesced_.store(true, std::memory_order_release); }
  [[nodiscard]] bool quiesced() const {
    return quiesced_.load(std::memory_order_acquire);
  }
  /// True when none of this program's ready nodes is queued or running.
  [[nodiscard]] bool drained() const;

 private:
  friend class Machine;

  /// Ready nodes of this program queued and retired, counted by the thread
  /// that does it so no line is written by every worker. Slot c < cores
  /// belongs to core c's worker (plain load + store); the last slot takes
  /// enqueues from non-worker threads (an RMW: there may be several).
  /// queued - retired summed over the slots is the number of this
  /// program's nodes queued or being processed; detach() waits for zero.
  struct alignas(kCacheLineSize) NodeCount {
    std::atomic<long> queued{0};
    std::atomic<long> retired{0};
  };
  void count_queued(int self_core);
  void count_retired(int core);

  std::atomic<bool> quiesced_{false};
  bool watches_closes_;
  int cores_;
  std::unique_ptr<NodeCount[]> counts_;
};

/// The shared worker-core pool. Workers run a ready set, not a scan: a
/// kernel is processed only when something changed for it (see
/// DESIGN.md §4.1); parking uses a per-core eventcount, so an idle
/// machine burns no CPU regardless of how many programs are attached.
class Machine {
 public:
  explicit Machine(int cores);
  ~Machine();  // stops and joins the workers

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] int cores() const { return static_cast<int>(cores_.size()); }

  /// Seconds since the machine started — the common clock programs use
  /// for paced releases and trace timestamps.
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const {
    return epoch_;
  }

  /// Register `p` on the cores listed in `cores_used` (indices into this
  /// machine's pool) so their workers poll it for due paced sources. Call
  /// before seeding the program's initial ready nodes.
  void attach(Program* p, const std::vector<int>& cores_used);

  /// Unregister a quiesced program and wait until no worker holds a
  /// reference to it (all its queued ready nodes drained). The program
  /// must have been quiesced first.
  void detach(Program* p);

  /// Queue (program, kernel) on `core` and wake its worker if it sleeps.
  /// `self_core` is the calling worker's own core (a push onto one's own
  /// queue needs no wakeup), or -1 when called from a non-worker thread.
  /// The caller must have issued a seq_cst fence after the writes this
  /// readiness reports (the store/fence/load protocol, DESIGN.md §4.1).
  void enqueue(ReadyNode* n, int core, int self_core);

  /// Make the worker of `core` call fire_due_sources once machine time
  /// `t_seconds` arrives. Worker-private: call only from that worker
  /// (a paced source arming its next release from inside process()).
  void arm_release(int core, double t_seconds) {
    double& due = cores_[static_cast<size_t>(core)]->next_due;
    if (t_seconds < due) due = t_seconds;
  }

 private:
  /// Per-core parking lot + ready queue + roster of attached programs.
  /// The mutex/condvar exist only to sleep and wake the worker; the
  /// roster has its own lock (taken by the worker when a paced release is
  /// due or it parks, and by attach/detach).
  struct Core {
    ReadyQueue queue;
    alignas(kCacheLineSize) std::atomic<unsigned> epoch{0};
    std::atomic<int> sleepers{0};
    std::mutex mu;
    std::condition_variable cv;
    /// Programs with kernels on this core (guarded by roster_mu), and how
    /// many of them watch closes (written under roster_mu; the worker
    /// reads it unlocked to skip the roster when it is zero).
    mutable std::mutex roster_mu;
    std::vector<Program*> roster;
    std::atomic<int> watchers{0};
    /// Earliest machine time a paced release on this core is due; +inf
    /// when none is armed. Worker-private (arm_release, fire_due).
    alignas(kCacheLineSize) double next_due =
        std::numeric_limits<double>::infinity();
  };

  void worker(int core);
  /// Unconditional wakeup (stop, detach): bump the epoch and notify.
  void wake(Core& c);

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::thread> workers_;
  alignas(kCacheLineSize) std::atomic<bool> stop_{false};
};

}  // namespace bpp::rt
