#include "runtime/machine.h"

#include <algorithm>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace bpp::rt {

namespace {

void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

Program::Program(int cores, bool watches_closes)
    : watches_closes_(watches_closes),
      cores_(std::max(cores, 1)),
      counts_(std::make_unique<NodeCount[]>(static_cast<size_t>(cores_) + 1)) {}

double Program::close_watch(int /*core*/, double /*now_seconds*/,
                            double /*lead_seconds*/) {
  return std::numeric_limits<double>::infinity();
}

void Program::record_park(int /*core*/, double /*t0_seconds*/,
                          double /*t1_seconds*/) {}

void Program::on_worker_exception(int /*core*/, const char* /*what*/) {
  quiesce();
}

void Program::count_queued(int self_core) {
  if (self_core < 0) {
    counts_[static_cast<size_t>(cores_)].queued.fetch_add(
        1, std::memory_order_relaxed);
    return;
  }
  std::atomic<long>& q = counts_[static_cast<size_t>(self_core)].queued;
  q.store(q.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

void Program::count_retired(int core) {
  // Release: everything the worker did with this program happens before
  // a detach() that reads this count.
  std::atomic<long>& r = counts_[static_cast<size_t>(core)].retired;
  r.store(r.load(std::memory_order_relaxed) + 1, std::memory_order_release);
}

bool Program::drained() const {
  // Retired counts first, then queued. A node is counted queued by the
  // thread that enqueues it: a worker processing another node of this
  // program (counted, not yet retired), a worker firing due releases
  // under the roster lock detach() took after it, or the owner thread.
  // So a retirement this pass sees makes every enqueue before it visible
  // to the queued pass, and a node still in flight leaves some counted
  // enqueue without its retirement: equal sums mean none is in flight,
  // and a quiesced program off the rosters enqueues no more.
  long retired = 0, queued = 0;
  for (int c = 0; c < cores_; ++c)
    retired += counts_[static_cast<size_t>(c)].retired.load(
        std::memory_order_acquire);
  for (int c = 0; c <= cores_; ++c)
    queued += counts_[static_cast<size_t>(c)].queued.load(
        std::memory_order_acquire);
  return queued == retired;
}

Machine::Machine(int cores) : epoch_(std::chrono::steady_clock::now()) {
  cores_.resize(static_cast<size_t>(std::max(cores, 1)));
  for (auto& c : cores_) c = std::make_unique<Core>();
  workers_.reserve(cores_.size());
  for (int c = 0; c < static_cast<int>(cores_.size()); ++c)
    workers_.emplace_back([this, c] { worker(c); });
}

Machine::~Machine() {
  // wake() locks each parking mutex after the store, so a worker either
  // sees stop_ in its wait predicate or is notified.
  stop_.store(true, std::memory_order_release);
  for (auto& c : cores_) wake(*c);
  for (std::thread& w : workers_) w.join();
}

void Machine::wake(Core& c) {
  c.epoch.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(c.mu);
  }
  c.cv.notify_all();
}

void Machine::attach(Program* p, const std::vector<int>& cores_used) {
  for (int c : cores_used) {
    Core& core = *cores_.at(static_cast<size_t>(c));
    std::lock_guard<std::mutex> lk(core.roster_mu);
    core.roster.push_back(p);
    if (p->watches_closes_)
      core.watchers.fetch_add(1, std::memory_order_relaxed);
  }
}

void Machine::detach(Program* p) {
  // The program must already be quiesced: its process() is a no-op and it
  // arms no new paced sources, so the queued nodes drain quickly.
  for (auto& c : cores_) {
    std::lock_guard<std::mutex> lk(c->roster_mu);
    const auto gone = std::remove(c->roster.begin(), c->roster.end(), p);
    if (gone != c->roster.end() && p->watches_closes_)
      c->watchers.fetch_sub(1, std::memory_order_relaxed);
    c->roster.erase(gone, c->roster.end());
  }
  // Wait for every queued ready node of `p` to be popped and retired.
  // Rare (one detach per program lifetime) and short (no-op drains), so a
  // wait loop beats wiring a condvar through the hot pop path. Re-wake
  // each iteration: a push that was mid-flight when a worker last polled
  // leaves its node invisible to that pop, and with the program quiesced
  // nobody else will bump the epoch again. The sleep keeps the re-wakes
  // from becoming a thundering herd while a faulted kernel of `p` stalls
  // mid-process — other programs still own these cores.
  while (!p->drained()) {
    for (auto& c : cores_) wake(*c);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void Machine::enqueue(ReadyNode* n, int core, int self_core) {
  n->program->count_queued(self_core);
  Core& c = *cores_[static_cast<size_t>(core)];
  c.queue.push(n);
  if (core == self_core) return;  // we are awake and re-poll before parking
  // Eventcount, waker side. seq_cst fence W: orders the queue link store
  // above before the sleepers load below; pairs with the sleeper's fence
  // S in worker() (sleepers++ before its final queue re-check). Either
  // the sleeper's re-check sees the link, or this load sees the sleeper.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (c.sleepers.load(std::memory_order_relaxed) == 0) return;
  // Release: a sleeper whose epoch read sees this bump also sees the link.
  c.epoch.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(c.mu);
  }
  c.cv.notify_all();
}

void Machine::worker(int core) {
  Core& sync = *cores_[static_cast<size_t>(core)];
  constexpr double kNever = std::numeric_limits<double>::infinity();
#ifdef __linux__
  // Timed waits for paced releases: 1 ns of slack instead of the default
  // 50 us. Affects only this thread.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  WakeMargin margin;

  // Exception containment: no exception may unwind through the worker
  // loop — that would std::terminate the whole pool and every co-tenant
  // with it. Escapees are routed to the owning program, which fails and
  // quiesces itself; its remaining queued nodes drain as no-ops.
  auto run_guarded = [&](Program* p, auto&& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      p->on_worker_exception(core, e.what());
    } catch (...) {
      p->on_worker_exception(core, "unknown exception");
    }
  };
  auto run_node = [&](ReadyNode* n) {
    Program* p = n->program;
    if (!p->quiesced())
      run_guarded(p, [&] { p->process(n->kernel, core); });
    p->count_retired(core);  // last touch: detach() may free p after it
  };

  // Paced releases: programs arm this core's deadline (arm_release) from
  // inside process(), so the clock is read only while one is armed and
  // the roster is locked only when one is due. The lock keeps detach()
  // free to destroy a program the moment its nodes drain.
  auto fire_due = [&](double t) {
    sync.next_due = kNever;
    std::lock_guard<std::mutex> lk(sync.roster_mu);
    for (Program* p : sync.roster)
      if (!p->quiesced())
        run_guarded(p, [&] {
          const double rel = p->fire_due_sources(core, t);
          if (rel >= 0.0 && rel < sync.next_due) sync.next_due = rel;
        });
  };

  // Frame-close watches: the earliest machine time from which a program on
  // this core wants the worker awake for a closing frame. Under the roster
  // lock, for the same reason as fire_due; not taken while no program on
  // the core watches (a stale count only skips or wastes one look).
  auto watch_from = [&](double t) {
    double from = kNever;
    if (sync.watchers.load(std::memory_order_relaxed) == 0) return from;
    std::lock_guard<std::mutex> lk(sync.roster_mu);
    for (Program* p : sync.roster)
      if (p->watches_closes_ && !p->quiesced())
        from = std::min(from, p->close_watch(core, t, margin.seconds()));
    return from;
  };

  while (!stop_.load(std::memory_order_acquire)) {
    if (sync.next_due != kNever) {
      const double t = now();
      if (release_is_due(t, sync.next_due)) fire_due(t);
    }
    if (ReadyNode* n = sync.queue.pop()) {
      run_node(n);
      continue;
    }

    // Park: eventcount protocol, sleeper side. Announce (sleepers++),
    // seq_cst fence S (pairs with the waker's fence W in enqueue), then
    // load the epoch and re-check the queue. A waker that pushed before
    // S is seen by the re-check; one that pushes after sees the
    // announcement and bumps the epoch, which the wait below observes.
    sync.sleepers.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const unsigned e = sync.epoch.load(std::memory_order_acquire);
    if (ReadyNode* n = sync.queue.pop()) {
      sync.sleepers.fetch_sub(1, std::memory_order_relaxed);
      run_node(n);
      continue;
    }
    const double t_park = now();
    if (stop_.load(std::memory_order_acquire) ||
        release_is_due(t_park, sync.next_due)) {
      sync.sleepers.fetch_sub(1, std::memory_order_relaxed);
      continue;  // the loop head stops or fires the due release
    }
    // Stay awake from `margin` before an armed release, and from the
    // start of a frame-close watch, since a timed wait returns late by
    // about the margin; sleep until then.
    const double wake =
        std::min(sync.next_due - margin.seconds(), watch_from(t_park));
    bool polling = t_park >= wake;
    if (!polling) {
      std::unique_lock<std::mutex> lk(sync.mu);
      const auto pred = [&] {
        return sync.epoch.load(std::memory_order_acquire) != e ||
               stop_.load(std::memory_order_acquire);
      };
      if (wake != kNever) {
        const auto deadline =
            epoch_ +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(wake));
        if (!sync.cv.wait_until(lk, deadline, pred)) {
          margin.observe(now() - wake);
          polling = true;
        }
      } else {
        sync.cv.wait(lk, pred);
      }
    }
    sync.sleepers.fetch_sub(1, std::memory_order_relaxed);
    // Polling, the worker is no sleeper: cross-core enqueuers skip the
    // notify, as for any awake worker, and the pops below see their
    // pushes. A node that arrives runs now, before the release. The poll
    // ends when the release is due, or, with none near, when no frame is
    // closing any more.
    ReadyNode* arrived = nullptr;
    while (polling && !(arrived = sync.queue.pop()) &&
           !stop_.load(std::memory_order_acquire)) {
      const double t = now();
      if (release_is_due(t, sync.next_due) ||
          (t < sync.next_due - margin.seconds() && watch_from(t) > t))
        break;
      cpu_pause();
    }
    {
      const double t_wake = now();
      std::lock_guard<std::mutex> lk(sync.roster_mu);
      for (Program* p : sync.roster)
        if (!p->quiesced()) p->record_park(core, t_park, t_wake);
    }
    if (arrived) run_node(arrived);
  }
}

}  // namespace bpp::rt
