#include "runtime/runtime.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "core/error.h"
#include "obs/recorder.h"
#include "runtime/machine.h"
#include "runtime/program.h"

namespace bpp {

// The scheduling machinery lives in two halves since the bpd service
// landed: rt::Machine (machine.{h,cpp}) owns the worker-core pool —
// ready queues, eventcount parking, the worker loop — and GraphProgram
// (program.{h,cpp}) owns one running pipeline instance. run_threaded()
// is the single-tenant composition: a transient machine sized to the
// mapping, one program, and this thread as the completion latch,
// watchdog, and trace collector.

RuntimeResult run_threaded(Graph& g, const Mapping& mapping,
                           const RuntimeOptions& options) {
  if (static_cast<int>(mapping.core_of.size()) != g.kernel_count())
    throw ExecutionError("run_threaded: mapping does not cover the graph");

  rt::Machine machine(mapping.cores);
  GraphProgram prog(g, mapping, options, machine);

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  prog.set_on_complete([&] {
    {
      std::lock_guard<std::mutex> lk(mu);
      done = true;
    }
    cv.notify_all();
  });
  prog.start();

  // Completion latch + watchdog. The worker finishing the last sink
  // signals cv; otherwise we only wake once per watchdog window to
  // compare the firing counter — no polling loop. With a recorder
  // attached, this thread doubles as the trace collector: wake every few
  // ms to drain the per-core rings (SPSC, single consumer) so runs longer
  // than the ring capacity keep every event instead of shedding the
  // newest.
  bool watchdog_fired = false;
  std::string diagnostics;
  {
    long last_firings = prog.firings();
    auto last_change = std::chrono::steady_clock::now();
    const auto window =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options.watchdog_seconds));
    const bool polling = options.recorder != nullptr;
    std::unique_lock<std::mutex> lk(mu);
    while (!done) {
      const auto deadline = last_change + window;
      auto wake = deadline;
      if (polling) {
        const auto poll_at =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
        if (poll_at < wake) wake = poll_at;
      }
      if (cv.wait_until(lk, wake, [&] { return done; })) break;
      if (polling) prog.poll_recorder();
      if (wake < deadline) continue;  // poll tick, not the watchdog
      const long f = prog.firings();
      if (f != last_firings) {
        last_firings = f;
        last_change = std::chrono::steady_clock::now();
      } else {
        watchdog_fired = true;
        diagnostics = "watchdog: no progress for " +
                      std::to_string(options.watchdog_seconds) + "s";
        break;
      }
    }
  }

  RuntimeResult res = prog.finish();
  res.watchdog_fired = watchdog_fired;
  if (!diagnostics.empty()) res.diagnostics = diagnostics;
  // Single-tenant composition: a contained kernel fault becomes a thrown
  // error here (the multi-tenant daemon instead restarts/quarantines the
  // tenant; the machine survived either way).
  if (res.failed) throw ExecutionError("kernel fault: " + res.error);
  return res;
}

RuntimeResult run_sequential(Graph& g, const RuntimeOptions& options) {
  Mapping m;
  m.cores = 1;
  m.core_of.assign(static_cast<size_t>(g.kernel_count()), 0);
  return run_threaded(g, m, options);
}

}  // namespace bpp
