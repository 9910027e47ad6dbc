#pragma once
// The "program" half of the host runtime: one running pipeline instance.
//
// A GraphProgram owns every per-graph structure — SPSC channels, pending
// emissions, per-kernel ready bits, per-core scratch, the paced-source
// release cursors, fault injection, degradation wiring, and the obs
// recorder session — and schedules itself onto a shared rt::Machine.
// run_threaded() wraps exactly one GraphProgram on a transient machine;
// the bpd service (src/service) attaches many to a persistent pool, each
// with its mapping's virtual cores translated onto pool cores.
//
// Lifecycle:
//   GraphProgram prog(g, mapping, opt, machine);
//   prog.set_on_complete(...);   // worker-thread callback; notify only —
//                                // never call finish() from inside it
//   prog.start();                // attach + seed the initial ready set
//   ... wait (done(), firings() for watchdogs, poll_recorder()) ...
//   RuntimeResult r = prog.finish();   // quiesce + detach + merge

#include <functional>
#include <memory>

#include "compiler/multiplex.h"
#include "core/graph.h"
#include "runtime/runtime.h"

namespace bpp {

namespace rt {
class Machine;
}  // namespace rt

class GraphProgram {
 public:
  /// Prepare `g` to run on `machine`. `mapping.core_of` values are
  /// machine-core indices (a multi-tenant caller translates its compiled
  /// virtual cores onto pool cores first); every value must be in
  /// [0, machine.cores()). The graph must outlive the program and its
  /// kernels mutate as it runs.
  GraphProgram(Graph& g, const Mapping& mapping, const RuntimeOptions& opt,
               rt::Machine& machine);
  ~GraphProgram();

  GraphProgram(const GraphProgram&) = delete;
  GraphProgram& operator=(const GraphProgram&) = delete;

  /// `fn` runs on a worker thread the moment every sink has consumed
  /// end-of-stream — or the program fails (check done()/failed() to tell
  /// which; a late co-firing fault can fire it twice, so treat it as a
  /// wakeup, not an event). Use it to notify a waiter; calling finish()
  /// from inside it would self-deadlock (finish drains the very node the
  /// callback runs under). Set before start().
  void set_on_complete(std::function<void()> fn);

  /// Attach to the machine and seed the initial ready set; workers start
  /// executing immediately.
  void start();

  [[nodiscard]] bool done() const;
  /// True once a kernel firing raised: the program quiesced itself and
  /// will make no further progress (the machine and co-tenant programs
  /// are unaffected). finish() reports the same via RuntimeResult.
  [[nodiscard]] bool failed() const;
  /// First failure message (empty while !failed()).
  [[nodiscard]] std::string error() const;

  /// Ask every source to retire at its next frame boundary — the same
  /// safe point frame-shedding uses — so in-flight frames complete but no
  /// new frame starts. Idempotent; call after start(). A drained program
  /// never reaches done() (sinks see no end-of-stream); poll
  /// sources_drained() plus a stable firings() count, then finish().
  void request_drain();
  /// True when every source has retired (drained at a frame boundary or
  /// naturally exhausted). Only meaningful after request_drain().
  [[nodiscard]] bool sources_drained() const;
  /// Total firings so far — the progress counter watchdogs compare.
  [[nodiscard]] long firings() const;
  /// Seconds since start() on the machine clock.
  [[nodiscard]] double elapsed_seconds() const;
  /// Frames shed so far (0 without a degradation controller).
  [[nodiscard]] long frames_shed() const;

  /// Drain the obs rings mid-run so sessions longer than the ring
  /// capacity keep every event. No-op without a recorder. Single
  /// consumer: call from one monitor thread only.
  void poll_recorder();

  /// Quiesce, detach from the machine, and merge the per-core tallies
  /// into a RuntimeResult (completed = done()). Idempotent; after the
  /// first call the program no longer executes.
  RuntimeResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bpp
