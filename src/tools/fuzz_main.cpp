// bpp_fuzz — seeded end-to-end fuzz harness (the CI fuzz matrix entry
// point). One invocation = one seed: build a random kernel chain, compile
// it, then
//
//   1. simulate it twice and require bit-identical traces and degradation
//      reports (replay determinism — with --faulted this exercises the
//      fault injector's counter-based hashing),
//   2. execute it on host threads (fault-injected when --faulted) and
//      require bit-exact output against the composed scalar reference —
//      faults perturb timing only, never values — and the simulator's
//      count of injected faults.
//
// On failure it prints the exact repro command and exits 1; --trace FILE
// saves the host run's Chrome trace so CI can upload it as an artifact.
//
//   bpp_fuzz --seed 3
//   bpp_fuzz --seed 3 --faulted --trace fuzz-3.json
//   bpp_fuzz --seed 3 --isa avx2   # pin the kernel backend (A/B vs scalar)
//   bpp_fuzz --seed 3 --predict    # + differential prediction check:
//                                  # predicted steady period must track an
//                                  # unfaulted simulation within 0.5%
//   bpp_fuzz --seed 3 --recovery   # supervision/journal scenario instead:
//                                  # a crashing tenant (kThrow or kWedge by
//                                  # seed) must quarantine without touching
//                                  # its co-tenant, a drained tenant must
//                                  # resume via journal recovery

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/pipelines.h"
#include "apps/random_chain.h"
#include "compiler/pipeline.h"
#include "fault/degradation.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "kernels/kernels.h"
#include "kernels/simd/simd.h"
#include "obs/deadline.h"
#include "obs/frames.h"
#include "obs/recorder.h"
#include "predict/predict.h"
#include "ref/reference.h"
#include "runtime/runtime.h"
#include "service/daemon.h"
#include "service/journal.h"
#include "sim/simulator.h"

using namespace bpp;
using apps::random_stages;
using apps::splitmix;
using apps::Stage;

namespace {

// An aggressive-but-bounded plan: every fault class is on, so any
// value-corrupting or determinism-breaking path in the injector or the
// engines gets hammered by the CI matrix.
fault::FaultPlan fuzz_plan(std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  fault::KernelRule kr;
  kr.match = "*";
  kr.jitter = 0.3;
  kr.overrun_prob = 0.1;
  kr.overrun_factor = 4.0;
  kr.stall_prob = 0.02;
  kr.stall_seconds = 1e-4;
  plan.kernels.push_back(kr);
  fault::CoreRule cr;
  cr.core = 1;
  cr.throttle = 1.5;
  plan.cores.push_back(cr);
  fault::DeliveryRule dr;
  dr.match = "stage*";
  dr.prob = 0.05;
  dr.delay_seconds = 5e-5;
  plan.delivery.push_back(dr);
  return plan;
}

struct SimFingerprint {
  std::string trace_json;
  std::string degradation_json;
  long firings = 0;
  long faults = 0;
};

SimFingerprint simulate_once(const CompiledApp& app,
                             const fault::Injector* inj) {
  Graph g = app.graph.clone();
  obs::Recorder rec;
  SimOptions sopt;
  sopt.recorder = &rec;
  sopt.injector = inj;
  const SimResult r = simulate(g, app.mapping, sopt);
  SimFingerprint fp;
  fp.firings = r.total_firings;
  fp.faults = r.faults_injected;
  std::ostringstream ts;
  obs::write_chrome_trace(rec.trace(), ts);
  fp.trace_json = ts.str();
  const obs::FrameReport frames = obs::analyze_frames(rec.trace());
  const obs::DeadlineOptions dopt = declared_schedule(app, 1.0);
  obs::DeadlineMonitor mon(dopt);
  mon.observe(frames);
  fp.degradation_json = fault::write_degradation_json(
      fault::build_degradation_report(mon.verdicts(), {}, dopt.rate_hz, 0.0));
  return fp;
}

int usage() {
  std::fprintf(stderr,
               "usage: bpp_fuzz --seed N [--faulted] [--predict] [--recovery] "
               "[--isa NAME] [--trace FILE]\n");
  return 2;
}

/// --recovery: a seeded supervision/journal scenario against the real
/// daemon. Three tenants: one short clean pipeline, one that fails
/// deterministically (kThrow or kWedge chosen by the seed) and must burn
/// its restart budget into quarantine without disturbing the clean
/// tenant, and one long runner that gets drained mid-stream and must
/// resume to completion in a second daemon recovered from the journal.
int run_recovery(std::uint64_t seed, const std::string& repro) {
  namespace fs = std::filesystem;
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "FAIL seed=%llu: %s\n  %s\n",
                 static_cast<unsigned long long>(seed), why.c_str(),
                 repro.c_str());
    return 1;
  };

  const bool wedge = (seed & 1) != 0;
  const int max_restarts = 1 + static_cast<int>(seed % 3);
  const std::string journal_path =
      (fs::temp_directory_path() /
       ("bpp-fuzz-recovery-" + std::to_string(seed) + ".journal"))
          .string();
  std::error_code ec;
  fs::remove(journal_path, ec);

  service::DaemonOptions opt;
  opt.cores = 4;
  opt.max_restarts = max_restarts;
  opt.restart_backoff_seconds = 0.01;
  opt.stall_factor = 8.0;
  opt.stall_grace_seconds = 0.3;
  opt.journal_path = journal_path;
  opt.evict_misses = 0;  // this scenario tests supervision, not eviction

  service::TenantSpec clean;
  clean.name = "clean";
  clean.app = (seed >> 1) % 2 == 0 ? "fig1" : "sobel";
  clean.frame = {32, 24};
  clean.rate_hz = 20.0;
  clean.frames = 4;
  clean.slack_seconds = 0.05;

  service::TenantSpec faulty;
  faulty.name = "faulty";
  faulty.app = "fig1";
  faulty.frame = {32, 24};
  faulty.rate_hz = 50.0;
  faulty.frames = 5;
  faulty.slack_seconds = 0.05;
  {
    fault::FaultPlan plan;
    plan.seed = seed;
    fault::KernelRule kr;
    kr.match = "merge*";
    if (wedge)
      kr.wedge_prob = 1.0;
    else
      kr.throw_prob = 1.0;
    plan.kernels.push_back(kr);
    faulty.fault_plan_json = fault::write_plan(plan);
  }

  service::TenantSpec longrun;
  longrun.name = "longrun";
  longrun.app = "fig1";
  longrun.frame = {32, 24};
  longrun.rate_hz = 100.0;
  longrun.frames = 400;  // ~4s paced; drained long before completion
  // Generous slack: this scenario asserts supervision mechanics, not
  // tight real-time margins, and CI machines are noisy.
  longrun.slack_seconds = 0.25;

  int clean_id = -1, faulty_id = -1, longrun_id = -1;
  {
    service::Daemon daemon(opt);
    clean_id = daemon.submit(clean);
    faulty_id = daemon.submit(faulty);
    longrun_id = daemon.submit(longrun);
    for (int id : {clean_id, faulty_id, longrun_id})
      if (daemon.tenant(id).state != service::TenantState::kRunning)
        return fail("tenant " + std::to_string(id) + " not admitted: " +
                    daemon.tenant(id).reason);

    // Wait for the faulty tenant to quarantine and the clean one to
    // complete; the long runner keeps going.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      const auto fs_ = daemon.tenant(faulty_id).state;
      const auto cs = daemon.tenant(clean_id).state;
      if (fs_ == service::TenantState::kQuarantined &&
          cs == service::TenantState::kCompleted)
        break;
      if (std::chrono::steady_clock::now() > deadline)
        return fail(std::string("timeout waiting for quarantine: faulty=") +
                    service::state_name(fs_) + " clean=" +
                    service::state_name(cs));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    const service::TenantStatus fst = daemon.tenant(faulty_id);
    if (fst.restarts != max_restarts)
      return fail("faulty tenant restarts=" + std::to_string(fst.restarts) +
                  ", want " + std::to_string(max_restarts));
    const service::TenantStatus cst = daemon.tenant(clean_id);
    if (cst.deadline_misses != 0)
      return fail("clean co-tenant missed " +
                  std::to_string(cst.deadline_misses) + " deadlines");
    if (cst.faults_injected != 0)
      return fail("clean co-tenant saw injected faults");

    if (daemon.tenant(longrun_id).state != service::TenantState::kRunning)
      return fail("long runner finished before the drain; raise frames");
    if (!daemon.drain(10.0)) return fail("drain timed out");
    const service::TenantStatus lst = daemon.tenant(longrun_id);
    if (lst.state != service::TenantState::kDrained)
      return fail(std::string("long runner state after drain: ") +
                  service::state_name(lst.state));
    if (lst.deadline_misses != 0)
      return fail("long runner missed deadlines before the drain");
    std::printf(
        "recovery: phase 1 ok (%s fault, %d restarts, drained at frame "
        "%ld)\n",
        wedge ? "wedge" : "throw", fst.restarts, lst.frames_completed);
  }

  // Round-trip the journal itself.
  const std::vector<service::JournalEntry> entries =
      service::replay_journal(journal_path);
  if (entries.size() != 3)
    return fail("journal replay: " + std::to_string(entries.size()) +
                " entries, want 3");
  if (entries[static_cast<size_t>(faulty_id)].state != "quarantined" ||
      entries[static_cast<size_t>(faulty_id)].restarts != max_restarts)
    return fail("journal lost the quarantine decision");
  const service::JournalEntry& le =
      entries[static_cast<size_t>(longrun_id)];
  if (le.state != "drained" || !le.resumable() || !le.has_spec)
    return fail("journal: long runner not resumable (state " + le.state +
                ")");

  // Recover into a fresh daemon: terminal states frozen, the drained
  // tenant re-admitted and run to completion.
  service::DaemonOptions opt2 = opt;
  opt2.journal_path.clear();
  service::Daemon daemon2(opt2);
  const int resumed = daemon2.recover(journal_path);
  if (resumed != 1)
    return fail("recover resumed " + std::to_string(resumed) + ", want 1");
  if (daemon2.tenant(faulty_id).state != service::TenantState::kQuarantined)
    return fail("quarantine did not survive recovery");
  if (daemon2.tenant(faulty_id).restarts != max_restarts)
    return fail("restart count did not survive recovery");
  if (daemon2.tenant(clean_id).state != service::TenantState::kCompleted)
    return fail("completed co-tenant did not survive recovery");
  if (!daemon2.wait_idle(30.0))
    return fail("resumed long runner did not finish");
  const service::TenantStatus lst2 = daemon2.tenant(longrun_id);
  if (lst2.state != service::TenantState::kCompleted)
    return fail(std::string("resumed long runner state: ") +
                service::state_name(lst2.state));
  if (lst2.frames_completed != longrun.frames)
    return fail("resumed long runner completed " +
                std::to_string(lst2.frames_completed) + "/" +
                std::to_string(longrun.frames) + " frames");

  fs::remove(journal_path, ec);
  std::printf("OK seed=%llu (recovery, %s fault)\n",
              static_cast<unsigned long long>(seed),
              wedge ? "wedge" : "throw");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0;
  bool seed_set = false;
  bool faulted = false;
  bool predict_mode = false;
  bool recovery_mode = false;
  std::string isa_arg;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      seed_set = true;
    } else if (flag == "--faulted") {
      faulted = true;
    } else if (flag == "--predict") {
      predict_mode = true;
    } else if (flag == "--recovery") {
      recovery_mode = true;
    } else if (flag == "--isa" && i + 1 < argc) {
      isa_arg = argv[++i];
    } else if (flag == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (!seed_set) return usage();

  if (!isa_arg.empty()) {
    const auto isa = simd::isa_from_name(isa_arg);
    if (!isa || !simd::supported(*isa)) {
      std::fprintf(stderr, "bpp_fuzz: unknown or unsupported ISA '%s'\n",
                   isa_arg.c_str());
      return 2;
    }
    simd::set_isa(*isa);
  }

  const std::string repro =
      std::string("repro: bpp_fuzz --seed ") + std::to_string(seed) +
      (faulted ? " --faulted" : "") + (predict_mode ? " --predict" : "") +
      (recovery_mode ? " --recovery" : "") +
      (isa_arg.empty() ? "" : " --isa " + isa_arg);
  std::printf("kernel backend: %s\n", simd::ops().name);

  if (recovery_mode) {
    try {
      return run_recovery(seed, repro);
    } catch (const Error& e) {
      std::fprintf(stderr, "FAIL seed=%llu: exception: %s\n  %s\n",
                   static_cast<unsigned long long>(seed), e.what(),
                   repro.c_str());
      return 1;
    }
  }
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "FAIL seed=%llu: %s\n  %s\n",
                 static_cast<unsigned long long>(seed), why.c_str(),
                 repro.c_str());
    return 1;
  };

  try {
    std::uint64_t rng = 0xF0221ULL ^ (seed << 17);
    const Size2 frame{static_cast<int>(20 + splitmix(rng) % 16),
                      static_cast<int>(18 + splitmix(rng) % 10)};
    const double rate = 50.0 + static_cast<double>(splitmix(rng) % 300);
    const int nframes = 2;
    Size2 left = frame;
    const std::vector<Stage> stages = random_stages(rng, 4, left);

    Graph g;
    Kernel* prev = &g.add<InputKernel>("input", frame, rate, nframes);
    for (size_t i = 0; i < stages.size(); ++i) {
      Kernel* k = stages[i].append(g, static_cast<int>(i));
      g.connect(*prev, "out", *k, "in");
      prev = k;
    }
    auto& out = g.add<OutputKernel>("result");
    g.connect(*prev, "out", out, "in");

    CompileOptions opt;
    if (splitmix(rng) & 1) opt.machine.clock_hz /= 2;
    CompiledApp app = compile(std::move(g), opt);
    std::printf("seed=%llu frame=%dx%d stages=%zu faulted=%d\n",
                static_cast<unsigned long long>(seed), frame.w, frame.h,
                stages.size(), faulted ? 1 : 0);

    // Differential prediction check: the analytic steady period must
    // track an unfaulted simulation of the same seed (faults perturb the
    // timeline by design, so the faulted runs are not comparable).
    if (predict_mode) {
      const predict::Prediction pred = predict::predict(app);
      Graph pg = app.graph.clone();
      SimOptions psopt;
      psopt.machine = app.options.machine;
      const SimResult pr = simulate(pg, app.mapping, psopt);
      if (!pr.completed) return fail("predict-mode simulation incomplete");
      const double sim = pr.steady_frame_period();
      if (sim <= 0.0) return fail("predict-mode: no steady frame period");
      const double rel = std::fabs(sim - pred.steady_period_seconds) / sim;
      std::printf("predict: exact=%d period=%.6gs sim=%.6gs rel=%.3g\n",
                  pred.exact ? 1 : 0, pred.steady_period_seconds, sim, rel);
      if (rel > 0.005)
        return fail("predicted period deviates " + std::to_string(rel) +
                    " (> 0.005) from the simulator");
    }

    const fault::FaultPlan plan = fuzz_plan(seed);
    fault::Injector inj(plan, seed);
    const fault::Injector* injp = faulted ? &inj : nullptr;

    // 1. Replay determinism on the simulator.
    const SimFingerprint fa = simulate_once(app, injp);
    const SimFingerprint fb = simulate_once(app, injp);
    if (fa.trace_json != fb.trace_json)
      return fail("simulator trace differs between identical runs");
    if (fa.degradation_json != fb.degradation_json)
      return fail("degradation report differs between identical runs");
    std::printf("sim: firings=%ld faults=%ld trace=%zu bytes, replay ok\n",
                fa.firings, fa.faults, fa.trace_json.size());

    // 2. Host run vs the composed scalar reference.
    obs::Recorder rec;
    RuntimeOptions ropt;
    ropt.recorder = &rec;
    ropt.injector = injp;
    const RuntimeResult r = run_threaded(app.graph, app.mapping, ropt);
    if (!trace_path.empty()) {
      std::ofstream f(trace_path);
      obs::write_chrome_trace(rec.trace(), f);
      std::printf("wrote %s\n", trace_path.c_str());
    }
    if (!r.completed) return fail("host run did not complete");

    const auto& res =
        dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
    if (res.frames().size() != static_cast<size_t>(nframes))
      return fail("expected " + std::to_string(nframes) + " frames, got " +
                  std::to_string(res.frames().size()));
    for (int f = 0; f < nframes; ++f) {
      Tile want = ref::make_frame(frame, f, default_pixel_fn());
      for (const Stage& s : stages) want = s.reference(want);
      const Tile& got = res.frames()[static_cast<size_t>(f)];
      if (got.size() != want.size())
        return fail("frame " + std::to_string(f) + " size mismatch");
      for (int y = 0; y < want.height(); ++y)
        for (int x = 0; x < want.width(); ++x)
          if (std::fabs(got.at(x, y) - want.at(x, y)) > 1e-9)
            return fail("frame " + std::to_string(f) + " differs at (" +
                        std::to_string(x) + "," + std::to_string(y) +
                        "): got " + std::to_string(got.at(x, y)) +
                        " want " + std::to_string(want.at(x, y)));
    }
    std::printf("run: firings=%ld faults=%ld, %d frames bit-exact\n",
                r.total_firings, r.faults_injected, nframes);
    // Both engines key every perturbation on the same per-kernel index,
    // so they must perturb the same firings and releases.
    if (r.faults_injected != fa.faults)
      return fail("host counted " + std::to_string(r.faults_injected) +
                  " faults, the simulator " + std::to_string(fa.faults));
  } catch (const Error& e) {
    return fail(std::string("exception: ") + e.what());
  }
  std::printf("OK seed=%llu%s\n", static_cast<unsigned long long>(seed),
              faulted ? " (faulted)" : "");
  return 0;
}
