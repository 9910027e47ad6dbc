// Observability subsystem: event-ring overflow semantics, recorder
// sessions, Chrome trace-event JSON well-formedness, metrics registry
// dumps, and the Fig. 13 utilization analysis on hand-built timelines.

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "apps/pipelines.h"
#include "compiler/pipeline.h"
#include "compiler/report.h"
#include "kernels/input.h"
#include "obs/analysis.h"
#include "obs/critical_path.h"
#include "obs/deadline.h"
#include "obs/event_ring.h"
#include "obs/frames.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace bpp {
namespace {

using obs::EventKind;
using obs::EventRing;
using obs::Recorder;
using obs::Trace;
using obs::TraceClock;
using obs::TraceEvent;

// --- A minimal recursive-descent JSON parser, just enough to check that
// --- our exports are well-formed and to pull a few values back out.

class JsonParser {
 public:
  explicit JsonParser(std::string s) : s_(std::move(s)) {}

  // Validates the whole input is exactly one JSON value (+ whitespace).
  bool valid() {
    pos_ = 0;
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

  // Counts occurrences of `"key":` at any depth (string-aware, so keys
  // inside string values do not count).
  int count_keys(const std::string& key) {
    const std::string want = '"' + key + '"';
    int n = 0;
    pos_ = 0;
    while (pos_ < s_.size()) {
      if (s_[pos_] == '"') {
        const std::size_t start = pos_;
        if (!string_lit()) return -1;
        const std::string token = s_.substr(start, pos_ - start);
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ':' && token == want) ++n;
      } else {
        ++pos_;
      }
    }
    return n;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string_lit() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control characters must be escaped
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_lit();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string_lit()) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      if (!value()) return false;
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string s_;
  std::size_t pos_ = 0;
};

TraceEvent firing(double t0, double t1, int core, int kernel, float run = 0,
                  float read = 0, float write = 0) {
  TraceEvent e;
  e.t0 = t0;
  e.t1 = t1;
  e.core = core;
  e.kernel = kernel;
  e.aux0 = run;
  e.aux1 = read;
  e.aux2 = write;
  e.kind = EventKind::kFiring;
  return e;
}

// --- EventRing -----------------------------------------------------------

TEST(EventRing, KeepsOldestAndCountsDrops) {
  EventRing ring(8);
  const std::size_t cap = ring.capacity();
  for (int i = 0; i < static_cast<int>(cap) + 5; ++i)
    ring.emit(firing(i, i + 1, 0, i));
  EXPECT_EQ(ring.dropped(), 5u);

  std::vector<TraceEvent> out;
  ring.drain_into(out);
  ASSERT_EQ(out.size(), cap);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].kernel, static_cast<int>(i));  // first-N kept
}

TEST(EventRing, WrapsAroundAfterDrain) {
  EventRing ring(4);
  const std::size_t cap = ring.capacity();
  std::vector<TraceEvent> out;
  // Several full fill/drain rounds exercise index wraparound.
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < cap; ++i)
      ring.emit(firing(round, round + 1, 0, static_cast<int>(i)));
    out.clear();
    ring.drain_into(out);
    ASSERT_EQ(out.size(), cap) << "round " << round;
    for (std::size_t i = 0; i < cap; ++i)
      EXPECT_EQ(out[i].kernel, static_cast<int>(i));
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

// --- Recorder ------------------------------------------------------------

TEST(Recorder, MergesRingsSortedAndDerivesMetrics) {
  Recorder rec(obs::RecorderOptions{/*ring_capacity=*/16});
  rec.begin_session(TraceClock::kWall, 0.0, 2, {"a", "b"});
  // Emit out of order across the two rings; the collector must sort by t0.
  rec.ring(0)->emit(firing(0.030, 0.031, 0, 0));
  rec.ring(1)->emit(firing(0.010, 0.012, 1, 1));
  rec.ring(0)->emit(firing(0.050, 0.051, 0, 0));
  TraceEvent rel;
  rel.t0 = rel.t1 = 0.020;
  rel.kind = EventKind::kSourceRelease;
  rel.aux0 = 0.004f;  // lag
  rel.aux1 = 1.0f;    // delayed
  rec.ring(0)->emit(rel);

  const Trace& t = rec.finish_session(0.060);
  ASSERT_EQ(t.events.size(), 4u);
  for (std::size_t i = 1; i < t.events.size(); ++i)
    EXPECT_LE(t.events[i - 1].t0, t.events[i].t0);
  EXPECT_EQ(t.cores, 2);
  EXPECT_EQ(t.clock, TraceClock::kWall);
  EXPECT_DOUBLE_EQ(t.duration_seconds, 0.060);
  EXPECT_EQ(t.kernel_name(0), "a");
  EXPECT_EQ(t.kernel_name(1), "b");

  EXPECT_EQ(rec.metrics().counter("trace.firings").value(), 3);
  EXPECT_EQ(rec.metrics().counter("trace.releases").value(), 1);
  EXPECT_EQ(rec.metrics().counter("trace.delayed_releases").value(), 1);
  EXPECT_EQ(rec.metrics().counter("trace.dropped_events").value(), 0);
}

TEST(Recorder, AccumulatesRingOverflowIntoTrace) {
  Recorder rec(obs::RecorderOptions{/*ring_capacity=*/4});
  rec.begin_session(TraceClock::kWall, 0.0, 1, {"k"});
  const std::size_t cap = rec.ring(0)->capacity();
  for (std::size_t i = 0; i < cap + 7; ++i)
    rec.ring(0)->emit(firing(static_cast<double>(i), i + 0.5, 0, 0));
  const Trace& t = rec.finish_session(100.0);
  EXPECT_EQ(t.events.size(), cap);
  EXPECT_EQ(t.dropped_events, 7u);
}

TEST(Recorder, BeginSessionResetsPreviousSession) {
  Recorder rec;
  rec.begin_session(TraceClock::kWall, 0.0, 1, {"k"});
  rec.ring(0)->emit(firing(1.0, 2.0, 0, 0));
  (void)rec.finish_session(3.0);
  ASSERT_EQ(rec.trace().events.size(), 1u);

  rec.begin_session(TraceClock::kModeled, 1e6, 1, {"k"});
  const Trace& t = rec.finish_session(0.5);
  EXPECT_TRUE(t.events.empty());
  EXPECT_EQ(t.clock, TraceClock::kModeled);
}

// --- Chrome trace-event export -------------------------------------------

TEST(ChromeTrace, ExportIsParseableJson) {
  Recorder rec;
  // Names with JSON-hostile characters must be escaped on export.
  rec.begin_session(TraceClock::kModeled, 1e6, 2,
                    {"plain", "quo\"te\\back\nline"});
  rec.ring(0)->emit(firing(0.0, 1e-3, 0, 0, 600, 100, 200));
  TraceEvent w;
  w.t0 = 2e-3;
  w.t1 = 3e-3;
  w.core = 1;
  w.kernel = 1;
  w.aux2 = 500;
  w.kind = EventKind::kWrite;
  rec.ring(1)->emit(w);
  TraceEvent rel;
  rel.t0 = rel.t1 = 1.5e-3;
  rel.kind = EventKind::kSourceRelease;
  rec.ring(0)->emit(rel);
  TraceEvent push;
  push.t0 = push.t1 = 1.6e-3;
  push.channel = 3;
  push.aux0 = 2;
  push.kind = EventKind::kChannelPush;
  rec.ring(0)->emit(push);
  const Trace& t = rec.finish_session(4e-3);

  std::ostringstream os;
  obs::write_chrome_trace(t, os);
  const std::string json = os.str();

  JsonParser p(json);
  EXPECT_TRUE(p.valid()) << json;
  EXPECT_EQ(p.count_keys("traceEvents"), 1);
  // One "X" per firing/write span (plus park spans, none here).
  EXPECT_GE(p.count_keys("dur"), 2);
  // The hostile name must appear escaped, never raw.
  EXPECT_EQ(json.find("quo\"te"), std::string::npos);
  EXPECT_NE(json.find("quo\\\"te\\\\back\\nline"), std::string::npos);
}

TEST(ChromeTrace, EmptyTraceStillParses) {
  Trace t;
  std::ostringstream os;
  obs::write_chrome_trace(t, os);
  JsonParser p(os.str());
  EXPECT_TRUE(p.valid()) << os.str();
}

// --- Metrics registry ----------------------------------------------------

TEST(Metrics, InstrumentsAndDumps) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").add(3);
  reg.counter("a.count").add(2);
  reg.gauge("b.level").set(0.25);
  reg.high_water("c.peak").update(7);
  reg.high_water("c.peak").update(4);  // lower value must not win
  reg.histogram("d.lat").observe(3e-6);
  reg.histogram("d.lat").observe(5e-6);
  reg.histogram("d.lat").observe(0.0);

  EXPECT_EQ(reg.counter("a.count").value(), 5);
  EXPECT_DOUBLE_EQ(reg.gauge("b.level").value(), 0.25);
  EXPECT_DOUBLE_EQ(reg.high_water("c.peak").value(), 7.0);
  EXPECT_EQ(reg.histogram("d.lat").count(), 3);
  EXPECT_DOUBLE_EQ(reg.histogram("d.lat").max(), 5e-6);

  std::ostringstream text;
  reg.write_text(text);
  EXPECT_NE(text.str().find("a.count counter 5"), std::string::npos);
  EXPECT_NE(text.str().find("c.peak high_water 7"), std::string::npos);

  std::ostringstream json;
  reg.write_json(json);
  JsonParser p(json.str());
  EXPECT_TRUE(p.valid()) << json.str();
  EXPECT_EQ(p.count_keys("counters"), 1);
  EXPECT_EQ(p.count_keys("histograms"), 1);
  EXPECT_EQ(p.count_keys("a.count"), 1);
}

TEST(Metrics, HistogramBucketsAreCumulativeUpperBounds) {
  obs::Histogram h;
  h.observe(1.5e-9);  // just above base -> bucket 1 (le 2e-9)
  h.observe(3e-9);    // bucket 2 (le 4e-9)
  long total = 0;
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    const auto n = h.bucket(i);
    total += n;
    if (n > 0) {
      EXPECT_GT(obs::Histogram::bucket_upper(i), 0.0);
    }
  }
  EXPECT_EQ(total, h.count());
  EXPECT_LT(obs::Histogram::bucket_upper(0),
            obs::Histogram::bucket_upper(1));
}

// --- Utilization analysis ------------------------------------------------

TEST(Analysis, ModeledTwoCoreBreakdown) {
  Trace t;
  t.clock = TraceClock::kModeled;
  t.cycles_per_second = 1e6;
  t.cores = 2;
  t.duration_seconds = 0.002;
  t.kernel_names = {"k0", "k1"};
  // Core 0: one firing spanning 1000 cycles = 1 ms, split 600 run /
  // 100 read / 200 write, leaving 100 cycles unattributed ("other").
  t.events.push_back(firing(0.0, 0.001, 0, 0, 600, 100, 200));
  // Core 1: a back-pressure drain worth 500 write cycles.
  TraceEvent w;
  w.t0 = 0.0;
  w.t1 = 0.0005;
  w.core = 1;
  w.kernel = 1;
  w.aux2 = 500;
  w.kind = EventKind::kWrite;
  t.events.push_back(w);

  const obs::UtilizationReport u = obs::analyze_utilization(t);
  ASSERT_EQ(u.cores.size(), 2u);
  EXPECT_EQ(u.clock, TraceClock::kModeled);
  EXPECT_DOUBLE_EQ(u.duration_seconds, 0.002);

  const obs::CoreBreakdown& c0 = u.cores[0];
  EXPECT_NEAR(c0.run_seconds, 600e-6, 1e-12);
  EXPECT_NEAR(c0.read_seconds, 100e-6, 1e-12);
  EXPECT_NEAR(c0.write_seconds, 200e-6, 1e-12);
  EXPECT_NEAR(c0.other_seconds, 100e-6, 1e-9);
  EXPECT_NEAR(c0.idle_seconds, 0.001, 1e-9);
  EXPECT_EQ(c0.firings, 1);

  const obs::CoreBreakdown& c1 = u.cores[1];
  EXPECT_NEAR(c1.write_seconds, 500e-6, 1e-12);
  EXPECT_EQ(c1.firings, 0);  // kWrite spans are not firings
  EXPECT_NEAR(c1.idle_seconds, 0.0015, 1e-9);

  // Only core 0 fired, so the average covers core 0 alone: 1 ms / 2 ms.
  EXPECT_NEAR(u.avg_utilization(), 0.5, 1e-9);
}

TEST(Analysis, WallClockReleasesAndLag) {
  Trace t;
  t.clock = TraceClock::kWall;
  t.cores = 1;
  t.duration_seconds = 0.010;
  t.kernel_names = {"src"};
  for (int i = 0; i < 3; ++i) {
    TraceEvent rel;
    rel.t0 = rel.t1 = i * 1e-3;
    rel.kind = EventKind::kSourceRelease;
    rel.aux0 = (i == 2) ? 0.004f : 0.0f;
    rel.aux1 = (i == 2) ? 1.0f : 0.0f;
    t.events.push_back(rel);
  }
  const obs::UtilizationReport u = obs::analyze_utilization(t);
  EXPECT_EQ(u.releases, 3);
  EXPECT_EQ(u.delayed_releases, 1);
  EXPECT_NEAR(u.max_release_lag_seconds, 0.004, 1e-6);
  // No firings anywhere: the average must not divide by zero.
  EXPECT_DOUBLE_EQ(u.avg_utilization(), 0.0);
}

TEST(Analysis, ReportSectionRendersBreakdown) {
  Trace t;
  t.clock = TraceClock::kModeled;
  t.cycles_per_second = 1e6;
  t.cores = 1;
  t.duration_seconds = 0.001;
  t.kernel_names = {"k"};
  t.events.push_back(firing(0.0, 0.0005, 0, 0, 300, 100, 100));
  const std::string s =
      utilization_string(obs::analyze_utilization(t));
  EXPECT_NE(s.find("per-core utilization (modeled"), std::string::npos);
  EXPECT_NE(s.find("core 0:"), std::string::npos);
  EXPECT_NE(s.find("run "), std::string::npos);
  EXPECT_NE(s.find("idle "), std::string::npos);
}

// --- End-to-end against the simulator ------------------------------------

TEST(ObsEndToEnd, SimulatorTraceMatchesCycleAccounting) {
  CompiledApp app = compile(apps::histogram_app({16, 12}, 80.0, 1, 8));
  Graph g = app.graph.clone();
  Recorder rec;
  SimOptions opt;
  opt.recorder = &rec;
  const SimResult r = simulate(g, app.mapping, opt);
  ASSERT_TRUE(r.completed) << r.diagnostics;

  const Trace& t = rec.trace();
  EXPECT_EQ(t.clock, TraceClock::kModeled);
  EXPECT_EQ(t.cores, app.mapping.cores);
  EXPECT_EQ(t.kernel_names.size(),
            static_cast<std::size_t>(g.kernel_count()));
  EXPECT_EQ(t.dropped_events, 0u);

  long firings = 0;
  std::vector<double> run_cycles(static_cast<std::size_t>(t.cores), 0.0);
  std::vector<bool> fired(static_cast<std::size_t>(g.kernel_count()), false);
  for (const TraceEvent& e : t.events) {
    if (e.kind != EventKind::kFiring) continue;
    ++firings;
    ASSERT_GE(e.core, 0);
    ASSERT_LT(e.core, t.cores);
    run_cycles[static_cast<std::size_t>(e.core)] += e.aux0;
    fired[static_cast<std::size_t>(e.kernel)] = true;
  }
  EXPECT_EQ(firings, r.total_firings);

  // Every kernel the simulator says fired has a span in the trace.
  for (std::size_t k = 0; k < fired.size(); ++k)
    EXPECT_EQ(fired[k], r.kernel_activity[k].first > 0) << "kernel " << k;

  // Per-core run cycles match CoreStats (aux fields are floats; allow
  // accumulated rounding).
  for (int c = 0; c < t.cores; ++c)
    EXPECT_NEAR(run_cycles[static_cast<std::size_t>(c)],
                r.cores[static_cast<std::size_t>(c)].run_cycles,
                1e-3 * (1.0 + r.cores[static_cast<std::size_t>(c)].run_cycles))
        << "core " << c;

  // The whole export round-trips as JSON with a span per firing.
  std::ostringstream os;
  obs::write_chrome_trace(t, os);
  JsonParser p(os.str());
  EXPECT_TRUE(p.valid());
}

// --- Frame tracking ------------------------------------------------------

TraceEvent frame_mark(EventKind kind, double t, int kernel, int frame) {
  TraceEvent e;
  e.kind = kind;
  e.t0 = e.t1 = t;
  e.kernel = kernel;
  e.method = frame;
  return e;
}

TEST(Frames, SummarizeComputesOrderStatistics) {
  const obs::SeriesSummary s = obs::summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);  // interpolated between 2 and 3
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_GT(s.p95, s.p50);
  EXPECT_LE(s.p95, s.max);
}

TEST(Frames, PairsBoundariesOnHandBuiltTrace) {
  Trace t;
  // Frame 0: two sources released (earliest wins), two sinks completed
  // (latest wins). Frame 1 is a plain pair. Frame 2 never completes, and
  // a negative index (a feedback seed) is ignored entirely.
  t.events.push_back(frame_mark(EventKind::kFrameStart, 0.002, 0, 0));
  t.events.push_back(frame_mark(EventKind::kFrameStart, 0.001, 1, 0));
  t.events.push_back(frame_mark(EventKind::kFrameEnd, 0.010, 5, 0));
  t.events.push_back(frame_mark(EventKind::kFrameEnd, 0.011, 6, 0));
  t.events.push_back(frame_mark(EventKind::kFrameStart, 0.006, 0, 1));
  t.events.push_back(frame_mark(EventKind::kFrameEnd, 0.016, 5, 1));
  t.events.push_back(frame_mark(EventKind::kFrameStart, 0.012, 0, 2));
  t.events.push_back(frame_mark(EventKind::kFrameEnd, 0.020, 5, -1));

  const obs::FrameReport r = obs::analyze_frames(t);
  ASSERT_EQ(r.frames.size(), 2u);
  EXPECT_EQ(r.incomplete, 1);
  EXPECT_EQ(r.frames[0].frame, 0);
  EXPECT_DOUBLE_EQ(r.frames[0].start_seconds, 0.001);
  EXPECT_DOUBLE_EQ(r.frames[0].end_seconds, 0.011);
  EXPECT_EQ(r.frames[0].start_kernel, 1);
  EXPECT_EQ(r.frames[0].end_kernel, 6);
  EXPECT_DOUBLE_EQ(r.frames[0].latency_seconds(), 0.010);
  EXPECT_DOUBLE_EQ(r.frames[1].latency_seconds(), 0.010);
  EXPECT_EQ(r.latency.count, 2);
  EXPECT_DOUBLE_EQ(r.latency.mean, 0.010);
  // One completion delta: 0.016 - 0.011.
  EXPECT_EQ(r.period.count, 1);
  EXPECT_DOUBLE_EQ(r.period.mean, 0.005);
}

TEST(Frames, RecorderDerivesFrameMetrics) {
  Recorder rec;
  rec.begin_session(TraceClock::kWall, 0.0, 1, {"src", "snk"});
  rec.ring(0)->emit(frame_mark(EventKind::kFrameStart, 0.000, 0, 0));
  rec.ring(0)->emit(frame_mark(EventKind::kFrameEnd, 0.004, 1, 0));
  rec.ring(0)->emit(frame_mark(EventKind::kFrameStart, 0.010, 0, 1));
  rec.ring(0)->emit(frame_mark(EventKind::kFrameEnd, 0.014, 1, 1));
  rec.ring(0)->emit(frame_mark(EventKind::kFrameStart, 0.020, 0, 2));
  rec.finish_session(0.025);

  EXPECT_EQ(rec.metrics().counter("trace.frames").value(), 2);
  EXPECT_EQ(rec.metrics().counter("trace.incomplete_frames").value(), 1);
  EXPECT_EQ(
      rec.metrics().histogram("trace.frame_latency_seconds").count(), 2);
  EXPECT_EQ(rec.metrics().histogram("trace.frame_period_seconds").count(), 1);

  // Frame instants survive the Chrome export as parseable JSON.
  std::ostringstream os;
  obs::write_chrome_trace(rec.trace(), os);
  JsonParser p(os.str());
  EXPECT_TRUE(p.valid());
  EXPECT_EQ(p.count_keys("frame"), 5);
}

// --- Deadline monitor ----------------------------------------------------

TEST(Deadline, OnScheduleFramesAllMeet) {
  obs::MetricsRegistry m;
  obs::DeadlineMonitor mon({/*rate_hz=*/100.0, /*slack_seconds=*/0.0}, &m);
  // Completions exactly one 10 ms period apart; latency of the pipeline
  // fill (the 50 ms anchor) is irrelevant by design.
  mon.observe_frame(0, 0.050);
  mon.observe_frame(1, 0.060);
  mon.observe_frame(2, 0.070);
  EXPECT_EQ(mon.frames(), 3);
  EXPECT_EQ(mon.misses(), 0);
  EXPECT_EQ(m.counter("deadline.frames").value(), 3);
  EXPECT_EQ(m.counter("deadline.misses").value(), 0);
}

TEST(Deadline, DriftAccumulatesMissesAndInvokesCallback) {
  obs::MetricsRegistry m;
  std::vector<std::int64_t> missed;
  obs::DeadlineMonitor mon(
      {/*rate_hz=*/100.0, /*slack_seconds=*/0.0}, &m,
      [&](const obs::FrameVerdict& v) { missed.push_back(v.frame); });
  mon.observe_frame(0, 0.050);  // anchor
  mon.observe_frame(1, 0.062);  // 2 ms late
  mon.observe_frame(2, 0.074);  // 4 ms late
  EXPECT_EQ(mon.misses(), 2);
  EXPECT_EQ(missed, (std::vector<std::int64_t>{1, 2}));
  EXPECT_NEAR(mon.max_lateness_seconds(), 0.004, 1e-9);
  EXPECT_EQ(m.counter("deadline.misses").value(), 2);
  EXPECT_NEAR(m.high_water("deadline.max_lateness_seconds").value(), 0.004,
              1e-9);
  ASSERT_EQ(mon.verdicts().size(), 3u);
  EXPECT_FALSE(mon.verdicts()[0].missed);
  EXPECT_TRUE(mon.verdicts()[1].missed);
  EXPECT_NEAR(mon.verdicts()[2].lateness_seconds, 0.004, 1e-9);
}

TEST(Deadline, SlackAbsorbsJitter) {
  obs::DeadlineMonitor mon({/*rate_hz=*/100.0, /*slack_seconds=*/0.005});
  mon.observe_frame(0, 0.050);
  mon.observe_frame(1, 0.064);  // 4 ms late < 5 ms slack
  EXPECT_EQ(mon.misses(), 0);
}

TEST(Deadline, WholeReportObservation) {
  obs::FrameReport r;
  r.frames.push_back({0, 0.000, 0.020, 0, 1});
  r.frames.push_back({1, 0.010, 0.045, 0, 1});  // 15 ms late at 100 Hz
  obs::DeadlineMonitor mon({/*rate_hz=*/100.0, /*slack_seconds=*/0.0});
  mon.observe(r);
  EXPECT_EQ(mon.frames(), 2);
  EXPECT_EQ(mon.misses(), 1);
}

// The close time of each frame is the release the paced source gives its
// last pixel, and the end-of-frame token riding on it, at any slowdown.
TEST(Deadline, FrameCloseMatchesTheSourceSchedule) {
  struct Case {
    Size2 frame;
    double rate_hz;
  };
  constexpr int kFrames = 3;
  for (const Case c : {Case{{16, 12}, 120.0}, Case{{5, 3}, 1000.0}})
    for (const double slowdown : {1.0, 2.0}) {
      Graph g = apps::pipeline_app(c.frame, c.rate_hz, kFrames);
      InputKernel* in = nullptr;
      for (KernelId k = 0; k < g.kernel_count() && in == nullptr; ++k)
        in = dynamic_cast<InputKernel*>(&g.kernel(k));
      ASSERT_NE(in, nullptr);
      in->init();
      double last_pixel = -1.0;
      int frames = 0;
      SourceEmission e;
      while (in->source_poll(e)) {
        if (is_data(e.item)) {
          last_pixel = e.release_seconds;
          continue;
        }
        if (as_token(e.item).cls != tok::kEndOfFrame) continue;
        const double close = obs::frame_close_seconds(g, frames, slowdown);
        EXPECT_EQ(close, last_pixel * slowdown) << "frame " << frames;
        EXPECT_EQ(close, e.release_seconds * slowdown) << "frame " << frames;
        ++frames;
      }
      EXPECT_EQ(frames, kFrames);
      EXPECT_EQ(obs::frame_close_seconds(g, kFrames, slowdown),
                std::numeric_limits<double>::infinity());
    }
}

// --- Critical path + rate validation (simulated end to end) --------------

TEST(CriticalPath, AttributesSimulatedFrameLatency) {
  CompiledApp app = compile(apps::pipeline_app({16, 12}, 120.0, 3));
  Graph g = app.graph.clone();
  Recorder rec;
  SimOptions opt;
  opt.recorder = &rec;
  ASSERT_TRUE(simulate(g, app.mapping, opt).completed);

  const obs::FrameReport frames = obs::analyze_frames(rec.trace());
  ASSERT_EQ(frames.frames.size(), 3u);
  EXPECT_EQ(frames.incomplete, 0);

  const obs::CriticalPathReport cp =
      obs::analyze_critical_path(rec.trace(), frames, app.graph);
  EXPECT_EQ(cp.frames_analyzed, 3);
  double total_latency = 0.0;
  for (const auto& f : frames.frames) total_latency += f.latency_seconds();
  EXPECT_NEAR(cp.latency_seconds, total_latency, 1e-9);

  ASSERT_GE(cp.bottleneck, 0);
  ASSERT_LT(cp.bottleneck, app.graph.kernel_count());
  double attributed = 0.0;
  for (const auto& c : cp.kernels) {
    EXPECT_GE(c.busy_seconds, -1e-12);
    EXPECT_GE(c.wait_seconds, -1e-12);
    attributed += c.total_seconds();
  }
  // The walk explains the latency it claims to: attribution is positive
  // and never exceeds the summed frame latency (busy is clamped to each
  // frame's window).
  EXPECT_GT(attributed, 0.0);
  EXPECT_LE(attributed, total_latency * 1.001 + 1e-9);

  std::ostringstream os;
  obs::write_critical_path(cp, rec.trace(), os);
  EXPECT_NE(os.str().find("bottleneck:"), std::string::npos);
}

TEST(RateValidation, SimulatedRatesMatchCompiledLoads) {
  // The acceptance bar: on the edge-detect pipeline every measurable
  // kernel's observed firing rate is within 1% of the compiler's
  // firings_per_frame * rate_hz prediction.
  CompiledApp app = compile(apps::sobel_app({48, 36}, 180.0, 5, 100.0));
  Graph g = app.graph.clone();
  Recorder rec;
  SimOptions opt;
  opt.recorder = &rec;
  ASSERT_TRUE(simulate(g, app.mapping, opt).completed);

  const RateValidation v = validate_rates(app, rec.trace());
  ASSERT_FALSE(v.rows.empty());
  for (const RateRow& r : v.rows) {
    EXPECT_TRUE(r.measured) << r.name;
    EXPECT_GT(r.predicted_hz, 0.0) << r.name;
  }
  EXPECT_TRUE(v.all_within(0.01));

  const std::string s = rate_validation_string(v);
  EXPECT_NE(s.find("within 1%"), std::string::npos) << s;
}

// --- Histogram quantiles --------------------------------------------------

TEST(Metrics, HistogramQuantilesFromBuckets) {
  obs::MetricsRegistry m;
  obs::Histogram& h = m.histogram("lat");
  for (int i = 0; i < 99; ++i) h.observe(1e-3);
  h.observe(0.5);  // one outlier dominates the max
  EXPECT_DOUBLE_EQ(h.max(), 0.5);
  // p50 lands in the bucket covering 1e-3 (log2 buckets: within 2x).
  EXPECT_GE(h.quantile(0.50), 0.5e-3);
  EXPECT_LE(h.quantile(0.50), 2.1e-3);
  EXPECT_LE(h.quantile(0.95), 2.1e-3);  // 95th still inside the mass
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.5);  // clamped to the observed max
  EXPECT_LE(h.quantile(0.0), h.quantile(0.5));

  // Both dump formats carry the derived summaries.
  std::ostringstream text;
  m.write_text(text);
  EXPECT_NE(text.str().find("p50"), std::string::npos);
  EXPECT_NE(text.str().find("p95"), std::string::npos);
  std::ostringstream json;
  m.write_json(json);
  JsonParser p(json.str());
  EXPECT_TRUE(p.valid());
  EXPECT_EQ(p.count_keys("p50"), 1);
  EXPECT_EQ(p.count_keys("p95"), 1);
}

}  // namespace
}  // namespace bpp
