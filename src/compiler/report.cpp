#include "compiler/report.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <map>
#include <sstream>
#include <vector>

#include "fault/injector.h"
#include "fault/plan.h"
#include "kernels/buffer.h"

namespace bpp {

void TextTable::column(std::string header, Align align) {
  if (!rows_.empty())
    throw Error("TextTable: declare columns before adding rows");
  cols_.push_back(Col{std::move(header), align});
}

void TextTable::row(std::vector<std::string> cells) {
  if (cells.size() > cols_.size())
    throw Error("TextTable: row has more cells than declared columns");
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

void TextTable::write(std::ostream& os, const std::string& indent) const {
  std::vector<size_t> width(cols_.size(), 0);
  for (size_t c = 0; c < cols_.size(); ++c) width[c] = cols_[c].header.size();
  for (const auto& r : rows_)
    for (size_t c = 0; c < r.size(); ++c)
      width[c] = std::max(width[c], r[c].size());
  auto emit = [&](const std::string& cell, size_t c, bool last) {
    const size_t pad = width[c] - cell.size();
    if (cols_[c].align == Align::Right) os << std::string(pad, ' ');
    os << cell;
    if (!last) {
      if (cols_[c].align == Align::Left) os << std::string(pad, ' ');
      os << "  ";
    }
  };
  os << indent;
  for (size_t c = 0; c < cols_.size(); ++c)
    emit(cols_[c].header, c, c + 1 == cols_.size());
  os << '\n';
  for (const auto& r : rows_) {
    os << indent;
    const size_t n = r.size();
    for (size_t c = 0; c < n; ++c) emit(r[c], c, c + 1 == n);
    os << '\n';
  }
}

void write_comparison(const std::vector<ComparisonRow>& rows,
                      std::ostream& os) {
  os << "predicted vs simulated vs measured:\n";
  TextTable t;
  t.column("quantity", TextTable::Align::Left);
  t.column("predicted");
  t.column("simulated");
  t.column("measured");
  auto cell = [](double v, int precision) {
    return std::isnan(v) ? std::string("-") : TextTable::num(v, precision);
  };
  for (const ComparisonRow& r : rows)
    t.row({r.quantity, cell(r.predicted, r.precision),
           cell(r.simulated, r.precision), cell(r.measured, r.precision)});
  t.write(os);
}

std::string comparison_string(const std::vector<ComparisonRow>& rows) {
  std::ostringstream os;
  write_comparison(rows, os);
  return os.str();
}

GraphCensus census(const Graph& g) {
  GraphCensus c;
  c.total = g.kernel_count();
  for (KernelId k = 0; k < g.kernel_count(); ++k) {
    const Kernel& kn = g.kernel(k);
    if (kn.is_source()) {
      ++c.sources;
    } else if (kn.dot_shape() == "parallelogram") {
      ++c.buffers;
    } else if (kn.dot_shape() == "diamond") {
      ++c.splits_joins;
    } else if (kn.dot_shape() == "invhouse") {
      ++c.insets;
    } else {
      ++c.computation;
    }
  }
  return c;
}

void write_report(const CompiledApp& app, std::ostream& os) {
  const auto fmt = os.flags();
  const auto prec = os.precision();
  const GraphCensus c = census(app.graph);
  os << "compiled application: " << c.total << " kernels ("
     << c.computation << " computation, " << c.buffers << " buffer, "
     << c.splits_joins << " split/join/replicate, " << c.insets
     << " inset/pad, " << c.sources << " source)\n";

  if (!app.alignment_edits.empty()) {
    os << "alignment edits:\n";
    for (const AlignmentEdit& e : app.alignment_edits)
      os << "  " << (e.padded ? "pad " : "trim ") << e.inserted << " at "
         << e.at_kernel << " [" << e.border.left << ',' << e.border.top << ','
         << e.border.right << ',' << e.border.bottom << "]\n";
  }

  if (!app.buffers.empty()) {
    os << "buffers inserted:\n";
    for (const BufferInsertion& b : app.buffers)
      os << "  " << b.name << ' ' << b.annotation << " between " << b.producer
         << " and " << b.consumer << " (" << b.storage_words << " words)\n";
  }

  if (!app.parallelization.factors.empty()) {
    os << "replication factors:\n";
    for (const auto& [name, p] : app.parallelization.factors)
      os << "  " << name << " x" << p << '\n';
  }
  for (const BufferSplitResult& s : app.parallelization.buffer_splits) {
    os << "buffer split: " << s.original << " -> " << s.slices << " slices";
    for (const std::string& a : s.slice_annotations) os << ' ' << a;
    os << " (overlap " << s.overlap_columns << " col)\n";
  }

  const double u1 = estimated_utilization(app.graph, app.loads,
                                          app.options.machine, app.one_to_one);
  const double ug = estimated_utilization(app.graph, app.loads,
                                          app.options.machine, app.mapping);
  os << std::fixed << std::setprecision(1);
  os << "mapping: " << app.one_to_one.cores << " cores 1:1 (est. util "
     << 100 * u1 << "%) -> " << app.mapping.cores << " cores mapped (est. util "
     << 100 * ug << "%)\n";
  os.flags(fmt);
  os.precision(prec);
}

std::string report_string(const CompiledApp& app) {
  std::ostringstream os;
  write_report(app, os);
  return os.str();
}

void write_utilization(const obs::UtilizationReport& u, std::ostream& os) {
  const auto fmt = os.flags();
  const auto prec = os.precision();
  os << std::fixed << std::setprecision(1);
  os << "per-core utilization ("
     << (u.clock == obs::TraceClock::kModeled ? "modeled" : "wall clock")
     << ", " << u.duration_seconds * 1e3 << " ms):\n";
  const double d = u.duration_seconds;
  auto pct = [&](double s) { return d > 0.0 ? 100.0 * s / d : 0.0; };
  for (std::size_t c = 0; c < u.cores.size(); ++c) {
    const obs::CoreBreakdown& b = u.cores[c];
    os << "  core " << c << ": " << pct(b.busy_seconds()) << "% busy"
       << " (run " << pct(b.run_seconds) << "% read " << pct(b.read_seconds)
       << "% write " << pct(b.write_seconds) << "% other "
       << pct(b.other_seconds) << "% idle " << pct(b.idle_seconds)
       << "%), " << b.firings << " firings\n";
  }
  os << "  avg utilization " << 100.0 * u.avg_utilization()
     << "% over firing cores";
  if (u.releases > 0)
    os << "; releases " << u.releases << " (" << u.delayed_releases
       << " delayed, max lag " << u.max_release_lag_seconds * 1e6 << " us)";
  os << '\n';
  os.flags(fmt);
  os.precision(prec);
}

std::string utilization_string(const obs::UtilizationReport& u) {
  std::ostringstream os;
  write_utilization(u, os);
  return os.str();
}

RateValidation validate_rates(const CompiledApp& app,
                              const obs::Trace& trace) {
  RateValidation v;
  const int n = app.graph.kernel_count();

  // Preferred measurement window: an integer number of frame periods,
  // bounded by frame-start instants. Firing patterns are periodic per
  // frame in the steady state, so counting method activations over
  // [start(1), start(last)) divides out intra-frame burstiness exactly —
  // the naive first-to-last-firing span is biased by the idle tail at the
  // end of each frame. Frame 0 is skipped as pipeline fill.
  std::map<std::int64_t, double> frame_start;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind != obs::EventKind::kFrameStart || e.method < 0) continue;
    auto [it, fresh] = frame_start.emplace(e.method, e.t0);
    if (!fresh && e.t0 < it->second) it->second = e.t0;
  }
  double w0 = 0.0, w1 = 0.0;
  const bool windowed = frame_start.size() >= 3;
  if (windowed) {
    w0 = std::next(frame_start.begin())->second;
    w1 = frame_start.rbegin()->second;
  }

  // Per-kernel method-activation counts (token forwards, method -1, are
  // left out on both sides: the prediction subtracts forwards_per_second):
  // inside the window, plus first/last/penultimate start times for the
  // span fallback when fewer than three frames were tracked.
  std::vector<long> in_window(static_cast<size_t>(n), 0);
  std::vector<long> count(static_cast<size_t>(n), 0);
  std::vector<double> first(static_cast<size_t>(n), 0.0);
  std::vector<double> last(static_cast<size_t>(n), 0.0);
  std::vector<double> prev(static_cast<size_t>(n), 0.0);
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind != obs::EventKind::kFiring) continue;
    if (e.kernel < 0 || e.kernel >= n || e.method < 0) continue;
    const auto k = static_cast<size_t>(e.kernel);
    if (count[k] == 0) first[k] = e.t0;
    prev[k] = last[k];
    last[k] = e.t0;
    ++count[k];
    if (windowed && e.t0 >= w0 && e.t0 < w1) ++in_window[k];
  }

  for (KernelId k = 0; k < n; ++k) {
    const Kernel& kn = app.graph.kernel(k);
    if (kn.is_source()) continue;
    const auto ks = static_cast<size_t>(k);
    if (count[ks] == 0) continue;
    RateRow row;
    row.kernel = k;
    row.name = kn.name();
    if (k < app.loads.size())
      row.predicted_hz = app.loads.of(k).firings_per_second -
                         app.loads.of(k).forwards_per_second;
    if (windowed && w1 > w0 && in_window[ks] > 0) {
      row.firings = in_window[ks];
      row.measured = true;
      row.measured_hz = static_cast<double>(in_window[ks]) / (w1 - w0);
    } else {
      // Fallback: steady-state span of the firing start times, dropping
      // the final firing (the end-of-stream tail).
      row.firings = count[ks] - 1;
      if (row.firings >= 2 && prev[ks] > first[ks]) {
        row.measured = true;
        row.measured_hz =
            static_cast<double>(row.firings - 1) / (prev[ks] - first[ks]);
      }
    }
    v.rows.push_back(std::move(row));
  }
  return v;
}

void write_rate_validation(const RateValidation& v, std::ostream& os) {
  os << "firing rates, predicted vs measured:\n";
  TextTable t;
  t.column("kernel", TextTable::Align::Left);
  t.column("predicted Hz");
  t.column("measured Hz");
  t.column("error");
  t.column("firings");
  bool any_off = false;
  for (const RateRow& r : v.rows) {
    std::string measured = "n/a";
    std::string error;
    if (r.measured) {
      measured = TextTable::num(r.measured_hz, 1);
      if (r.predicted_hz > 0.0) {
        error = TextTable::num(100.0 * r.relative_error(), 2) + "%";
        if (r.relative_error() > 0.01) any_off = true;
      }
    }
    t.row({r.name, TextTable::num(r.predicted_hz, 1), std::move(measured),
           std::move(error), std::to_string(r.firings)});
  }
  t.write(os);
  os << (any_off ? "  WARNING: at least one kernel deviates >1% from the "
                   "compiled rate\n"
                 : "  all measured kernels within 1% of compiled rates\n");
}

std::string rate_validation_string(const RateValidation& v) {
  std::ostringstream os;
  write_rate_validation(v, os);
  return os.str();
}

void write_fault_binding(const fault::FaultPlan& plan, const Graph& g,
                         std::ostream& os) {
  os << "fault plan: seed " << plan.seed << ", " << plan.kernels.size()
     << " kernel rule(s), " << plan.cores.size() << " core rule(s), "
     << plan.delivery.size() << " delivery rule(s)\n";
  // The injector's own resolution, so the table shows what the engines
  // perturb (sources bind their delivery rule alone).
  fault::Injector inj(plan, plan.seed);
  inj.bind(g, {});
  std::vector<bool> kernel_hit(plan.kernels.size(), false);
  std::vector<bool> delivery_hit(plan.delivery.size(), false);
  for (KernelId k = 0; k < g.kernel_count(); ++k) {
    const std::string& name = g.kernel(k).name();
    const fault::Injector::Binding& b = inj.bindings()[static_cast<size_t>(k)];
    const int krule = b.kernel_rule;
    const int drule = b.delivery_rule;
    if (krule >= 0) kernel_hit[static_cast<size_t>(krule)] = true;
    if (drule >= 0) delivery_hit[static_cast<size_t>(drule)] = true;
    if (krule < 0 && drule < 0) continue;
    os << "  " << std::left << std::setw(28) << name << std::right;
    if (krule >= 0) {
      const fault::KernelRule& r = plan.kernels[static_cast<size_t>(krule)];
      os << " timing '" << r.match << "'";
      char buf[120];
      if (r.jitter > 0.0) {
        std::snprintf(buf, sizeof buf, " jitter %.0f%%", r.jitter * 100.0);
        os << buf;
      }
      if (r.overrun_prob > 0.0) {
        std::snprintf(buf, sizeof buf, " overrun %.0f%%x%.1f",
                      r.overrun_prob * 100.0, r.overrun_factor);
        os << buf;
      }
      if (r.stall_prob > 0.0) {
        std::snprintf(buf, sizeof buf, " stall %.0f%%@%.0fus",
                      r.stall_prob * 100.0, r.stall_seconds * 1e6);
        os << buf;
      }
    }
    if (drule >= 0) {
      const fault::DeliveryRule& r = plan.delivery[static_cast<size_t>(drule)];
      char buf[120];
      std::snprintf(buf, sizeof buf, " delivery '%s' %.0f%%@%.0fus",
                    r.match.c_str(), r.prob * 100.0, r.delay_seconds * 1e6);
      os << buf;
    }
    os << '\n';
  }
  for (const fault::CoreRule& r : plan.cores)
    os << "  core " << r.core << " throttled " << r.throttle << "x\n";
  for (size_t i = 0; i < plan.kernels.size(); ++i) {
    if (kernel_hit[i]) continue;
    const std::string& match = plan.kernels[i].match;
    bool matches_source = false;
    for (KernelId k = 0; k < g.kernel_count(); ++k)
      if (g.kernel(k).is_source() &&
          fault::glob_match(match, g.kernel(k).name()))
        matches_source = true;
    os << "  WARNING: kernel rule '" << match
       << (matches_source ? "' perturbs nothing: it matches only sources, "
                            "which feel delivery rules alone\n"
                          : "' matches no kernel\n");
  }
  for (size_t i = 0; i < plan.delivery.size(); ++i)
    if (!delivery_hit[i])
      os << "  WARNING: delivery rule '" << plan.delivery[i].match
         << "' matches no kernel\n";
}

std::string fault_binding_string(const fault::FaultPlan& plan,
                                 const Graph& g) {
  std::ostringstream os;
  write_fault_binding(plan, g, os);
  return os.str();
}

}  // namespace bpp
