#pragma once
// Human-readable summaries of compiled applications, in the vocabulary of
// the paper's figures (replication factors, buffer annotations, mapping
// group counts, estimated utilizations).

#include <ostream>
#include <string>
#include <vector>

#include "compiler/pipeline.h"
#include "obs/analysis.h"

namespace bpp {

namespace fault {
struct FaultPlan;
}  // namespace fault

/// Column-aligned text table: the one formatter behind the rate-validation
/// and performance-prediction reports (and anything else that prints
/// columns), so column layout is declared once instead of via scattered
/// setw() calls. Widths adapt to the longest cell per column.
class TextTable {
 public:
  enum class Align { Left, Right };

  /// Declare the next column. Call before the first row().
  void column(std::string header, Align align = Align::Right);
  /// Append a row; missing trailing cells render empty, extra cells throw.
  void row(std::vector<std::string> cells);
  /// Fixed-point cell helper.
  [[nodiscard]] static std::string num(double v, int precision);

  void write(std::ostream& os, const std::string& indent = "  ") const;

 private:
  struct Col {
    std::string header;
    Align align = Align::Right;
  };
  std::vector<Col> cols_;
  std::vector<std::vector<std::string>> rows_;
};

/// One row of a predicted vs simulated vs host-measured comparison table
/// (the bpc --predict cross-check). NaN marks an absent measurement and
/// renders as "-".
struct ComparisonRow {
  std::string quantity;  ///< label, unit included (e.g. "steady period (us)")
  double predicted = 0.0;
  double simulated = 0.0;
  double measured = 0.0;
  int precision = 3;
};

void write_comparison(const std::vector<ComparisonRow>& rows,
                      std::ostream& os);
[[nodiscard]] std::string comparison_string(
    const std::vector<ComparisonRow>& rows);

/// Kernel inventory of a compiled app: counts by kernel type.
struct GraphCensus {
  int total = 0;
  int sources = 0;
  int computation = 0;
  int buffers = 0;
  int splits_joins = 0;  ///< split, join, replicate FSMs
  int insets = 0;        ///< border kernels: trims, zero and mirror pads
};

[[nodiscard]] GraphCensus census(const Graph& g);

void write_report(const CompiledApp& app, std::ostream& os);
[[nodiscard]] std::string report_string(const CompiledApp& app);

/// Measured per-core utilization section (the paper's Fig. 13 breakdown):
/// one line per core with the run / read / write / other / idle split as a
/// percentage of the run, plus the real-time release summary. Works for
/// both clock domains — modeled time from the simulator, wall-clock time
/// from the host runtime (see obs::analyze_utilization).
void write_utilization(const obs::UtilizationReport& u, std::ostream& os);
[[nodiscard]] std::string utilization_string(const obs::UtilizationReport& u);

/// One row of the predicted-vs-measured firing-rate table: the compiler's
/// steady-state estimate (LoadMap method activations, firings_per_second
/// minus forwards_per_second) against the rate observed in a recorded
/// trace.
struct RateRow {
  KernelId kernel = -1;
  std::string name;
  double predicted_hz = 0.0;
  double measured_hz = 0.0;
  long firings = 0;      ///< firings used for the measurement
  bool measured = false; ///< enough steady-state firings to compute a rate

  /// |measured - predicted| / predicted, or 0 when either side is missing.
  [[nodiscard]] double relative_error() const {
    if (!measured || predicted_hz <= 0.0) return 0.0;
    const double d = measured_hz - predicted_hz;
    return (d < 0.0 ? -d : d) / predicted_hz;
  }
};

struct RateValidation {
  std::vector<RateRow> rows;

  /// True when every measurable row with a prediction is within `tol`
  /// relative error (e.g. 0.01 for 1%).
  [[nodiscard]] bool all_within(double tol) const {
    for (const RateRow& r : rows)
      if (r.measured && r.predicted_hz > 0.0 && r.relative_error() > tol)
        return false;
    return true;
  }
};

/// Compare compiled rate predictions against firing spans in `trace`.
/// Sources are skipped (they release rather than fire); each kernel's final
/// firing — the end-of-stream tail, which has no successor at the steady
/// period — is dropped, and the rate is (n-1) firings over the span of the
/// remaining start times.
[[nodiscard]] RateValidation validate_rates(const CompiledApp& app,
                                            const obs::Trace& trace);

void write_rate_validation(const RateValidation& v, std::ostream& os);
[[nodiscard]] std::string rate_validation_string(const RateValidation& v);

/// Which fault-plan rules bind to which kernels: for every kernel the first
/// matching timing and delivery rule (first match wins — the same resolution
/// fault::Injector::bind uses), plus the core-throttle table and a warning
/// for rules whose glob matched nothing. Printed by `bpc --faults` so a
/// plan's globs can be sanity-checked against the compiled (renamed,
/// replicated, multiplexed) kernel set rather than the source one.
void write_fault_binding(const fault::FaultPlan& plan, const Graph& g,
                         std::ostream& os);
[[nodiscard]] std::string fault_binding_string(const fault::FaultPlan& plan,
                                               const Graph& g);

}  // namespace bpp
