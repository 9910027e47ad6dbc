#include "predict/report.h"

#include <sstream>

#include "compiler/report.h"

namespace bpp::predict {

void write_prediction(const Prediction& p, std::ostream& os) {
  os << "performance prediction ("
     << (p.exact ? "exact composition" : "approximate: parallelizer estimates")
     << "):\n";
  os << "  input " << TextTable::num(p.input_rate_hz, 1) << " Hz ("
     << TextTable::num(p.input_period_seconds * 1e6, 1) << " us/frame";
  if (p.frames > 0) os << ", " << p.frames << " frames";
  os << ")\n";

  TextTable t;
  t.column("core", TextTable::Align::Left);
  t.column("kernels");
  t.column("busy cyc/frame");
  t.column("utilization");
  for (const CorePrediction& c : p.cores) {
    std::string label = "core " + std::to_string(c.core);
    if (c.source_only) {
      t.row({std::move(label), "sources", "-", "-"});
      continue;
    }
    t.row({std::move(label), std::to_string(c.kernels),
           TextTable::num(c.busy_cycles_per_frame, 2),
           TextTable::num(100.0 * c.utilization, 1) + "%"});
  }
  t.write(os);

  os << "  bottleneck core " << p.bottleneck_core << " at "
     << TextTable::num(100.0 * p.bottleneck_utilization, 1) << "% (avg "
     << TextTable::num(100.0 * p.avg_utilization, 1) << "%)\n";
  os << "  predicted steady period "
     << TextTable::num(p.steady_period_seconds * 1e6, 2) << " us/frame";
  if (!p.meets_realtime)
    os << " (input period stretched by the bottleneck)";
  os << '\n';
  os << "  critical-path latency estimate "
     << TextTable::num(p.critical_path_seconds * 1e6, 2) << " us\n";
  os << "  verdict: "
     << (p.meets_realtime ? "meets real time at the input rate"
                          : "CANNOT meet real time at the input rate")
     << '\n';
}

std::string prediction_string(const Prediction& p) {
  std::ostringstream os;
  write_prediction(p, os);
  return os.str();
}

}  // namespace bpp::predict
