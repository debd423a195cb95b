#include "src/core/report.h"

#include <fstream>
#include <sstream>

#include "src/common/csv.h"
#include "src/common/strings.h"

namespace philly {

std::string RenderCdfProbes(const StreamingHistogram& hist,
                            std::initializer_list<double> probes,
                            const std::string& unit) {
  std::ostringstream out;
  bool first = true;
  for (double x : probes) {
    if (!first) {
      out << "  ";
    }
    first = false;
    out << "P(<=" << FormatDouble(x, x < 1 ? 2 : 0) << unit
        << ")=" << FormatPercent(hist.CdfAt(x), 1);
  }
  return out.str();
}

bool WriteCdfCsv(const StreamingHistogram& hist, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  CsvWriter csv(out);
  csv.Row("value", "cumulative");
  for (const auto& point : hist.CdfSeries()) {
    csv.Row(point.value, point.cumulative);
  }
  out.flush();
  return out.good();
}

void ShapeChecker::Check(const std::string& name, bool ok, const std::string& detail) {
  entries_.push_back({name, ok, detail});
  if (!ok) {
    ++failures_;
  }
}

void ShapeChecker::CheckWithin(const std::string& name, double measured,
                               double expected, double rel_tol) {
  const double lo = expected * (1.0 - rel_tol);
  const double hi = expected * (1.0 + rel_tol);
  Check(name, measured >= lo && measured <= hi,
        "measured=" + FormatDouble(measured, 3) + " expected=" +
            FormatDouble(expected, 3) + " (+/-" + FormatPercent(rel_tol, 0) + ")");
}

void ShapeChecker::CheckBand(const std::string& name, double measured, double lo,
                             double hi) {
  Check(name, measured >= lo && measured <= hi,
        "measured=" + FormatDouble(measured, 3) + " band=[" + FormatDouble(lo, 3) +
            ", " + FormatDouble(hi, 3) + "]");
}

std::string ShapeChecker::Render() const {
  std::ostringstream out;
  for (const auto& entry : entries_) {
    out << (entry.ok ? "  [ok]   " : "  [FAIL] ") << entry.name;
    if (!entry.detail.empty()) {
      out << "  (" << entry.detail << ")";
    }
    out << '\n';
  }
  out << "shape checks: " << (num_checks() - failures_) << "/" << num_checks()
      << " passed\n";
  return out.str();
}

}  // namespace philly
