// Rendering and shape-validation helpers for the reproduction benches.
//
// Every bench prints paper-vs-measured tables and runs a set of *shape
// checks*: qualitative/structural assertions from the per-experiment index in
// DESIGN.md (orderings, who-dominates, monotonicity, factors within bands).
// Absolute values are not expected to match — the substrate is a simulator —
// so checks encode the findings, not the digits.

#ifndef SRC_CORE_REPORT_H_
#define SRC_CORE_REPORT_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/table.h"

namespace philly {

// "P(X <= x)" rows for a CDF at chosen probe points (minutes, percent, ...).
std::string RenderCdfProbes(const StreamingHistogram& hist,
                            std::initializer_list<double> probes,
                            const std::string& unit);

// Writes a histogram's CDF as a two-column CSV (value,cumulative) for
// plotting the paper's figures. Returns false if the file cannot be opened or
// written.
bool WriteCdfCsv(const StreamingHistogram& hist, const std::string& path);

class ShapeChecker {
 public:
  // Records a named check. `detail` should state measured vs expected.
  void Check(const std::string& name, bool ok, const std::string& detail = "");

  // measured within [expected*(1-tol), expected*(1+tol)].
  void CheckWithin(const std::string& name, double measured, double expected,
                   double rel_tol);

  // measured in [lo, hi].
  void CheckBand(const std::string& name, double measured, double lo, double hi);

  int num_checks() const { return static_cast<int>(entries_.size()); }
  int num_failures() const { return failures_; }
  bool AllPassed() const { return failures_ == 0; }

  // "[ok] name  detail" lines plus a tally.
  std::string Render() const;

 private:
  struct Entry {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Entry> entries_;
  int failures_ = 0;
};

}  // namespace philly

#endif  // SRC_CORE_REPORT_H_
