// Structural validation of simulation output.
//
// ValidateResult checks the invariants every well-formed SimulationResult
// must satisfy (attempt ordering, gang sizes, segment coverage, wait
// attribution bounds). The checks live in the library — not
// only in tests — so downstream consumers of traces (including phillyctl
// after loading a trace from disk) can assert integrity before analyzing.

#ifndef SRC_CORE_VALIDATE_H_
#define SRC_CORE_VALIDATE_H_

#include <string>
#include <vector>

#include "src/sched/records.h"

namespace philly {

struct ValidationIssue {
  JobId job = kNoJob;
  std::string what;
};

struct ValidationReport {
  std::vector<ValidationIssue> issues;
  int64_t jobs_checked = 0;
  int64_t attempts_checked = 0;

  bool ok() const { return issues.empty(); }
  // First few issues, one per line, for error messages.
  std::string Summary(size_t max_issues = 10) const;
};

// Validates per-job invariants, among them that utilization segments exactly
// cover attempt time (simulator output does; trace round trips preserve it).
// Cheap: O(total attempts + segments).
ValidationReport ValidateJobs(const std::vector<JobRecord>& jobs);

// Distributional validation: the classified failure-reason mix of a simulated
// workload must track the published Table 7 shares. Reasons absent from the
// published table (paper_trials == 0, e.g. the machine-fault family) are not
// checked directly, but their trials inflate the simulated denominator — so a
// fault process heavy enough to distort the published mix fails the check.
ValidationReport ValidateFailureShares(const std::vector<JobRecord>& jobs);

}  // namespace philly

#endif  // SRC_CORE_VALIDATE_H_
