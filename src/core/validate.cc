#include "src/core/validate.h"

#include <cmath>
#include <sstream>

#include "src/core/analysis.h"

namespace philly {
namespace {

// Max absolute deviation allowed between a reason's simulated share of
// classified failure trials and its published Table 7 share. The injector
// conditions reason choice on job duration and demand, which shifts a couple
// of high-volume reasons by up to ~10 points at bench scale, so this leaves
// headroom above that systemic bias while still catching a grossly skewed mix.
constexpr double kFailureShareTolerance = 0.13;
// Below this many classified trials the share estimate is too noisy to
// judge; the check passes vacuously.
constexpr int64_t kFailureShareMinTrials = 200;

// Cap on recorded issues (validation keeps scanning but stops recording).
constexpr size_t kMaxIssues = 100;

void Report(ValidationReport* report, JobId job, std::string what) {
  if (report->issues.size() < kMaxIssues) {
    report->issues.push_back({job, std::move(what)});
  }
}

}  // namespace

std::string ValidationReport::Summary(size_t max_issues) const {
  std::ostringstream out;
  out << issues.size() << " issue(s) across " << jobs_checked << " jobs";
  for (size_t i = 0; i < issues.size() && i < max_issues; ++i) {
    out << "\n  job " << issues[i].job << ": " << issues[i].what;
  }
  return out.str();
}

ValidationReport ValidateJobs(const std::vector<JobRecord>& jobs) {
  ValidationReport report;
  for (const JobRecord& job : jobs) {
    ++report.jobs_checked;
    const JobId id = job.spec.id;
    if (job.spec.num_gpus <= 0) {
      Report(&report, id, "non-positive GPU demand");
    }
    if (job.finish_time < job.spec.submit_time) {
      Report(&report, id, "finished before submission");
    }
    if (job.waits.size() != job.attempts.size() && !job.attempts.empty()) {
      Report(&report, id,
             "waits (" + std::to_string(job.waits.size()) + ") != attempts (" +
                 std::to_string(job.attempts.size()) + ")");
    }

    SimTime prev_end = job.spec.submit_time;
    SimDuration attempt_time = 0;
    for (const AttemptRecord& attempt : job.attempts) {
      ++report.attempts_checked;
      if (attempt.start < prev_end) {
        Report(&report, id,
               "attempt " + std::to_string(attempt.index) + " starts before the "
               "previous attempt ended");
      }
      if (attempt.end < attempt.start) {
        Report(&report, id,
               "attempt " + std::to_string(attempt.index) + " ends before it starts");
      }
      if (attempt.prerun) {
        if (!attempt.placement.Empty()) {
          Report(&report, id, "pre-run attempt carries a gang placement");
        }
      } else {
        if (attempt.placement.NumGpus() != job.spec.num_gpus) {
          Report(&report, id,
                 "attempt " + std::to_string(attempt.index) + " gang size " +
                     std::to_string(attempt.placement.NumGpus()) + " != demand " +
                     std::to_string(job.spec.num_gpus));
        }
        for (size_t i = 0; i < attempt.placement.shards.size(); ++i) {
          for (size_t k = 0; k < i; ++k) {
            if (attempt.placement.shards[i].server ==
                attempt.placement.shards[k].server) {
              Report(&report, id, "placement repeats a server");
            }
          }
        }
        attempt_time += attempt.Duration();
      }
      if (!attempt.failed && !attempt.log_tail.empty()) {
        Report(&report, id, "clean attempt carries a failure log tail");
      }
      prev_end = attempt.end;
    }
    SimDuration segment_time = 0;
    for (const UtilSegment& segment : job.util_segments) {
      if (segment.expected_util < 0.0 || segment.expected_util > 1.0) {
        Report(&report, id, "segment utilization out of [0, 1]");
      }
      if (segment.duration <= 0) {
        Report(&report, id, "non-positive segment duration");
      }
      segment_time += segment.duration;
    }
    if (segment_time != attempt_time) {
      Report(&report, id,
             "segments cover " + std::to_string(segment_time) +
                 "s but gang attempts total " + std::to_string(attempt_time) + "s");
    }
    for (const WaitRecord& wait : job.waits) {
      if (wait.wait < 0) {
        Report(&report, id, "negative wait");
      }
      if (wait.fair_share_time + wait.fragmentation_time > wait.wait) {
        Report(&report, id, "wait cause attribution exceeds the wait");
      }
    }
  }
  return report;
}

ValidationReport ValidateFailureShares(const std::vector<JobRecord>& jobs) {
  ValidationReport report;
  report.jobs_checked = static_cast<int64_t>(jobs.size());
  const FailureAnalysisResult failures = AnalyzeFailures(jobs);
  report.attempts_checked = failures.total_trials;
  if (failures.total_trials < kFailureShareMinTrials) {
    return report;  // too few failures to estimate shares
  }
  const double paper_total = TotalPaperTrials();
  const double sim_total = static_cast<double>(failures.total_trials);
  for (const FailureAnalysisResult::ReasonRow& row : failures.rows) {
    const FailureReasonInfo& info = InfoOf(row.reason);
    if (info.paper_trials <= 0) {
      continue;  // not in the published table (machine-fault family)
    }
    const double expected = info.paper_trials / paper_total;
    const double measured = static_cast<double>(row.trials) / sim_total;
    const double deviation = std::abs(measured - expected);
    if (deviation > kFailureShareTolerance) {
      std::ostringstream what;
      what << "failure share of '" << ToString(row.reason) << "' is "
           << measured << " vs published " << expected << " (|diff| "
           << deviation << " > tolerance " << kFailureShareTolerance << ")";
      Report(&report, kNoJob, what.str());
    }
  }
  return report;
}

}  // namespace philly
