// The paper's analysis pipeline: every figure and table of the evaluation,
// computed from simulation logs (JobRecords = joined scheduler + framework +
// telemetry streams).
//
// Each AnalyzeX function consumes records and returns a plain result struct;
// rendering lives in src/core/report.h. The mapping to the paper:
//
//   AnalyzeRunTimes          -> Figure 2
//   AnalyzeQueueDelays       -> Figure 3
//   AnalyzeLocalityDelay     -> Figure 4
//   AnalyzeDelayCauses       -> Table 2 (+ §3.1.1 out-of-order & fragmentation)
//   AnalyzeUtilization       -> Figure 5, Table 3, Figure 6, Table 5
//   AnalyzeHostResources     -> Figure 7
//   AnalyzeStatus            -> Table 6
//   AnalyzeConvergence       -> Figure 8 (+ §4.1 GPU-time-for-last-0.1% stats)
//   AnalyzeFailures          -> Table 7, Figure 9, Figure 10

#ifndef SRC_CORE_ANALYSIS_H_
#define SRC_CORE_ANALYSIS_H_

#include <array>
#include <map>
#include <vector>

#include "src/common/stats.h"
#include "src/failure/failure_catalog.h"
#include "src/obs/rollup.h"
#include "src/sched/records.h"
#include "src/workload/generator.h"
#include "src/telemetry/sampler.h"

namespace philly {

// ---------------------------------------------------------------- Figure 2
struct RunTimeResult {
  // One CDF of run time (minutes) per GPU-demand bucket.
  std::array<StreamingHistogram, kNumSizeBuckets> cdf_minutes;
  double fraction_over_one_week = 0.0;

  RunTimeResult();
};
RunTimeResult AnalyzeRunTimes(const std::vector<JobRecord>& jobs);

// ---------------------------------------------------------------- Figure 3
struct QueueDelayResult {
  // vc -> per-bucket CDF of initial queueing delay (minutes).
  std::map<VcId, std::array<StreamingHistogram, kNumSizeBuckets>> by_vc;
  // Aggregate over all VCs.
  std::array<StreamingHistogram, kNumSizeBuckets> overall;

  QueueDelayResult();
};
QueueDelayResult AnalyzeQueueDelays(const std::vector<JobRecord>& jobs);

// ---------------------------------------------------------------- Figure 4
struct LocalityDelayResult {
  struct Cell {
    int num_servers = 0;
    Summary delay_minutes;  // distribution of queueing delay at this spread
    int count = 0;
  };
  std::vector<Cell> five_to_eight;  // 5-8 GPU jobs
  std::vector<Cell> gt_eight;       // >8 GPU jobs
};
LocalityDelayResult AnalyzeLocalityDelay(const std::vector<JobRecord>& jobs);

// ----------------------------------------------------------------- Table 2
struct DelayCauseResult {
  struct BucketCauses {
    int64_t fair_share = 0;
    int64_t fragmentation = 0;
    double FairShareFraction() const {
      const int64_t total = fair_share + fragmentation;
      return total > 0 ? static_cast<double>(fair_share) / total : 0.0;
    }
  };
  // Indexed by SizeBucket; the paper's table covers 2-4 / 5-8 / >8 only, and
  // filters to jobs that ran for at least one minute.
  std::array<BucketCauses, kNumSizeBuckets> by_bucket;
  // Waiting-time-weighted split across all jobs (paper: fragmentation is
  // ~80% of total waiting time).
  double fair_share_time_fraction = 0.0;
  double fragmentation_time_fraction = 0.0;
  // §3.1.1 out-of-order statistics.
  double out_of_order_fraction = 0.0;         // of all scheduling decisions
  double out_of_order_benign_fraction = 0.0;  // of out-of-order decisions
  std::array<double, kNumSizeBuckets> out_of_order_by_bucket = {};
  // §3.1.1 fragmentation prose facts, from occupancy snapshots nearest 2/3
  // occupancy.
  double empty_server_fraction_at_two_thirds = 0.0;
  double mean_racks_with_empty_servers = 0.0;
};
DelayCauseResult AnalyzeDelayCauses(const std::vector<JobRecord>& jobs,
                                    const SimulationResult* sim = nullptr);

// --------------------------------------------- Figure 5 / Table 3 / Fig 6 / Table 5
struct UtilizationResult {
  // Figure 5: per-minute GPU utilization (percent) CDFs for representative
  // sizes {1, 4, 8, 16} x final status.
  static constexpr int kNumRepresentative = 4;
  std::array<std::array<StreamingHistogram, kNumRepresentative>, 3> by_status_size;
  std::array<StreamingHistogram, kNumRepresentative> by_size;  // all statuses
  StreamingHistogram all;

  // Table 3: means are read off the histograms above.
  double MeanFor(JobStatus status, int size_index) const;
  double MeanForSize(int size_index) const;

  // Figure 6: dedicated-server comparison.
  StreamingHistogram dedicated_8gpu;   // 8-GPU jobs on one full server
  StreamingHistogram dedicated_16gpu;  // 16-GPU jobs on two full servers

  // Table 5: 16-GPU jobs by number of servers (2 / 4 / 8).
  std::map<int, StreamingHistogram> sixteen_by_servers;

  UtilizationResult();
};
UtilizationResult AnalyzeUtilization(const std::vector<JobRecord>& jobs,
                                     SamplerConfig sampler = {}, uint64_t seed = 17);

// Fills the job-derived half of a TelemetryDigest: exact Table 3 utilization
// aggregates (per representative size class plus overall), accumulated from
// the same sampling pass as AnalyzeUtilization, so two invocations over equal
// job records are bitwise-equal. This is the
// cross-check `phillyctl analyze --telemetry` runs against the digest the
// writer embedded in the telemetry stream.
TelemetryDigest ComputeUtilDigest(const std::vector<JobRecord>& jobs,
                                  SamplerConfig sampler = {}, uint64_t seed = 17);

// The digest line a telemetry stream ends with: the sample half over every
// sample `timeseries` recorded, written out or held
// (ClusterTimeSeries::SampleDigest), and the job half from `jobs`.
TelemetryDigest TelemetryStreamDigest(const ClusterTimeSeries& timeseries,
                                      const std::vector<JobRecord>& jobs);

// ---------------------------------------------------------------- Figure 7
struct HostResourceResult {
  StreamingHistogram cpu_util;     // percent of allocated CPU, job-time weighted
  StreamingHistogram memory_util;  // percent of allocated memory

  HostResourceResult();
};
HostResourceResult AnalyzeHostResources(const std::vector<JobRecord>& jobs,
                                        uint64_t seed = 23);

// ----------------------------------------------------------------- Table 6
struct StatusResult {
  struct Row {
    int64_t count = 0;
    double count_share = 0.0;
    double gpu_time_share = 0.0;
  };
  std::array<Row, 3> by_status;  // indexed by JobStatus
  int64_t total_jobs = 0;
  double total_gpu_seconds = 0.0;
};
StatusResult AnalyzeStatus(const std::vector<JobRecord>& jobs);

// ---------------------------------------------------------------- Figure 8
struct ConvergenceResult {
  // CDFs over the fraction of executed epochs needed to reach the lowest loss
  // and to come within 0.1% of it, for passed and killed jobs separately.
  StreamingHistogram passed_lowest;
  StreamingHistogram passed_within;
  StreamingHistogram killed_lowest;
  StreamingHistogram killed_within;
  // §4.1: average fraction of a job's GPU time spent improving the final 0.1%.
  double passed_gpu_time_for_last_tenth_pct = 0.0;
  double killed_gpu_time_for_last_tenth_pct = 0.0;
  int64_t jobs_with_convergence_info = 0;

  ConvergenceResult();
};
ConvergenceResult AnalyzeConvergence(const std::vector<JobRecord>& jobs);

// ----------------------------------- per-VC load (§2.3 / Figure 3 context)
struct VcLoadResult {
  struct Row {
    VcId vc = 0;
    int64_t jobs = 0;
    int quota_gpus = 0;              // from the config, if provided
    double mean_busy_gpus = 0.0;     // time-averaged GPUs held by this VC
    double peak_busy_gpus = 0.0;     // max over sample grid
    double over_quota_time_share = 0.0;  // fraction of sampled time above quota
    double mean_queue_delay_min = 0.0;
    double fair_share_delay_share = 0.0;  // of this VC's attributed delay time
  };
  std::vector<Row> rows;  // ordered by VC id
};
// `vcs` supplies quotas (may be empty); `sample_period` sets the averaging
// grid for busy-GPU time series.
VcLoadResult AnalyzeVcLoad(const std::vector<JobRecord>& jobs,
                           const std::vector<VcConfig>& vcs,
                           SimDuration sample_period = Hours(1));

// ----------------------------------------- Table 7 / Figure 9 / Figure 10
struct FailureAnalysisResult {
  struct ReasonRow {
    FailureReason reason = FailureReason::kNoSignature;
    int64_t trials = 0;
    int64_t jobs = 0;
    int64_t users = 0;
    double rtf_p50_min = 0.0;
    double rtf_p90_min = 0.0;
    double rtf_p95_min = 0.0;
    double rtf_total_share = 0.0;  // share of summed RTF across all failures
    std::array<int64_t, kNumDemandBuckets> demand = {0, 0, 0};
    double rtf_x_demand_share = 0.0;
  };
  std::array<ReasonRow, kNumFailureReasons> rows;  // indexed by classified reason
  int64_t total_trials = 0;
  double no_signature_fraction = 0.0;

  // Figure 9.
  std::array<double, kNumSizeBuckets> mean_retries_by_bucket = {};
  std::array<double, kNumSizeBuckets> unsuccessful_rate_by_bucket = {};
  double mean_retries_all = 0.0;
  double unsuccessful_rate_all = 0.0;

  // Figure 10: (gpu_demand, rtf_minutes) scatter samples for the four most
  // RTF-dominant reasons.
  std::map<FailureReason, std::vector<std::pair<int, double>>> rtf_demand_scatter;

  // Aggregate repetition factors over the top-8 reasons by trials (paper:
  // 2.3 per job, 38.8 per user).
  double top8_job_repetition = 0.0;
  double top8_user_repetition = 0.0;
};
FailureAnalysisResult AnalyzeFailures(const std::vector<JobRecord>& jobs);

}  // namespace philly

#endif  // SRC_CORE_ANALYSIS_H_
