#include "src/core/analysis.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/hash.h"
#include "src/failure/failure_logs.h"
#include "src/telemetry/host_model.h"
#include "src/workload/loss_curve.h"

namespace philly {
namespace {

// Histogram shapes: the paper plots run times and delays on log axes from
// 10^-1 to 10^4+ minutes, and utilization linearly in percent.
StreamingHistogram MinutesLogHistogram() {
  return StreamingHistogram(0.02, 200000.0, 400, StreamingHistogram::Scale::kLog);
}
StreamingHistogram PercentHistogram() {
  return StreamingHistogram(0.0, 100.0, 200, StreamingHistogram::Scale::kLinear);
}
StreamingHistogram FractionHistogram() {
  return StreamingHistogram(0.0, 1.0, 200, StreamingHistogram::Scale::kLinear);
}

// Representative sizes for Fig 5 / Table 3.
int RepresentativeIndex(int num_gpus) {
  for (int i = 0; i < UtilizationResult::kNumRepresentative; ++i) {
    if (kRepresentativeSizes[i] == num_gpus) {
      return i;
    }
  }
  return -1;
}

// The one Ganglia sampling pass behind Table 3: jobs in order, each job's
// segments in order, segment k of job J sampled with seed
// Mix64(seed ^ J << 18 ^ k). Hands each sample to
// `add(job, rep, segment, value, w)`, where rep is the job's representative
// size index (-1 for none) and w the sample's weight times the job's GPUs.
// AnalyzeUtilization and ComputeUtilDigest both accumulate from here, so the
// telemetry digest sees exactly the samples, in exactly the order, that the
// analysis does.
template <typename Add>
void ForEachUtilSample(const std::vector<JobRecord>& jobs, SamplerConfig sampler_config,
                       uint64_t seed, Add add) {
  GangliaSampler sampler(sampler_config);
  for (const auto& job : jobs) {
    const int rep = RepresentativeIndex(job.spec.num_gpus);
    const double gpu_weight = job.spec.num_gpus;
    int segment_index = 0;
    for (const auto& segment : job.util_segments) {
      const uint64_t seg_seed =
          Mix64(seed ^ (static_cast<uint64_t>(job.spec.id) << 18) ^
                static_cast<uint64_t>(segment_index));
      ++segment_index;
      sampler.SampleSegment(segment.expected_util, segment.duration, seg_seed,
                            [&](double value, double weight) {
                              add(job, rep, segment, value, weight * gpu_weight);
                            });
    }
  }
}

// The digest's job and segment counts, before any sample is added.
TelemetryDigest JobDigestCounts(const std::vector<JobRecord>& jobs) {
  TelemetryDigest digest;
  digest.jobs = static_cast<int64_t>(jobs.size());
  for (const auto& job : jobs) {
    digest.segments += static_cast<int64_t>(job.util_segments.size());
  }
  return digest;
}

// Adds one ForEachUtilSample sample to the digest's per-class aggregates.
void AddToDigest(int rep, double value, double w, TelemetryDigest* digest) {
  digest->util_weight[TelemetryDigest::kOverallClass] += w;
  digest->util_weighted_sum[TelemetryDigest::kOverallClass] += value * w;
  if (rep >= 0) {
    digest->util_weight[static_cast<size_t>(rep)] += w;
    digest->util_weighted_sum[static_cast<size_t>(rep)] += value * w;
  }
}

}  // namespace

// ------------------------------------------------------------------- Fig 2

RunTimeResult::RunTimeResult()
    : cdf_minutes{MinutesLogHistogram(), MinutesLogHistogram(), MinutesLogHistogram(),
                  MinutesLogHistogram()} {}

RunTimeResult AnalyzeRunTimes(const std::vector<JobRecord>& jobs) {
  RunTimeResult result;
  int64_t over_week = 0;
  int64_t counted = 0;
  for (const auto& job : jobs) {
    const SimDuration run = job.TotalRunTime();
    if (run <= 0) {
      continue;
    }
    ++counted;
    const double minutes = ToMinutes(run);
    result.cdf_minutes[static_cast<size_t>(BucketOf(job.spec.num_gpus))].Add(minutes);
    if (minutes > 7.0 * 1440.0) {
      ++over_week;
    }
  }
  result.fraction_over_one_week =
      counted > 0 ? static_cast<double>(over_week) / counted : 0.0;
  return result;
}

// ------------------------------------------------------------------- Fig 3

QueueDelayResult::QueueDelayResult()
    : overall{MinutesLogHistogram(), MinutesLogHistogram(), MinutesLogHistogram(),
              MinutesLogHistogram()} {}

QueueDelayResult AnalyzeQueueDelays(const std::vector<JobRecord>& jobs) {
  QueueDelayResult result;
  for (const auto& job : jobs) {
    if (job.waits.empty()) {
      continue;
    }
    const double minutes = ToMinutes(job.InitialQueueDelay());
    const auto bucket = static_cast<size_t>(BucketOf(job.spec.num_gpus));
    auto it = result.by_vc.find(job.spec.vc);
    if (it == result.by_vc.end()) {
      it = result.by_vc
               .emplace(job.spec.vc, std::array<StreamingHistogram, kNumSizeBuckets>{
                                         MinutesLogHistogram(), MinutesLogHistogram(),
                                         MinutesLogHistogram(), MinutesLogHistogram()})
               .first;
    }
    it->second[bucket].Add(minutes);
    result.overall[bucket].Add(minutes);
  }
  return result;
}

// ------------------------------------------------------------------- Fig 4

LocalityDelayResult AnalyzeLocalityDelay(const std::vector<JobRecord>& jobs) {
  std::map<int, StreamingHistogram> five_eight;
  std::map<int, StreamingHistogram> gt_eight;
  for (const auto& job : jobs) {
    if (job.attempts.empty()) {
      continue;
    }
    const SizeBucket bucket = BucketOf(job.spec.num_gpus);
    if (bucket != SizeBucket::k5To8Gpu && bucket != SizeBucket::kGt8Gpu) {
      continue;
    }
    auto& target = bucket == SizeBucket::k5To8Gpu ? five_eight : gt_eight;
    const int servers = job.FirstPlacementServers();
    auto it = target.find(servers);
    if (it == target.end()) {
      it = target.emplace(servers, MinutesLogHistogram()).first;
    }
    it->second.Add(ToMinutes(job.InitialQueueDelay()));
  }
  LocalityDelayResult result;
  for (auto& [servers, hist] : five_eight) {
    result.five_to_eight.push_back(
        {servers, Summarize(hist), static_cast<int>(hist.Count())});
  }
  for (auto& [servers, hist] : gt_eight) {
    result.gt_eight.push_back(
        {servers, Summarize(hist), static_cast<int>(hist.Count())});
  }
  return result;
}

// ------------------------------------------------------------------ Table 2

DelayCauseResult AnalyzeDelayCauses(const std::vector<JobRecord>& jobs,
                                    const SimulationResult* sim) {
  DelayCauseResult result;
  double fair_time = 0.0;
  double frag_time = 0.0;
  std::array<int64_t, kNumSizeBuckets> overtaken_count = {};
  std::array<int64_t, kNumSizeBuckets> waited_count = {};

  for (const auto& job : jobs) {
    // Paper's filter: jobs that ran for at least one minute.
    if (job.TotalRunTime() < Minutes(1)) {
      continue;
    }
    const auto bucket = static_cast<size_t>(BucketOf(job.spec.num_gpus));
    for (const auto& wait : job.waits) {
      fair_time += static_cast<double>(wait.fair_share_time);
      frag_time += static_cast<double>(wait.fragmentation_time);
    }
    if (!job.waits.empty()) {
      switch (job.waits.front().DominantCause()) {
        case DelayCause::kFairShare:
          ++result.by_bucket[bucket].fair_share;
          break;
        case DelayCause::kFragmentation:
          ++result.by_bucket[bucket].fragmentation;
          break;
        case DelayCause::kNone:
          break;
      }
      if (job.waits.front().wait > 0) {
        ++waited_count[bucket];
        if (job.overtaken || job.started_out_of_order) {
          ++overtaken_count[bucket];
        }
      }
    }
  }
  const double total_time = fair_time + frag_time;
  if (total_time > 0) {
    result.fair_share_time_fraction = fair_time / total_time;
    result.fragmentation_time_fraction = frag_time / total_time;
  }
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    result.out_of_order_by_bucket[static_cast<size_t>(b)] =
        waited_count[static_cast<size_t>(b)] > 0
            ? static_cast<double>(overtaken_count[static_cast<size_t>(b)]) /
                  waited_count[static_cast<size_t>(b)]
            : 0.0;
  }
  if (sim != nullptr) {
    if (sim->scheduling_decisions > 0) {
      result.out_of_order_fraction =
          static_cast<double>(sim->out_of_order_decisions) / sim->scheduling_decisions;
    }
    if (sim->out_of_order_decisions > 0) {
      result.out_of_order_benign_fraction =
          static_cast<double>(sim->out_of_order_benign) / sim->out_of_order_decisions;
    }
    double empty_sum = 0.0;
    int empty_n = 0;
    double racks_sum = 0.0;
    int racks_n = 0;
    for (const auto& snap : sim->occupancy_snapshots) {
      if (snap.occupancy >= 0.60 && snap.occupancy <= 0.73) {
        empty_sum += snap.empty_server_fraction;
        ++empty_n;
      }
      racks_sum += snap.racks_with_empty_servers;
      ++racks_n;
    }
    result.empty_server_fraction_at_two_thirds = empty_n > 0 ? empty_sum / empty_n : 0.0;
    result.mean_racks_with_empty_servers = racks_n > 0 ? racks_sum / racks_n : 0.0;
  }
  return result;
}

// -------------------------------------------- Fig 5 / Table 3 / Fig 6 / Table 5

UtilizationResult::UtilizationResult()
    : by_status_size{{{PercentHistogram(), PercentHistogram(), PercentHistogram(),
                       PercentHistogram()},
                      {PercentHistogram(), PercentHistogram(), PercentHistogram(),
                       PercentHistogram()},
                      {PercentHistogram(), PercentHistogram(), PercentHistogram(),
                       PercentHistogram()}}},
      by_size{PercentHistogram(), PercentHistogram(), PercentHistogram(),
              PercentHistogram()},
      all(PercentHistogram()),
      dedicated_8gpu(PercentHistogram()),
      dedicated_16gpu(PercentHistogram()) {}

double UtilizationResult::MeanFor(JobStatus status, int size_index) const {
  return by_status_size[static_cast<size_t>(status)][static_cast<size_t>(size_index)]
      .Mean();
}

double UtilizationResult::MeanForSize(int size_index) const {
  return by_size[static_cast<size_t>(size_index)].Mean();
}

UtilizationResult AnalyzeUtilization(const std::vector<JobRecord>& jobs,
                                     SamplerConfig sampler_config, uint64_t seed) {
  UtilizationResult result;
  result.digest = JobDigestCounts(jobs);
  ForEachUtilSample(
      jobs, sampler_config, seed,
      [&result](const JobRecord& job, int rep, const UtilSegment& segment,
                double value, double w) {
        AddToDigest(rep, value, w, &result.digest);
        result.all.Add(value, w);
        if (rep >= 0) {
          result.by_size[static_cast<size_t>(rep)].Add(value, w);
          result
              .by_status_size[static_cast<size_t>(job.status)][static_cast<size_t>(rep)]
              .Add(value, w);
        }
        if (job.spec.num_gpus == 8 && segment.num_servers == 1) {
          result.dedicated_8gpu.Add(value, w);
        }
        if (job.spec.num_gpus == 16) {
          if (segment.num_servers == 2) {
            result.dedicated_16gpu.Add(value, w);
          }
          auto it = result.sixteen_by_servers.find(segment.num_servers);
          if (it == result.sixteen_by_servers.end()) {
            it = result.sixteen_by_servers.emplace(segment.num_servers, PercentHistogram())
                     .first;
          }
          it->second.Add(value, w);
        }
      });
  return result;
}

TelemetryDigest ComputeUtilDigest(const std::vector<JobRecord>& jobs,
                                  SamplerConfig sampler_config, uint64_t seed) {
  TelemetryDigest digest = JobDigestCounts(jobs);
  ForEachUtilSample(jobs, sampler_config, seed,
                    [&digest](const JobRecord&, int rep, const UtilSegment&,
                              double value, double w) {
                      AddToDigest(rep, value, w, &digest);
                    });
  return digest;
}

TelemetryDigest TelemetryStreamDigest(const ClusterTimeSeries& timeseries,
                                      const std::vector<JobRecord>& jobs) {
  return TelemetryStreamDigest(timeseries, ComputeUtilDigest(jobs));
}

TelemetryDigest TelemetryStreamDigest(const ClusterTimeSeries& timeseries,
                                      const TelemetryDigest& jobs_half) {
  TelemetryDigest digest = timeseries.SampleDigest();
  digest.jobs = jobs_half.jobs;
  digest.segments = jobs_half.segments;
  digest.util_weight = jobs_half.util_weight;
  digest.util_weighted_sum = jobs_half.util_weighted_sum;
  return digest;
}

// ------------------------------------------------------------------- Fig 7

HostResourceResult::HostResourceResult()
    : cpu_util(PercentHistogram()), memory_util(PercentHistogram()) {}

HostResourceResult AnalyzeHostResources(const std::vector<JobRecord>& jobs,
                                        uint64_t seed) {
  HostResourceResult result;
  for (const auto& job : jobs) {
    const SimDuration run = job.TotalRunTime();
    if (run <= 0) {
      continue;
    }
    const HostActivity activity = HostActivityFor(job.spec, seed);
    const double weight = ToMinutes(run) * job.spec.num_gpus;
    result.cpu_util.Add(activity.cpu_fraction * 100.0, weight);
    result.memory_util.Add(activity.memory_fraction * 100.0, weight);
  }
  return result;
}

// ------------------------------------------------------------------ Table 6

StatusResult AnalyzeStatus(const std::vector<JobRecord>& jobs) {
  StatusResult result;
  for (const auto& job : jobs) {
    auto& row = result.by_status[static_cast<size_t>(job.status)];
    const double gpu_seconds = job.GpuSeconds();
    ++row.count;
    row.gpu_time_share += gpu_seconds;  // raw sum; normalized below
    ++result.total_jobs;
    result.total_gpu_seconds += gpu_seconds;
  }
  for (auto& row : result.by_status) {
    row.count_share =
        result.total_jobs > 0 ? static_cast<double>(row.count) / result.total_jobs : 0.0;
    row.gpu_time_share = result.total_gpu_seconds > 0
                             ? row.gpu_time_share / result.total_gpu_seconds
                             : 0.0;
  }
  return result;
}

// ------------------------------------------------------------------- Fig 8

ConvergenceResult::ConvergenceResult()
    : passed_lowest(FractionHistogram()),
      passed_within(FractionHistogram()),
      killed_lowest(FractionHistogram()),
      killed_within(FractionHistogram()) {}

ConvergenceResult AnalyzeConvergence(const std::vector<JobRecord>& jobs) {
  ConvergenceResult result;
  double passed_last_sum = 0.0;
  int64_t passed_n = 0;
  double killed_last_sum = 0.0;
  int64_t killed_n = 0;
  for (const auto& job : jobs) {
    if (!job.spec.logs_convergence || job.executed_epochs < 2) {
      continue;
    }
    if (job.status != JobStatus::kPassed && job.status != JobStatus::kKilled) {
      continue;
    }
    ++result.jobs_with_convergence_info;
    const LossCurve curve(job.spec.loss_curve, job.spec.planned_epochs,
                          LossCurveSeed(job.spec.id));
    const int executed = std::min(job.executed_epochs, job.spec.planned_epochs);
    const double denom = executed;
    const double lowest_frac = curve.BestEpoch(executed) / denom;
    const double within_frac = curve.FirstEpochWithin(0.001, executed) / denom;
    if (job.status == JobStatus::kPassed) {
      result.passed_lowest.Add(lowest_frac);
      result.passed_within.Add(within_frac);
      passed_last_sum += 1.0 - within_frac;
      ++passed_n;
    } else {
      result.killed_lowest.Add(lowest_frac);
      result.killed_within.Add(within_frac);
      killed_last_sum += 1.0 - within_frac;
      ++killed_n;
    }
  }
  result.passed_gpu_time_for_last_tenth_pct =
      passed_n > 0 ? passed_last_sum / passed_n : 0.0;
  result.killed_gpu_time_for_last_tenth_pct =
      killed_n > 0 ? killed_last_sum / killed_n : 0.0;
  return result;
}

// --------------------------------------------------------- per-VC load

VcLoadResult AnalyzeVcLoad(const std::vector<JobRecord>& jobs,
                           const std::vector<VcConfig>& vcs,
                           SimDuration sample_period) {
  VcLoadResult result;
  VcId max_vc = -1;
  SimTime horizon = 0;
  for (const auto& job : jobs) {
    max_vc = std::max(max_vc, job.spec.vc);
    horizon = std::max(horizon, job.finish_time);
    // Records assembled outside the simulator may not populate finish_time;
    // size the grid from attempt ends too so indexing stays in bounds.
    for (const auto& attempt : job.attempts) {
      horizon = std::max(horizon, attempt.end);
    }
  }
  if (max_vc < 0) {
    return result;
  }
  sample_period = std::max<SimDuration>(60, sample_period);
  const auto buckets = static_cast<size_t>(horizon / sample_period) + 1;
  const auto num_vcs = static_cast<size_t>(max_vc) + 1;

  // busy[vc][bucket] = GPU-seconds held in that bucket.
  std::vector<std::vector<double>> busy(num_vcs, std::vector<double>(buckets, 0.0));
  std::vector<VcLoadResult::Row> rows(num_vcs);
  for (size_t v = 0; v < num_vcs; ++v) {
    rows[v].vc = static_cast<VcId>(v);
    if (v < vcs.size()) {
      rows[v].quota_gpus = vcs[v].quota_gpus;
    }
  }

  for (const auto& job : jobs) {
    auto& row = rows[static_cast<size_t>(job.spec.vc)];
    ++row.jobs;
    row.mean_queue_delay_min += ToMinutes(job.InitialQueueDelay());
    for (const auto& wait : job.waits) {
      row.fair_share_delay_share += static_cast<double>(wait.fair_share_time);
      // fragmentation accumulated below via total; reuse field temporarily.
    }
    for (const auto& attempt : job.attempts) {
      if (attempt.prerun) {
        continue;
      }
      const int gpus = attempt.placement.NumGpus();
      SimTime t = attempt.start;
      SimDuration remaining = attempt.Duration();
      auto& series = busy[static_cast<size_t>(job.spec.vc)];
      while (remaining > 0) {
        const auto bucket = static_cast<size_t>(t / sample_period);
        const SimDuration bucket_end =
            static_cast<SimDuration>(bucket + 1) * sample_period;
        const SimDuration take = std::min<SimDuration>(remaining, bucket_end - t);
        series[bucket] += static_cast<double>(take) * gpus;
        t += take;
        remaining -= take;
      }
    }
  }

  // Second pass for the delay-share denominator.
  std::vector<double> total_delay(num_vcs, 0.0);
  for (const auto& job : jobs) {
    for (const auto& wait : job.waits) {
      total_delay[static_cast<size_t>(job.spec.vc)] +=
          static_cast<double>(wait.fair_share_time + wait.fragmentation_time);
    }
  }

  for (size_t v = 0; v < num_vcs; ++v) {
    auto& row = rows[v];
    double sum = 0.0;
    double peak = 0.0;
    int64_t over_quota = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const double mean_gpus = busy[v][b] / static_cast<double>(sample_period);
      sum += mean_gpus;
      peak = std::max(peak, mean_gpus);
      if (row.quota_gpus > 0 && mean_gpus > row.quota_gpus) {
        ++over_quota;
      }
    }
    row.mean_busy_gpus = sum / static_cast<double>(buckets);
    row.peak_busy_gpus = peak;
    row.over_quota_time_share =
        static_cast<double>(over_quota) / static_cast<double>(buckets);
    row.mean_queue_delay_min =
        row.jobs > 0 ? row.mean_queue_delay_min / static_cast<double>(row.jobs) : 0.0;
    row.fair_share_delay_share =
        total_delay[v] > 0 ? row.fair_share_delay_share / total_delay[v] : 0.0;
  }
  result.rows = std::move(rows);
  return result;
}

// ------------------------------------------- Table 7 / Fig 9 / Fig 10

FailureAnalysisResult AnalyzeFailures(const std::vector<JobRecord>& jobs) {
  FailureAnalysisResult result;
  FailureClassifier classifier;

  struct ReasonAgg {
    std::vector<double> rtfs;  // minutes
    std::unordered_set<JobId> job_ids;
    std::unordered_set<UserId> user_ids;
    double rtf_sum = 0.0;
    double rtf_x_demand = 0.0;
  };
  std::array<ReasonAgg, kNumFailureReasons> agg;
  double rtf_total = 0.0;
  double rtf_x_demand_total = 0.0;

  std::array<double, kNumSizeBuckets> retries_sum = {};
  std::array<int64_t, kNumSizeBuckets> bucket_jobs = {};
  std::array<int64_t, kNumSizeBuckets> bucket_unsuccessful = {};
  double retries_all = 0.0;
  int64_t unsuccessful_all = 0;

  static constexpr FailureReason kScatterReasons[] = {
      FailureReason::kIncorrectInputs, FailureReason::kSemanticError,
      FailureReason::kModelCkptError, FailureReason::kMpiRuntimeFailure};

  for (const auto& job : jobs) {
    const auto bucket = static_cast<size_t>(BucketOf(job.spec.num_gpus));
    ++bucket_jobs[bucket];
    retries_sum[bucket] += job.NumRetries();
    retries_all += job.NumRetries();
    if (job.status == JobStatus::kUnsuccessful) {
      ++bucket_unsuccessful[bucket];
      ++unsuccessful_all;
    }
    for (const auto& attempt : job.attempts) {
      if (!attempt.failed) {
        continue;
      }
      const FailureReason reason = classifier.Classify(attempt.log_tail);
      const auto r = static_cast<size_t>(reason);
      auto& a = agg[r];
      const double rtf_min = ToMinutes(attempt.Duration());
      a.rtfs.push_back(rtf_min);
      a.job_ids.insert(job.spec.id);
      a.user_ids.insert(job.spec.user);
      a.rtf_sum += rtf_min;
      a.rtf_x_demand += rtf_min * job.spec.num_gpus;
      rtf_total += rtf_min;
      rtf_x_demand_total += rtf_min * job.spec.num_gpus;
      ++result.rows[r].demand[static_cast<size_t>(DemandBucketOf(job.spec.num_gpus))];
      for (FailureReason scatter_reason : kScatterReasons) {
        if (reason == scatter_reason) {
          auto& samples = result.rtf_demand_scatter[reason];
          if (samples.size() < 2000) {
            samples.emplace_back(job.spec.num_gpus, rtf_min);
          }
        }
      }
    }
  }

  for (int r = 0; r < kNumFailureReasons; ++r) {
    auto& row = result.rows[static_cast<size_t>(r)];
    auto& a = agg[static_cast<size_t>(r)];
    row.reason = static_cast<FailureReason>(r);
    row.trials = static_cast<int64_t>(a.rtfs.size());
    row.jobs = static_cast<int64_t>(a.job_ids.size());
    row.users = static_cast<int64_t>(a.user_ids.size());
    if (!a.rtfs.empty()) {
      constexpr double kRtfQuantiles[] = {0.50, 0.90, 0.95};
      const std::vector<double> q = Percentiles(a.rtfs, kRtfQuantiles);
      row.rtf_p50_min = q[0];
      row.rtf_p90_min = q[1];
      row.rtf_p95_min = q[2];
    }
    row.rtf_total_share = rtf_total > 0 ? a.rtf_sum / rtf_total : 0.0;
    row.rtf_x_demand_share =
        rtf_x_demand_total > 0 ? a.rtf_x_demand / rtf_x_demand_total : 0.0;
    result.total_trials += row.trials;
  }
  if (result.total_trials > 0) {
    result.no_signature_fraction =
        static_cast<double>(
            result.rows[static_cast<size_t>(FailureReason::kNoSignature)].trials) /
        result.total_trials;
  }

  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const auto bi = static_cast<size_t>(b);
    if (bucket_jobs[bi] > 0) {
      result.mean_retries_by_bucket[bi] = retries_sum[bi] / bucket_jobs[bi];
      result.unsuccessful_rate_by_bucket[bi] =
          static_cast<double>(bucket_unsuccessful[bi]) / bucket_jobs[bi];
    }
  }
  if (!jobs.empty()) {
    result.mean_retries_all = retries_all / static_cast<double>(jobs.size());
    result.unsuccessful_rate_all =
        static_cast<double>(unsuccessful_all) / static_cast<double>(jobs.size());
  }

  // Top-8 repetition factors (mean of per-reason ratios, as in §4.2.2).
  std::vector<const FailureAnalysisResult::ReasonRow*> sorted;
  for (const auto& row : result.rows) {
    sorted.push_back(&row);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->trials > b->trials; });
  double job_ratio_sum = 0.0;
  double user_ratio_sum = 0.0;
  int top_n = 0;
  for (const auto* row : sorted) {
    if (top_n >= 8 || row->trials == 0) {
      break;
    }
    if (row->jobs > 0) {
      job_ratio_sum += static_cast<double>(row->trials) / row->jobs;
    }
    if (row->users > 0) {
      user_ratio_sum += static_cast<double>(row->trials) / row->users;
    }
    ++top_n;
  }
  if (top_n > 0) {
    result.top8_job_repetition = job_ratio_sum / top_n;
    result.top8_user_repetition = user_ratio_sum / top_n;
  }
  return result;
}

}  // namespace philly
