#include "src/core/report.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>

#include "src/common/csv.h"
#include "src/common/strings.h"
#include "src/core/runner.h"
#include "src/obs/trace_profiler.h"
#include "src/trace/philly_format.h"
#include "src/trace/trace_io.h"

namespace philly {
namespace {

// Tables 6 and 2 and Figures 2-3 read only the scheduler stream (JobRecord
// scheduling fields and counters), so an event-log join reproduces them.
void AnalyzeSchedulerSections(const std::vector<JobRecord>& jobs, const SimulationResult* sim,
                              ReportAnalyses* analyses) {
  analyses->status = AnalyzeStatus(jobs);
  analyses->runtimes = AnalyzeRunTimes(jobs);
  analyses->delays = AnalyzeQueueDelays(jobs);
  analyses->causes = AnalyzeDelayCauses(jobs, sim);
}

void PrintSchedulerSections(const ReportAnalyses& analyses, const SimulationResult* sim,
                            std::FILE* out) {
  std::fprintf(out, "=== Table 6: job status vs GPU time ===\n");
  TextTable status_table({"status", "count", "count share", "GPU-time share"});
  for (int s = 0; s < 3; ++s) {
    const auto& row = analyses.status.by_status[static_cast<size_t>(s)];
    status_table.AddRow({std::string(ToString(static_cast<JobStatus>(s))),
                         std::to_string(row.count), FormatPercent(row.count_share, 1),
                         FormatPercent(row.gpu_time_share, 1)});
  }
  std::fprintf(out, "%s\n", status_table.Render().c_str());

  std::fprintf(out, "=== Figure 2: run times ===\n");
  TextTable rt_table({"bucket", "n", "median (min)", "p90 (min)", "p99 (min)"});
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const auto& hist = analyses.runtimes.cdf_minutes[static_cast<size_t>(b)];
    rt_table.AddRow({std::string(ToString(static_cast<SizeBucket>(b))),
                     FormatDouble(hist.Count(), 0), FormatDouble(hist.Median(), 1),
                     FormatDouble(hist.Quantile(0.9), 1),
                     FormatDouble(hist.Quantile(0.99), 1)});
  }
  std::fprintf(out, "%s  jobs over one week: %s\n\n", rt_table.Render().c_str(),
               FormatPercent(analyses.runtimes.fraction_over_one_week, 2).c_str());

  std::fprintf(out, "=== Figure 3: queueing delay ===\n");
  TextTable d_table({"bucket", "P(<=1min)", "P(<=10min)", "p90 (min)", "p99 (min)"});
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const auto& hist = analyses.delays.overall[static_cast<size_t>(b)];
    d_table.AddRow({std::string(ToString(static_cast<SizeBucket>(b))),
                    FormatPercent(hist.CdfAt(1.0), 1), FormatPercent(hist.CdfAt(10.0), 1),
                    FormatDouble(hist.Quantile(0.9), 2),
                    FormatDouble(hist.Quantile(0.99), 2)});
  }
  std::fprintf(out, "%s\n", d_table.Render().c_str());

  const DelayCauseResult& causes = analyses.causes;
  std::fprintf(out, "=== Table 2: delay causes ===\n");
  TextTable c_table({"bucket", "fair-share", "fragmentation"});
  for (int b = 1; b < kNumSizeBuckets; ++b) {
    const auto& row = causes.by_bucket[static_cast<size_t>(b)];
    c_table.AddRow({std::string(ToString(static_cast<SizeBucket>(b))),
                    std::to_string(row.fair_share), std::to_string(row.fragmentation)});
  }
  std::fprintf(out, "%swaiting time: %s fragmentation / %s fair-share\n",
               c_table.Render().c_str(),
               FormatPercent(causes.fragmentation_time_fraction, 1).c_str(),
               FormatPercent(causes.fair_share_time_fraction, 1).c_str());
  if (sim != nullptr) {
    std::fprintf(out, "out-of-order: %s of decisions, %s benign; preemptions %lld; "
                 "migrations %lld\n",
                 FormatPercent(causes.out_of_order_fraction, 1).c_str(),
                 FormatPercent(causes.out_of_order_benign_fraction, 1).c_str(),
                 static_cast<long long>(sim->preemptions),
                 static_cast<long long>(sim->migrations));
  }
  std::fprintf(out, "\n");
}

void PrintUtilizationSection(const UtilizationResult& util, std::FILE* out) {
  std::fprintf(out, "=== Figure 5 / Table 3: GPU utilization ===\n");
  TextTable u_table({"size", "mean util (%)", "p50", "p90"});
  for (int i = 0; i < UtilizationResult::kNumRepresentative; ++i) {
    const auto& hist = util.by_size[static_cast<size_t>(i)];
    u_table.AddRow({std::to_string(kRepresentativeSizes[i]) + " GPU",
                    FormatDouble(hist.Mean(), 1), FormatDouble(hist.Median(), 1),
                    FormatDouble(hist.Quantile(0.9), 1)});
  }
  std::fprintf(out, "%soverall mean: %.1f%%\n\n", u_table.Render().c_str(), util.all.Mean());
}

void PrintFailureSection(const FailureAnalysisResult& failures, std::FILE* out) {
  std::fprintf(out, "=== Table 7: failures (top 10 by trials) ===\n");
  std::vector<const FailureAnalysisResult::ReasonRow*> rows;
  for (const auto& row : failures.rows) {
    if (row.trials > 0) {
      rows.push_back(&row);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto* a, const auto* b) { return a->trials > b->trials; });
  TextTable f_table({"reason", "trials", "jobs", "users", "RTF p50 (min)", "RTF share"});
  for (size_t i = 0; i < rows.size() && i < 10; ++i) {
    f_table.AddRow({std::string(ToString(rows[i]->reason)),
                    std::to_string(rows[i]->trials), std::to_string(rows[i]->jobs),
                    std::to_string(rows[i]->users),
                    FormatDouble(rows[i]->rtf_p50_min, 2),
                    FormatPercent(rows[i]->rtf_total_share, 1)});
  }
  std::fprintf(out, "%stotal trials %lld; unsuccessful rate %s; mean retries %.3f\n",
               f_table.Render().c_str(), static_cast<long long>(failures.total_trials),
               FormatPercent(failures.unsuccessful_rate_all, 1).c_str(),
               failures.mean_retries_all);
}

void PrintFaultSections(const SimulationResult& sim, std::FILE* out) {
  if (sim.machine_faults_injected > 0) {
    std::fprintf(out,
                 "\n=== Machine faults ===\n"
                 "%lld fault events; %lld server-downs; %lld attempts killed; "
                 "%.1f GPU-hours lost\n",
                 static_cast<long long>(sim.machine_faults_injected),
                 static_cast<long long>(sim.machine_fault_server_downs),
                 static_cast<long long>(sim.machine_fault_kills),
                 sim.machine_fault_lost_gpu_seconds / 3600.0);
  }
  if (sim.ckpt_writes_started > 0) {
    std::fprintf(out,
                 "\n=== Checkpoint I/O ===\n"
                 "%lld writes started (%lld completed, %lld interrupted); "
                 "%.1f GPU-hours overhead; %.1f GPU-hours stalled on contention\n",
                 static_cast<long long>(sim.ckpt_writes_started),
                 static_cast<long long>(sim.ckpt_writes_completed),
                 static_cast<long long>(sim.ckpt_writes_interrupted),
                 sim.ckpt_overhead_gpu_seconds / 3600.0, sim.ckpt_stall_gpu_seconds / 3600.0);
  }
}

}  // namespace

void PrintReport(const ReportAnalyses& analyses, const SimulationResult* sim,
                 std::FILE* out) {
  PrintSchedulerSections(analyses, sim, out);
  PrintUtilizationSection(analyses.util, out);
  PrintFailureSection(analyses.failures, out);
  if (sim != nullptr) {
    PrintFaultSections(*sim, out);
  }
}

void PrintEventReport(const SimulationResult& joined, std::FILE* out) {
  ReportAnalyses analyses;
  AnalyzeSchedulerSections(joined.jobs, &joined, &analyses);
  PrintSchedulerSections(analyses, &joined, out);
}

bool ExportFigures(const std::vector<JobRecord>& jobs, const ReportAnalyses& analyses,
                   const std::string& dir, std::FILE* out) {
  const auto write = [&dir](const StreamingHistogram& hist, const std::string& name) {
    const std::string path = dir + "/" + name;
    if (!WriteCdfCsv(hist, path)) {
      std::fprintf(stderr, "cannot write figure series %s\n", path.c_str());
      return false;
    }
    return true;
  };
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const std::string bucket = std::to_string(b) + ".csv";
    if (!write(analyses.runtimes.cdf_minutes[static_cast<size_t>(b)],
               "fig2_runtime_bucket" + bucket) ||
        !write(analyses.delays.overall[static_cast<size_t>(b)], "fig3_delay_bucket" + bucket)) {
      return false;
    }
  }
  for (int i = 0; i < UtilizationResult::kNumRepresentative; ++i) {
    if (!write(analyses.util.by_size[static_cast<size_t>(i)],
               "fig5_util_" + std::to_string(kRepresentativeSizes[i]) + "gpu.csv")) {
      return false;
    }
  }
  const auto host = AnalyzeHostResources(jobs);
  if (!write(host.cpu_util, "fig7_cpu.csv") || !write(host.memory_util, "fig7_memory.csv")) {
    return false;
  }
  std::fprintf(out, "figure series written to %s/\n", dir.c_str());
  return true;
}

bool RunPostRun(const PostRun& run, const ExperimentPool& pool, std::FILE* out,
                ReportAnalyses* analyses) {
  const std::vector<JobRecord>& jobs = *run.jobs;
  ScopedTimer analyze_timer(run.profiler, "analyze");
  // Each task writes only its own result; the pool's join orders those
  // writes before the reads below.
  bool native_ok = true;
  bool philly_traces_ok = true;
  std::vector<std::pair<const char*, std::function<void()>>> tasks;
  if (run.philly_traces != nullptr) {
    tasks.emplace_back("trace:philly-traces", [&] {
      philly_traces_ok =
          PhillyTracesExporter(*run.philly_traces).WriteDirectory(jobs, run.trace_dir);
    });
  }
  tasks.emplace_back("table3", [&] { analyses->util = AnalyzeUtilization(jobs); });
  if (run.native) {
    tasks.emplace_back("trace:native", [&] {
      native_ok = TraceWriter::WriteDirectory(jobs, run.trace_dir);
    });
  }
  tasks.emplace_back("table7", [&] { analyses->failures = AnalyzeFailures(jobs); });
  tasks.emplace_back("tables", [&] { AnalyzeSchedulerSections(jobs, run.sim, analyses); });
  pool.ParallelFor(static_cast<int>(tasks.size()), [&](int i) {
    const auto& [name, task] = tasks[static_cast<size_t>(i)];
    ScopedTimer timer(run.profiler, name);
    task();
  });

  if (!native_ok) {
    std::fprintf(stderr, "cannot write native trace to %s\n", run.trace_dir.c_str());
    return false;
  }
  if (run.native) {
    std::fprintf(out, "native trace written to %s/\n", run.trace_dir.c_str());
  }
  if (!philly_traces_ok) {
    std::fprintf(stderr, "cannot write philly-traces files to %s\n", run.trace_dir.c_str());
    return false;
  }
  if (run.philly_traces != nullptr) {
    std::fprintf(out, "philly-traces-format files written to %s/\n", run.trace_dir.c_str());
  }
  PrintReport(*analyses, run.sim, out);
  if (run.figures_dir.empty()) {
    return true;
  }
  ScopedTimer figures_timer(run.profiler, "figures");
  return ExportFigures(jobs, *analyses, run.figures_dir, out);
}

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
