#include "src/trace/trace_io.h"

#include <charconv>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>

#include "src/common/csv.h"
#include "src/common/strings.h"

namespace philly {
namespace {

// Per-row numeric parser. The old ToInt ignored std::from_chars errors, so
// "garbage" and "" silently became 0 and flowed into analyses; every
// malformed field now counts into the stats, and `row_ok` lets strict mode
// drop the row.
class FieldParser {
 public:
  explicit FieldParser(TraceReadStats* stats) : stats_(stats) {}

  void BeginRow() { row_ok_ = true; }
  bool row_ok() const { return row_ok_; }

  int64_t Int(std::string_view s) {
    int64_t v = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || ptr != s.data() + s.size()) {
      RecordError();
      return 0;
    }
    return v;
  }

  double Double(std::string_view s) {
    const std::string text(s);
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') {
      RecordError();
      return 0.0;
    }
    return v;
  }

 private:
  void RecordError() {
    row_ok_ = false;
    if (stats_ != nullptr) {
      ++stats_->numeric_parse_errors;
    }
  }

  TraceReadStats* stats_;
  bool row_ok_ = true;
};

JobStatus StatusFromString(std::string_view s) {
  if (s == "Passed") {
    return JobStatus::kPassed;
  }
  if (s == "Killed") {
    return JobStatus::kKilled;
  }
  return JobStatus::kUnsuccessful;
}

}  // namespace

void TraceWriter::WriteJobs(const std::vector<JobRecord>& jobs, std::ostream& out) {
  CsvWriter csv(out);
  csv.Row("job_id", "vc", "user", "submit_time", "num_gpus", "status", "queue_delay_s",
          "finish_time", "attempts", "retries", "gpu_seconds", "executed_epochs",
          "planned_epochs", "logs_convergence");
  for (const auto& job : jobs) {
    csv.Row(job.spec.id, job.spec.vc, job.spec.user, job.spec.submit_time,
            job.spec.num_gpus, std::string(ToString(job.status)),
            job.InitialQueueDelay(), job.finish_time,
            static_cast<int64_t>(job.attempts.size()),
            static_cast<int64_t>(job.NumRetries()), job.gpu_seconds,
            job.executed_epochs, job.spec.planned_epochs,
            static_cast<int>(job.spec.logs_convergence));
  }
}

void TraceWriter::WriteAttempts(const std::vector<JobRecord>& jobs, std::ostream& out) {
  CsvWriter csv(out);
  csv.Row("job_id", "attempt", "start", "end", "failed", "preempted", "placement");
  for (const auto& job : jobs) {
    for (const auto& attempt : job.attempts) {
      csv.Row(job.spec.id, attempt.index, attempt.start, attempt.end,
              static_cast<int>(attempt.failed), static_cast<int>(attempt.preempted),
              EncodePlacement(attempt.placement));
    }
  }
}

void TraceWriter::WriteUtilSegments(const std::vector<JobRecord>& jobs,
                                    std::ostream& out) {
  CsvWriter csv(out);
  csv.Row("job_id", "segment", "expected_util", "duration_s", "num_servers");
  for (const auto& job : jobs) {
    int index = 0;
    for (const auto& segment : job.util_segments) {
      csv.Row(job.spec.id, index++, segment.expected_util, segment.duration,
              segment.num_servers);
    }
  }
}

void TraceWriter::WriteStdoutLogs(const std::vector<JobRecord>& jobs,
                                  std::ostream& out) {
  for (const auto& job : jobs) {
    for (const auto& attempt : job.attempts) {
      if (attempt.log_tail.empty()) {
        continue;
      }
      // Length-prefixed frame: a tail line that itself looks like a frame
      // marker must not be re-parsed as one on read.
      out << "=== job " << job.spec.id << " attempt " << attempt.index
          << " lines " << attempt.log_tail.size() << '\n';
      for (const auto& line : attempt.log_tail) {
        out << line << '\n';
      }
    }
  }
}

bool TraceWriter::WriteDirectory(const std::vector<JobRecord>& jobs,
                                 const std::string& directory) {
  std::ofstream jobs_out(directory + "/" + kFileNames[0]);
  std::ofstream attempts_out(directory + "/" + kFileNames[1]);
  std::ofstream util_out(directory + "/" + kFileNames[2]);
  std::ofstream log_out(directory + "/" + kFileNames[3]);
  if (!jobs_out || !attempts_out || !util_out || !log_out) {
    return false;
  }
  WriteJobs(jobs, jobs_out);
  WriteAttempts(jobs, attempts_out);
  WriteUtilSegments(jobs, util_out);
  WriteStdoutLogs(jobs, log_out);
  return true;
}

std::vector<JobRecord> TraceReader::ReadJobs(std::istream& jobs_csv,
                                             std::istream& attempts_csv,
                                             std::istream& util_csv,
                                             std::istream& stdout_log,
                                             const TraceReadOptions& options,
                                             TraceReadStats* stats) {
  std::vector<JobRecord> jobs;
  std::map<JobId, size_t> index;
  FieldParser parse(stats);
  const auto reject_row = [&] {
    if (stats != nullptr) {
      ++stats->rows_rejected;
    }
  };

  const auto rows = ReadCsv(jobs_csv);
  for (size_t i = 1; i < rows.size(); ++i) {  // skip header
    const auto& r = rows[i];
    if (r.size() < 14) {
      reject_row();
      continue;
    }
    parse.BeginRow();
    JobRecord job;
    job.spec.id = parse.Int(r[0]);
    if (job.spec.id <= 0) {
      reject_row();
      continue;  // malformed or empty row
    }
    job.spec.vc = static_cast<VcId>(parse.Int(r[1]));
    job.spec.user = static_cast<UserId>(parse.Int(r[2]));
    job.spec.submit_time = parse.Int(r[3]);
    job.spec.num_gpus = static_cast<int>(parse.Int(r[4]));
    job.status = StatusFromString(r[5]);
    job.finish_time = parse.Int(r[7]);
    job.gpu_seconds = parse.Double(r[10]);
    job.executed_epochs = static_cast<int>(parse.Int(r[11]));
    job.spec.planned_epochs = static_cast<int>(parse.Int(r[12]));
    job.spec.logs_convergence = parse.Int(r[13]) != 0;
    WaitRecord wait;
    wait.ready_time = job.spec.submit_time;
    wait.wait = parse.Int(r[6]);
    job.waits.push_back(wait);
    if (options.strict && !parse.row_ok()) {
      reject_row();
      continue;
    }
    index.emplace(job.spec.id, jobs.size());
    jobs.push_back(std::move(job));
  }

  const auto attempt_rows = ReadCsv(attempts_csv);
  for (size_t i = 1; i < attempt_rows.size(); ++i) {
    const auto& r = attempt_rows[i];
    if (r.size() < 7) {
      reject_row();
      continue;
    }
    parse.BeginRow();
    const auto it = index.find(parse.Int(r[0]));
    if (it == index.end()) {
      reject_row();
      continue;
    }
    AttemptRecord attempt;
    attempt.index = static_cast<int>(parse.Int(r[1]));
    attempt.start = parse.Int(r[2]);
    attempt.end = parse.Int(r[3]);
    attempt.failed = parse.Int(r[4]) != 0;
    attempt.preempted = parse.Int(r[5]) != 0;
    attempt.placement = DecodePlacement(r[6]);
    if (options.strict && !parse.row_ok()) {
      reject_row();
      continue;
    }
    jobs[it->second].attempts.push_back(std::move(attempt));
  }

  const auto util_rows = ReadCsv(util_csv);
  for (size_t i = 1; i < util_rows.size(); ++i) {
    const auto& r = util_rows[i];
    if (r.size() < 5) {
      reject_row();
      continue;
    }
    parse.BeginRow();
    const auto it = index.find(parse.Int(r[0]));
    if (it == index.end()) {
      reject_row();
      continue;
    }
    UtilSegment segment{parse.Double(r[2]), parse.Int(r[3]),
                        static_cast<int>(parse.Int(r[4]))};
    if (options.strict && !parse.row_ok()) {
      reject_row();
      continue;
    }
    jobs[it->second].util_segments.push_back(segment);
  }

  // Log tails: length-prefixed frames ("=== job I attempt K lines N" followed
  // by exactly N verbatim lines), with a fallback for the legacy prefix-free
  // framing where lines attach to the current frame until the next marker.
  std::string line;
  AttemptRecord* current_attempt = nullptr;
  const auto find_attempt = [&](int64_t job_id,
                                int attempt_index) -> AttemptRecord* {
    const auto it = index.find(job_id);
    if (it == index.end()) {
      return nullptr;
    }
    for (auto& attempt : jobs[it->second].attempts) {
      if (attempt.index == attempt_index) {
        return &attempt;
      }
    }
    return nullptr;
  };
  while (std::getline(stdout_log, line)) {
    if (StartsWith(line, "=== job ")) {
      long long job_id = 0;
      int attempt_index = 0;
      long long num_lines = 0;
      const int matched =
          std::sscanf(line.c_str(), "=== job %lld attempt %d lines %lld",
                      &job_id, &attempt_index, &num_lines);
      if (matched == 3) {
        // Consume exactly num_lines lines verbatim — even ones that look
        // like frame markers.
        AttemptRecord* attempt = find_attempt(job_id, attempt_index);
        for (long long k = 0; k < num_lines && std::getline(stdout_log, line);
             ++k) {
          if (attempt != nullptr) {
            attempt->log_tail.push_back(line);
          }
        }
        current_attempt = nullptr;
        continue;
      }
      if (matched == 2) {
        current_attempt = find_attempt(job_id, attempt_index);
        continue;
      }
    }
    if (current_attempt != nullptr) {
      current_attempt->log_tail.push_back(line);
    }
  }
  return jobs;
}

}  // namespace philly
