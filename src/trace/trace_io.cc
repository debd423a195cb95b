#include "src/trace/trace_io.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <unordered_map>

#include "src/common/csv.h"
#include "src/common/strings.h"

namespace philly {
namespace {

constexpr std::string_view kJobsHeader =
    "job_id,vc,user,submit_time,num_gpus,status,queue_delay_s,finish_time,"
    "attempts,retries,gpu_seconds,executed_epochs,planned_epochs,logs_convergence,model";
constexpr std::string_view kAttemptsHeader =
    "job_id,attempt,start,end,failed,preempted,placement,ready_time,wait_s,"
    "fair_share_s,fragmentation_s,sched_attempts,prerun";
constexpr std::string_view kUtilHeader =
    "job_id,segment,expected_util,duration_s,num_servers";

// Length-prefixed, so a tail line that itself looks like a frame marker is
// never re-parsed as one.
std::string FrameMarker(int64_t job, int64_t attempt, int64_t lines) {
  return "=== job " + std::to_string(job) + " attempt " + std::to_string(attempt) +
         " lines " + std::to_string(lines);
}

std::string Quoted(std::string_view text) {
  std::string quoted(1, '\'');
  quoted.append(text).push_back('\'');
  return quoted;
}

// One file of a trace being read, line by line. The first failure becomes
// the error "FILE line N column C: why", and every read after it fails.
class TraceFile {
 public:
  // Reads the header line first when `header` is not empty.
  TraceFile(const char* name, std::istream& in, std::string_view header,
            std::string* error)
      : name_(name), in_(in), error_(error), columns_(Split(header, ',').size()) {
    if (!header.empty() && (!NextLine() || line_ != header)) {
      line_number_ = 1;
      Fail(0, "expected the header \"" + std::string(header) + "\"");
    }
  }

  // False at the end of the file or after a failure.
  bool NextLine() {
    if (failed() || !std::getline(in_, line_)) {
      return false;
    }
    ++line_number_;
    return true;
  }
  // A line with the header's field count.
  bool NextRow() {
    if (!NextLine()) {
      return false;
    }
    fields_ = Split(line_, ',');
    if (fields_.size() != columns_) {
      return Fail(std::min(fields_.size(), columns_),
                  "expected " + std::to_string(columns_) + " fields, found " +
                      std::to_string(fields_.size()));
    }
    return true;
  }

  const std::string& line() const { return line_; }
  int64_t line_number() const { return line_number_; }
  std::string_view Text(size_t column) const { return fields_[column]; }

  // The whole field as a finite number of type T, spelled as CsvWriter
  // spells it (std::to_chars: the shortest round trip for a double).
  template <typename T>
  T Number(size_t column, const char* what) {
    const std::string_view field = fields_[column];
    T value{};
    if (!ParseNumber(field, &value)) {
      Fail(column, Quoted(field) + " is not " + what);
      return value;
    }
    char buf[32];
    const std::string_view canonical(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    if (canonical != field) {
      Fail(column, Quoted(field) + " is not canonical, expected " + Quoted(canonical));
    }
    return value;
  }
  int64_t Int(size_t column) { return Number<int64_t>(column, "an integer"); }
  int Int32(size_t column) { return Number<int32_t>(column, "a 32-bit integer"); }
  double Double(size_t column) { return Number<double>(column, "a finite number"); }
  bool Flag(size_t column) {
    const int64_t value = Int(column);
    if (value != 0 && value != 1) {
      Fail(column, "expected 0 or 1");
    }
    return value == 1;
  }
  // An index that must count 0, 1, 2... within its job.
  void Index(size_t column, size_t expected) {
    const int64_t index = Int(column);
    if (!failed() && index != static_cast<int64_t>(expected)) {
      Fail(column, "index " + std::to_string(index) + " out of order, expected " +
                       std::to_string(expected));
    }
  }

  bool Fail(size_t column, const std::string& why) {
    if (!failed()) {
      *error_ = std::string(name_) + " line " + std::to_string(line_number_) +
                " column " + std::to_string(column + 1) + ": " + why;
    }
    return false;
  }
  bool failed() const { return !error_->empty(); }

 private:
  const char* name_;
  std::istream& in_;
  std::string* error_;
  size_t columns_;
  std::string line_;
  int64_t line_number_ = 0;
  std::vector<std::string_view> fields_;
};

}  // namespace

void TraceWriter::WriteJobs(const std::vector<JobRecord>& jobs, std::ostream& out) {
  out << kJobsHeader << '\n';
  CsvWriter csv(out);
  for (const auto& job : jobs) {
    csv.Row(job.spec.id, job.spec.vc, job.spec.user, job.spec.submit_time,
            job.spec.num_gpus, std::string(ToString(job.status)),
            job.InitialQueueDelay(), job.finish_time,
            static_cast<int64_t>(job.attempts.size()),
            static_cast<int64_t>(job.NumRetries()), job.GpuSeconds(),
            job.executed_epochs, job.spec.planned_epochs,
            static_cast<int>(job.spec.logs_convergence), std::string(ToString(job.spec.model)));
  }
}

void TraceWriter::WriteAttempts(const std::vector<JobRecord>& jobs, std::ostream& out) {
  out << kAttemptsHeader << '\n';
  CsvWriter csv(out);
  for (const auto& job : jobs) {
    for (size_t i = 0; i < job.attempts.size(); ++i) {
      const AttemptRecord& attempt = job.attempts[i];
      // The simulator closes waits[i] exactly when attempts[i] starts.
      const WaitRecord wait = i < job.waits.size() ? job.waits[i] : WaitRecord{};
      csv.Row(job.spec.id, attempt.index, attempt.start, attempt.end,
              static_cast<int>(attempt.failed), static_cast<int>(attempt.preempted),
              EncodePlacement(attempt.placement), wait.ready_time, wait.wait,
              wait.fair_share_time, wait.fragmentation_time, wait.sched_attempts,
              static_cast<int>(attempt.prerun));
    }
  }
}

void TraceWriter::WriteUtilSegments(const std::vector<JobRecord>& jobs,
                                    std::ostream& out) {
  out << kUtilHeader << '\n';
  CsvWriter csv(out);
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
      out << FrameMarker(job.spec.id, attempt.index,
                         static_cast<int64_t>(attempt.log_tail.size()))
          << '\n';
      for (const auto& line : attempt.log_tail) {
        out << line << '\n';
      }
    }
  }
}

bool TraceWriter::WriteDirectory(const std::vector<JobRecord>& jobs,
                                 const std::string& directory) {
  std::ofstream files[kFileNames.size()];
  for (size_t i = 0; i < kFileNames.size(); ++i) {
    files[i].open(directory + "/" + kFileNames[i]);
    if (!files[i]) {
      return false;
    }
  }
  WriteJobs(jobs, files[0]);
  WriteAttempts(jobs, files[1]);
  WriteUtilSegments(jobs, files[2]);
  WriteStdoutLogs(jobs, files[3]);
  bool ok = true;
  for (std::ofstream& file : files) {
    file.flush();
    ok = file.good() && ok;
  }
  return ok;
}

std::vector<JobRecord> TraceReader::ReadJobs(std::istream& jobs_csv,
                                             std::istream& attempts_csv,
                                             std::istream& util_csv,
                                             std::istream& stdout_log,
                                             std::string* error) {
  const auto& names = TraceWriter::kFileNames;
  std::string why;
  std::vector<JobRecord> jobs;
  std::unordered_map<JobId, size_t> index;
  // What each jobs.csv row claims about the attempts.csv rows of its job.
  struct Claim {
    int64_t line = 0;
    int64_t attempts = 0;
    SimDuration queue_delay = 0;
    double gpu_seconds = 0.0;
  };
  std::vector<Claim> claims;

  TraceFile job_rows(names[0], jobs_csv, kJobsHeader, &why);
  while (job_rows.NextRow()) {
    JobRecord job;
    job.spec.id = job_rows.Int(0);
    job.spec.vc = job_rows.Int32(1);
    job.spec.user = job_rows.Int32(2);
    job.spec.submit_time = job_rows.Int(3);
    job.spec.num_gpus = job_rows.Int32(4);
    const std::string_view status = job_rows.Text(5);
    if (status == ToString(JobStatus::kKilled)) {
      job.status = JobStatus::kKilled;
    } else if (status == ToString(JobStatus::kUnsuccessful)) {
      job.status = JobStatus::kUnsuccessful;
    } else if (status != ToString(JobStatus::kPassed)) {
      job_rows.Fail(5, "unknown status " + Quoted(status));
    }
    Claim& claim = claims.emplace_back();
    claim.line = job_rows.line_number();
    claim.queue_delay = job_rows.Int(6);
    job.finish_time = job_rows.Int(7);
    claim.attempts = job_rows.Int(8);
    if (job_rows.Int(9) != std::max<int64_t>(claim.attempts - 1, 0)) {
      job_rows.Fail(9, "retries must be one less than attempts");
    }
    claim.gpu_seconds = job_rows.Double(10);
    job.executed_epochs = job_rows.Int32(11);
    job.spec.planned_epochs = job_rows.Int32(12);
    job.spec.logs_convergence = job_rows.Flag(13);
    const std::string_view model = job_rows.Text(14);
    int family = 0;
    while (family < kNumModelFamilies && ToString(static_cast<ModelFamily>(family)) != model) {
      ++family;
    }
    if (family == kNumModelFamilies) {
      job_rows.Fail(14, "unknown model " + Quoted(model));
    }
    job.spec.model = static_cast<ModelFamily>(family);
    if (!index.emplace(job.spec.id, jobs.size()).second) {
      job_rows.Fail(0, "job " + std::to_string(job.spec.id) + " appears twice");
    }
    jobs.push_back(std::move(job));
  }

  const auto find_job = [&](TraceFile& file) -> JobRecord* {
    const int64_t id = file.Int(0);
    const auto it = index.find(id);
    if (it == index.end()) {
      file.Fail(0, "unknown job " + std::to_string(id));
      return nullptr;
    }
    return &jobs[it->second];
  };

  TraceFile attempt_rows(names[1], attempts_csv, kAttemptsHeader, &why);
  while (attempt_rows.NextRow()) {
    JobRecord* job = find_job(attempt_rows);
    if (job == nullptr) {
      break;
    }
    attempt_rows.Index(1, job->attempts.size());
    AttemptRecord& attempt = job->attempts.emplace_back();
    attempt.index = static_cast<int>(job->attempts.size()) - 1;
    attempt.start = attempt_rows.Int(2);
    attempt.end = attempt_rows.Int(3);
    attempt.failed = attempt_rows.Flag(4);
    attempt.preempted = attempt_rows.Flag(5);
    const std::string_view placement = attempt_rows.Text(6);
    attempt.placement = DecodePlacement(placement);
    if (EncodePlacement(attempt.placement) != placement) {
      attempt_rows.Fail(6, Quoted(placement) + " is not a placement");
    }
    WaitRecord& wait = job->waits.emplace_back();
    wait.ready_time = attempt_rows.Int(7);
    wait.wait = attempt_rows.Int(8);
    wait.fair_share_time = attempt_rows.Int(9);
    wait.fragmentation_time = attempt_rows.Int(10);
    wait.sched_attempts = attempt_rows.Int32(11);
    attempt.prerun = attempt_rows.Flag(12);
  }
  for (size_t i = 0; i < jobs.size() && why.empty(); ++i) {
    const auto fail = [&](int column, const std::string& what) {
      why = std::string(names[0]) + " line " + std::to_string(claims[i].line) +
            " column " + std::to_string(column) + ": " + what + " in " + names[1];
    };
    if (static_cast<int64_t>(jobs[i].attempts.size()) != claims[i].attempts) {
      fail(9, std::to_string(claims[i].attempts) + " attempts, but job " +
                  std::to_string(jobs[i].spec.id) + " has " +
                  std::to_string(jobs[i].attempts.size()));
    } else if (jobs[i].InitialQueueDelay() != claims[i].queue_delay) {
      fail(7, "queue_delay_s differs from the first wait_s");
    } else if (jobs[i].GpuSeconds() != claims[i].gpu_seconds) {
      fail(11, "gpu_seconds differs from the sum of its attempts' GPU time");
    }
  }

  TraceFile util_rows(names[2], util_csv, kUtilHeader, &why);
  while (util_rows.NextRow()) {
    JobRecord* job = find_job(util_rows);
    if (job == nullptr) {
      break;
    }
    util_rows.Index(1, job->util_segments.size());
    job->util_segments.push_back({util_rows.Double(2), util_rows.Int(3), util_rows.Int32(4)});
  }

  // Every line belongs to a frame: its marker, then exactly its lines.
  TraceFile log(names[3], stdout_log, "", &why);
  while (log.NextLine()) {
    // The marker must be exactly what FrameMarker writes.
    const std::vector<std::string_view> words = Split(log.line(), ' ');
    int64_t job_id = 0;
    int64_t attempt_index = 0;
    int64_t num_lines = 0;
    if (words.size() != 7 || !ParseNumber(words[2], &job_id) ||
        !ParseNumber(words[4], &attempt_index) || !ParseNumber(words[6], &num_lines) ||
        num_lines < 1 ||
        log.line() != FrameMarker(job_id, attempt_index, num_lines)) {
      log.Fail(0, "expected \"=== job ID attempt K lines N\" with N >= 1");
      break;
    }
    const auto it = index.find(job_id);
    if (it == index.end() || attempt_index < 0 ||
        attempt_index >= static_cast<int64_t>(jobs[it->second].attempts.size())) {
      log.Fail(0, "no attempt " + std::to_string(attempt_index) + " of job " +
                      std::to_string(job_id));
      break;
    }
    std::vector<std::string>& tail =
        jobs[it->second].attempts[static_cast<size_t>(attempt_index)].log_tail;
    if (!tail.empty()) {
      log.Fail(0, "a second frame for this attempt");
      break;
    }
    for (int64_t k = 0; k < num_lines; ++k) {
      if (!log.NextLine()) {
        log.Fail(0, "the file ends inside a frame");
        break;
      }
      tail.push_back(log.line());
    }
  }

  if (error != nullptr) {
    *error = why;
  }
  if (!why.empty()) {
    return {};
  }
  return jobs;
}

std::vector<JobRecord> TraceReader::ReadDirectory(const std::string& directory,
                                                  std::string* error) {
  std::ifstream files[std::size(TraceWriter::kFileNames)];
  for (size_t i = 0; i < std::size(files); ++i) {
    const std::string path = directory + "/" + TraceWriter::kFileNames[i];
    files[i].open(path);
    if (!files[i]) {
      *error = "cannot open " + path;
      return {};
    }
  }
  std::vector<JobRecord> jobs = ReadJobs(files[0], files[1], files[2], files[3], error);
  if (!error->empty()) {
    error->insert(0, directory + "/");
  }
  return jobs;
}

}  // namespace philly
