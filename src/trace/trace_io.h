// Trace serialization in the style of the public philly-traces release [38].
//
// The released trace ships cluster_job_log (per-job scheduling metadata with
// per-attempt `server:gpu` placements), cluster_gpu_util, and
// cluster_mem_util/cpu_util CSVs. We write the same information from a
// SimulationResult and can read it back, so downstream tooling (and our own
// analysis round-trip tests) can treat a simulated run exactly like the
// published artifact.
//
// Schemas (one header row each):
//   jobs.csv:     job_id,vc,user,submit_time,num_gpus,status,queue_delay_s,
//                 finish_time,attempts,retries,gpu_seconds,executed_epochs,
//                 planned_epochs,logs_convergence,model
//                 (gpu_seconds is the sum of the job's attempts' GPU time;
//                 model is the family name, e.g. "resnet")
//   attempts.csv: job_id,attempt,start,end,failed,preempted,placement,
//                 ready_time,wait_s,fair_share_s,fragmentation_s,
//                 sched_attempts,prerun
//                 (placement is "server:gpus|server:gpus|..."; the five wait
//                 columns are the queueing period that ended when this
//                 attempt started, so queue_delay_s repeats attempt 0's wait_s)
//   gpu_util.csv: job_id,segment,expected_util,duration_s,num_servers
//   stdout.log:   per-attempt log tails, framed by
//                 "=== job <id> attempt <k> lines <n>" markers followed by
//                 exactly n verbatim lines (the raw text the failure
//                 classifier consumes). The length prefix makes the framing
//                 injection-proof: a log line that itself looks like a frame
//                 marker survives the round trip.
//
// The reader is strict: it accepts only what the writer produces. Any other
// row yields no jobs and an error naming the file, line and column.

#ifndef SRC_TRACE_TRACE_IO_H_
#define SRC_TRACE_TRACE_IO_H_

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/sched/records.h"

namespace philly {

class TraceWriter {
 public:
  static void WriteJobs(const std::vector<JobRecord>& jobs, std::ostream& out);
  static void WriteAttempts(const std::vector<JobRecord>& jobs, std::ostream& out);
  static void WriteUtilSegments(const std::vector<JobRecord>& jobs, std::ostream& out);
  static void WriteStdoutLogs(const std::vector<JobRecord>& jobs, std::ostream& out);

  // The files WriteDirectory writes, in the order of the four writers above.
  static constexpr std::array<const char*, 4> kFileNames = {
      "jobs.csv", "attempts.csv", "gpu_util.csv", "stdout.log"};

  // Writes all four streams into `directory` (kFileNames). Returns false when
  // a file cannot be opened or a write to it fails.
  static bool WriteDirectory(const std::vector<JobRecord>& jobs,
                             const std::string& directory);
};

class TraceReader {
 public:
  // Reads the four streams back into JobRecords (specs carry the fields
  // present in the trace; modeling-only spec fields are defaulted). On any
  // row the writer could not have produced, returns no jobs and sets *error
  // to "FILE line N column C: why"; otherwise clears it.
  static std::vector<JobRecord> ReadJobs(std::istream& jobs_csv,
                                         std::istream& attempts_csv,
                                         std::istream& util_csv,
                                         std::istream& stdout_log,
                                         std::string* error = nullptr);

  // ReadJobs over the files WriteDirectory wrote into `directory`; the error
  // names the file by its path.
  static std::vector<JobRecord> ReadDirectory(const std::string& directory,
                                              std::string* error);
};

}  // namespace philly

#endif  // SRC_TRACE_TRACE_IO_H_
