// Exporter for the *published* philly-traces artifact layout [38]
// (https://github.com/msr-fiddle/philly-traces), so tooling written against
// the public release can run on simulated traces.
//
// Files produced (best-effort match to the public schema):
//   cluster_job_log          JSON array; per job: status ("Pass"/"Killed"/
//                            "Failed"), vc hash, jobid ("application_<ts>_<n>"),
//                            submitted_time, user hash, attempts[] each with
//                            start_time/end_time and detail[] of {ip, gpus[]}
//   cluster_machine_list     CSV: machineId,number of GPUs
//   cluster_gpu_util         CSV: time,machineId,<per-GPU utilization>, one
//                            row per machine per sample period, averaged from
//                            the jobs' utilization segments
//   cluster_cpu_util         CSV: time,machineId,cpu_util
//   cluster_mem_util         CSV: time,machineId,mem_total,mem_free
//
// Known approximations (documented in DESIGN.md): timestamps are rendered
// from simulated seconds against a fixed epoch (the trace window's nominal
// start); vc/user identifiers are deterministic hashes, not Microsoft's; GPU
// utilization is reported per machine (mean over its in-use GPUs) rather than
// per physical GPU index.

#ifndef SRC_TRACE_PHILLY_FORMAT_H_
#define SRC_TRACE_PHILLY_FORMAT_H_

#include <array>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/sched/records.h"

namespace philly {

class PhillyTracesExporter {
 public:
  explicit PhillyTracesExporter(const ClusterConfig& cluster);

  void WriteJobLog(const std::vector<JobRecord>& jobs, std::ostream& out) const;
  void WriteMachineList(std::ostream& out) const;
  // Reconstructs per-machine utilization over time from the jobs' placement
  // and segment records once, then emits one row per (sample period, busy
  // machine) to each of the GPU, CPU and memory utilization files.
  void WriteUtil(const std::vector<JobRecord>& jobs, std::ostream& gpu_out,
                 std::ostream& cpu_out, std::ostream& mem_out) const;

  // The files WriteDirectory writes: the job log, the machine list, then
  // WriteUtil's three.
  static constexpr std::array<const char*, 5> kFileNames = {
      "cluster_job_log", "cluster_machine_list", "cluster_gpu_util",
      "cluster_cpu_util", "cluster_mem_util"};

  // Writes all five files into `directory` (kFileNames). Returns false when
  // a file cannot be opened or a write to it fails.
  bool WriteDirectory(const std::vector<JobRecord>& jobs,
                      const std::string& directory) const;

  // Formatting helpers (exposed for tests).
  std::string Timestamp(SimTime t) const;
  static std::string JobIdOf(const JobRecord& job);
  static std::string VcHash(VcId vc);
  static std::string UserHash(UserId user);
  static std::string MachineIp(ServerId server);

 private:
  // Per-machine busy GPU-time and utilization-weighted GPU-time per sample
  // bucket, rebuilt from segments.
  struct MachineSeries {
    std::vector<double> busy_gpu_seconds;
    std::vector<double> util_gpu_seconds;
  };
  std::vector<MachineSeries> BuildSeries(const std::vector<JobRecord>& jobs,
                                         size_t* num_buckets) const;

  ClusterConfig cluster_;
  int num_servers_ = 0;
};

// Importer for the real public release: parses a cluster_job_log (the JSON
// file shipped by msr-fiddle/philly-traces, or our exporter's output) into
// JobRecords so the analysis pipeline can run on actual production data.
// Only the information present in the job log is populated: status, VC and
// user (hashes mapped to dense ids), submission time, attempts with start /
// end / placement. Telemetry-dependent analyses (Fig 5/6/7, Tables 3/5) need
// utilization segments the public job log does not carry.
class PhillyTracesImporter {
 public:
  // Parses the JSON text: an array of job objects. On malformed input (bad
  // JSON, a root that is not an array, an entry that is not an object)
  // returns an empty vector and sets *error (when provided).
  std::vector<JobRecord> ImportJobLog(std::string_view json_text,
                                      std::string* error = nullptr);

  // What the last import tolerated because the public format has it.
  struct Tolerated {
    int64_t jobs_without_submit_time = 0;  // dropped
    int64_t attempts_without_times = 0;    // dropped: no start or end, or ends first
    int64_t other_statuses = 0;            // not Pass, Killed or Failed: Unsuccessful
    int64_t placements_without_gpus = 0;   // detail entries dropped
  };
  const Tolerated& tolerated() const { return tolerated_; }

  // Identifier spaces discovered during import.
  int num_vcs() const { return static_cast<int>(vc_ids_.size()); }
  int num_users() const { return static_cast<int>(user_ids_.size()); }
  int num_machines() const { return static_cast<int>(machine_ids_.size()); }

  // Parses "YYYY-MM-DD HH:MM:SS" into seconds relative to the exporter's
  // simulated t=0. Returns false on malformed input (e.g. "None").
  bool ParseTimestamp(std::string_view text, SimTime* out) const;

 private:
  Tolerated tolerated_;
  std::map<std::string, VcId, std::less<>> vc_ids_;
  std::map<std::string, UserId, std::less<>> user_ids_;
  std::map<std::string, ServerId, std::less<>> machine_ids_;
};

}  // namespace philly

#endif  // SRC_TRACE_PHILLY_FORMAT_H_
