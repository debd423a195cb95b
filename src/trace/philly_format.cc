#include "src/trace/philly_format.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <ostream>

#include "src/common/csv.h"
#include "src/common/hash.h"
#include "src/common/json.h"
#include "src/telemetry/host_model.h"

namespace philly {
namespace {

// Nominal wall-clock of simulated t=0, seconds since the Unix epoch
// (2017-10-01 00:00:00 UTC, matching the paper's collection window).
constexpr int64_t kEpochOffset = 1506816000;

// Sampling period of the utilization CSVs. The public trace is per-minute;
// 10 minutes keeps full-scale exports a few hundred MB smaller while
// preserving the curves.
constexpr SimDuration kUtilSamplePeriod = Minutes(10);

// Host memory of every server, of which a job gets the share its GPUs are of
// the server's (§2.3).
constexpr double kMemoryGbPerServer = 512.0;

std::string Hex(uint64_t v, int digits) {
  // Keep exactly `digits` hex characters (the public trace uses short hashes).
  if (digits < 16) {
    v &= (1ull << (4 * digits)) - 1;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%0*" PRIx64, digits, v);
  return buf;
}

// Reconstructs each segment's absolute interval by replaying the job's
// attempts in order (segments never span attempt boundaries).
template <typename Visitor>
void ForEachSegmentInterval(const JobRecord& job, Visitor&& visit) {
  size_t segment_index = 0;
  for (const auto& attempt : job.attempts) {
    if (attempt.prerun) {
      continue;  // pool time; not on cluster machines
    }
    SimTime cursor = attempt.start;
    SimDuration remaining = attempt.Duration();
    while (remaining > 0 && segment_index < job.util_segments.size()) {
      const UtilSegment& segment = job.util_segments[segment_index];
      const SimDuration take = std::min<SimDuration>(segment.duration, remaining);
      visit(attempt, segment, cursor, take);
      cursor += take;
      remaining -= take;
      ++segment_index;
    }
  }
}

}  // namespace

PhillyTracesExporter::PhillyTracesExporter(const ClusterConfig& cluster)
    : cluster_(cluster), num_servers_(cluster.TotalServers()) {}

std::string PhillyTracesExporter::Timestamp(SimTime t) const {
  const std::time_t wall = static_cast<std::time_t>(kEpochOffset + t);
  std::tm tm_utc{};
  gmtime_r(&wall, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S", &tm_utc);
  return buf;
}

std::string PhillyTracesExporter::JobIdOf(const JobRecord& job) {
  return "application_" + std::to_string(kEpochOffset + job.spec.submit_time) + "_" +
         std::to_string(job.spec.id);
}

std::string PhillyTracesExporter::VcHash(VcId vc) {
  return Hex(Mix64(static_cast<uint64_t>(vc) ^ 0x5C0FFull), 10);
}

std::string PhillyTracesExporter::UserHash(UserId user) {
  return Hex(Mix64(static_cast<uint64_t>(user) ^ 0xA11CEull), 10);
}

std::string PhillyTracesExporter::MachineIp(ServerId server) {
  return "10." + std::to_string(server / 256 + 1) + "." +
         std::to_string(server % 256) + ".42";
}

void PhillyTracesExporter::WriteJobLog(const std::vector<JobRecord>& jobs,
                                       std::ostream& out) const {
  out << "[\n";
  bool first_job = true;
  for (const auto& job : jobs) {
    if (!first_job) {
      out << ",\n";
    }
    first_job = false;
    const char* status = "Failed";
    if (job.status == JobStatus::kPassed) {
      status = "Pass";
    } else if (job.status == JobStatus::kKilled) {
      status = "Killed";
    }
    out << "  {\"status\": \"" << status << "\", \"vc\": \"" << VcHash(job.spec.vc)
        << "\", \"jobid\": \"" << JobIdOf(job) << "\", \"user\": \""
        << UserHash(job.spec.user) << "\", \"submitted_time\": \""
        << Timestamp(job.spec.submit_time) << "\", \"attempts\": [";
    bool first_attempt = true;
    for (const auto& attempt : job.attempts) {
      if (attempt.prerun) {
        continue;
      }
      if (!first_attempt) {
        out << ", ";
      }
      first_attempt = false;
      out << "{\"start_time\": \"" << Timestamp(attempt.start)
          << "\", \"end_time\": \"" << Timestamp(attempt.end) << "\", \"detail\": [";
      bool first_shard = true;
      for (const auto& shard : attempt.placement.shards) {
        if (!first_shard) {
          out << ", ";
        }
        first_shard = false;
        out << "{\"ip\": \"" << MachineIp(shard.server) << "\", \"gpus\": [";
        for (int g = 0; g < shard.gpus; ++g) {
          if (g > 0) {
            out << ", ";
          }
          out << "\"gpu" << g << "\"";
        }
        out << "]}";
      }
      out << "]}";
    }
    out << "]}";
  }
  out << "\n]\n";
}

void PhillyTracesExporter::WriteMachineList(std::ostream& out) const {
  CsvWriter csv(out);
  csv.Row("machineId", "number of GPUs");
  int server = 0;
  for (const auto& sku : cluster_.skus) {
    for (int i = 0; i < sku.racks * sku.servers_per_rack; ++i) {
      csv.Row("m" + std::to_string(server++), sku.gpus_per_server);
    }
  }
}

std::vector<PhillyTracesExporter::MachineSeries> PhillyTracesExporter::BuildSeries(
    const std::vector<JobRecord>& jobs, size_t* num_buckets) const {
  SimTime horizon = 0;
  for (const auto& job : jobs) {
    horizon = std::max(horizon, job.finish_time);
    for (const auto& attempt : job.attempts) {
      horizon = std::max(horizon, attempt.end);
    }
  }
  const SimDuration period = kUtilSamplePeriod;
  *num_buckets = static_cast<size_t>(horizon / period) + 1;

  std::vector<MachineSeries> series(static_cast<size_t>(num_servers_));
  for (auto& machine : series) {
    machine.busy_gpu_seconds.assign(*num_buckets, 0.0);
    machine.util_gpu_seconds.assign(*num_buckets, 0.0);
  }
  for (const auto& job : jobs) {
    ForEachSegmentInterval(job, [&](const AttemptRecord& attempt,
                                    const UtilSegment& segment, SimTime start,
                                    SimDuration length) {
      for (const auto& shard : attempt.placement.shards) {
        if (shard.server < 0 || shard.server >= num_servers_) {
          continue;
        }
        auto& machine = series[static_cast<size_t>(shard.server)];
        // Spread the interval across the sample buckets it covers.
        SimTime t = start;
        SimDuration remaining = length;
        while (remaining > 0) {
          const auto bucket = static_cast<size_t>(t / period);
          const SimDuration bucket_end = static_cast<SimDuration>(bucket + 1) * period;
          const SimDuration take = std::min<SimDuration>(remaining, bucket_end - t);
          machine.busy_gpu_seconds[bucket] += static_cast<double>(take) * shard.gpus;
          machine.util_gpu_seconds[bucket] +=
              static_cast<double>(take) * shard.gpus * segment.expected_util;
          t += take;
          remaining -= take;
        }
      }
    });
  }
  return series;
}

void PhillyTracesExporter::WriteUtil(const std::vector<JobRecord>& jobs, std::ostream& gpu_out,
                                     std::ostream& cpu_out, std::ostream& mem_out) const {
  size_t num_buckets = 0;
  const auto series = BuildSeries(jobs, &num_buckets);
  CsvWriter gpu(gpu_out);
  CsvWriter cpu(cpu_out);
  CsvWriter mem(mem_out);
  gpu.Row("time", "machineId", "gpu_util");
  cpu.Row("time", "machineId", "cpu_util");
  mem.Row("time", "machineId", "mem_total_gb", "mem_free_gb");
  const SimDuration period = kUtilSamplePeriod;
  Cluster cluster(cluster_);
  const double total = kMemoryGbPerServer;
  for (size_t bucket = 0; bucket < num_buckets; ++bucket) {
    const std::string when = Timestamp(static_cast<SimTime>(bucket) *
                                       static_cast<SimTime>(period));
    for (int server = 0; server < num_servers_; ++server) {
      const auto& machine = series[static_cast<size_t>(server)];
      if (machine.busy_gpu_seconds[bucket] <= 0.0) {
        continue;  // the public trace omits idle machines' rows at times too
      }
      const std::string id = "m" + std::to_string(server);
      gpu.Row(when, id,
              100.0 * machine.util_gpu_seconds[bucket] / machine.busy_gpu_seconds[bucket]);
      const double gpu_share =
          machine.busy_gpu_seconds[bucket] /
          (static_cast<double>(period) * cluster.ServerCapacity(server));
      // Host CPU activity tracks the allocated share times per-job CPU
      // activity; approximate with a fleet-typical 30% of the allocated share.
      cpu.Row(when, id, 100.0 * 0.30 * gpu_share);
      // Memory runs hot (Fig 7): ~80% of the proportional allocation.
      const double used = total * gpu_share * 0.80;
      mem.Row(when, id, total, total - used);
    }
  }
}

bool PhillyTracesExporter::WriteDirectory(const std::vector<JobRecord>& jobs,
                                          const std::string& directory) const {
  std::ofstream files[kFileNames.size()];
  for (size_t i = 0; i < kFileNames.size(); ++i) {
    files[i].open(directory + "/" + kFileNames[i]);
    if (!files[i]) {
      return false;
    }
  }
  WriteJobLog(jobs, files[0]);
  WriteMachineList(files[1]);
  WriteUtil(jobs, files[2], files[3], files[4]);
  bool ok = true;
  for (std::ofstream& file : files) {
    file.flush();
    ok = file.good() && ok;
  }
  return ok;
}

bool PhillyTracesImporter::ParseTimestamp(std::string_view text, SimTime* out) const {
  std::tm tm_utc{};
  int year = 0;
  int month = 0;
  int day = 0;
  int hour = 0;
  int minute = 0;
  int second = 0;
  const std::string buf(text);
  if (std::sscanf(buf.c_str(), "%d-%d-%d %d:%d:%d", &year, &month, &day, &hour,
                  &minute, &second) != 6) {
    return false;
  }
  tm_utc.tm_year = year - 1900;
  tm_utc.tm_mon = month - 1;
  tm_utc.tm_mday = day;
  tm_utc.tm_hour = hour;
  tm_utc.tm_min = minute;
  tm_utc.tm_sec = second;
  const std::time_t wall = timegm(&tm_utc);
  if (wall == static_cast<std::time_t>(-1)) {
    return false;
  }
  *out = static_cast<SimTime>(wall) - kEpochOffset;
  return true;
}

std::vector<JobRecord> PhillyTracesImporter::ImportJobLog(std::string_view json_text,
                                                          std::string* error) {
  std::vector<JobRecord> jobs;
  std::string parse_error;
  const JsonValue root = JsonValue::Parse(json_text, &parse_error);
  tolerated_ = {};
  if (parse_error.empty() && root.type() != JsonValue::Type::kArray) {
    parse_error = "the root is not an array of jobs";
  }
  for (size_t i = 0; parse_error.empty() && i < root.AsArray().size(); ++i) {
    if (root.AsArray()[i].type() != JsonValue::Type::kObject) {
      parse_error = "entry " + std::to_string(i) + " is not a job object";
    }
  }
  if (!parse_error.empty()) {
    if (error != nullptr) {
      *error = parse_error;
    }
    return jobs;
  }
  const auto intern = [](auto& table, const std::string& key) {
    const auto it = table.find(key);
    if (it != table.end()) {
      return it->second;
    }
    const auto id = static_cast<typename std::decay_t<decltype(table)>::mapped_type>(
        table.size());
    table.emplace(key, id);
    return id;
  };

  JobId next_id = 1;
  for (const JsonValue& entry : root.AsArray()) {
    JobRecord job;
    job.spec.id = next_id++;
    SimTime submitted = 0;
    if (!ParseTimestamp(entry["submitted_time"].AsString(), &submitted)) {
      ++tolerated_.jobs_without_submit_time;  // unusable without one
      continue;
    }
    job.spec.submit_time = submitted;
    job.spec.vc = intern(vc_ids_, entry["vc"].AsString());
    job.spec.user = intern(user_ids_, entry["user"].AsString());

    const std::string& status = entry["status"].AsString();
    if (status == "Pass") {
      job.status = JobStatus::kPassed;
    } else if (status == "Killed") {
      job.status = JobStatus::kKilled;
    } else {
      job.status = JobStatus::kUnsuccessful;
      tolerated_.other_statuses += status == "Failed" ? 0 : 1;
    }

    const auto& attempts = entry["attempts"].AsArray();
    for (const JsonValue& attempt_json : attempts) {
      SimTime start = 0;
      SimTime end = 0;
      if (!ParseTimestamp(attempt_json["start_time"].AsString(), &start) ||
          !ParseTimestamp(attempt_json["end_time"].AsString(), &end) || end < start) {
        ++tolerated_.attempts_without_times;  // unstarted or truncated
        continue;
      }
      AttemptRecord attempt;
      attempt.index = static_cast<int>(job.attempts.size());
      attempt.start = start;
      attempt.end = end;
      for (const JsonValue& detail : attempt_json["detail"].AsArray()) {
        const int gpus = static_cast<int>(detail["gpus"].size());
        if (gpus <= 0) {
          ++tolerated_.placements_without_gpus;
          continue;
        }
        attempt.placement.shards.push_back(
            {intern(machine_ids_, detail["ip"].AsString()), gpus});
      }
      job.attempts.push_back(std::move(attempt));
    }
    if (!job.attempts.empty()) {
      // Demand: the gang size of the first placed attempt.
      job.spec.num_gpus = std::max(1, job.attempts.front().placement.NumGpus());
      // Non-final attempts failed (that is why there was another attempt);
      // the final one failed iff the job ended unsuccessful.
      for (size_t i = 0; i + 1 < job.attempts.size(); ++i) {
        job.attempts[i].failed = true;
      }
      if (job.status == JobStatus::kUnsuccessful) {
        job.attempts.back().failed = true;
      }
      WaitRecord wait;
      wait.ready_time = job.spec.submit_time;
      wait.wait = std::max<SimDuration>(
          0, job.attempts.front().start - job.spec.submit_time);
      job.waits.push_back(wait);
      job.finish_time = job.attempts.back().end;
    } else {
      job.spec.num_gpus = 1;
      job.finish_time = job.spec.submit_time;
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace philly
