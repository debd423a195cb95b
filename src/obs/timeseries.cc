#include "src/obs/timeseries.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>

#include "src/common/distributions.h"
#include "src/common/json.h"
#include "src/obs/rollup.h"

namespace philly {
namespace {

// Same deterministic noise primitives as GangliaSampler (sampler.cc): the
// telemetry join must be reproducible from (seed, job, attempt) alone.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

double HashedNormal(uint64_t seed, uint64_t index) {
  const uint64_t h = Mix64(seed ^ (index * 0x9E3779B97F4A7C15ull));
  const double u = (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
  return Probit(u);
}

// Shortest round-trip double encoding, mirroring event_log.cc.
void AppendDouble(std::string& out, double v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
}

void AppendField(std::string& out, std::string_view key, int64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void AppendField(std::string& out, std::string_view key, double value) {
  out += ",\"";
  out += key;
  out += "\":";
  AppendDouble(out, value);
}

template <typename IntSequence>
void AppendIntArray(std::string& out, std::string_view key,
                    const IntSequence& values) {
  out += ",\"";
  out += key;
  out += "\":[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(values[i]);
  }
  out += ']';
}

std::vector<int> ReadIntArray(const JsonValue& v, std::string_view key) {
  std::vector<int> out;
  const auto& items = v[key].AsArray();
  out.reserve(items.size());
  for (const JsonValue& item : items) {
    out.push_back(static_cast<int>(item.AsNumber()));
  }
  return out;
}

std::vector<int64_t> ReadInt64Array(const JsonValue& v, std::string_view key) {
  std::vector<int64_t> out;
  const auto& items = v[key].AsArray();
  out.reserve(items.size());
  for (const JsonValue& item : items) {
    out.push_back(static_cast<int64_t>(item.AsNumber()));
  }
  return out;
}

}  // namespace

std::string ToNdjsonLine(const TelemetrySample& s) {
  std::string out;
  out.reserve(256);
  out += "{\"t\":";
  out += std::to_string(s.time);
  if (s.used_gpus != 0) {
    AppendField(out, "used", static_cast<int64_t>(s.used_gpus));
  }
  if (s.free_gpus != 0) {
    AppendField(out, "free", static_cast<int64_t>(s.free_gpus));
  }
  if (s.occupancy != 0.0) {
    AppendField(out, "occ", s.occupancy);
  }
  if (s.running_jobs != 0) {
    AppendField(out, "running", static_cast<int64_t>(s.running_jobs));
  }
  if (s.queued_jobs != 0) {
    AppendField(out, "queued", static_cast<int64_t>(s.queued_jobs));
  }
  if (s.busy_servers != 0) {
    AppendField(out, "busy_srv", static_cast<int64_t>(s.busy_servers));
  }
  if (s.empty_servers != 0) {
    AppendField(out, "empty_srv", static_cast<int64_t>(s.empty_servers));
  }
  if (s.racks_with_empty != 0) {
    AppendField(out, "racks_empty", static_cast<int64_t>(s.racks_with_empty));
  }
  if (s.offline_servers != 0) {
    AppendField(out, "offline", static_cast<int64_t>(s.offline_servers));
  }
  if (s.locality_relaxations != 0) {
    AppendField(out, "relax", s.locality_relaxations);
  }
  if (s.backoffs != 0) {
    AppendField(out, "backoffs", s.backoffs);
  }
  if (s.preemptions != 0) {
    AppendField(out, "preempt", s.preemptions);
  }
  if (s.migrations != 0) {
    AppendField(out, "migrate", s.migrations);
  }
  if (s.fault_kills != 0) {
    AppendField(out, "fault_kill", s.fault_kills);
  }
  if (s.lost_gpu_seconds != 0.0) {
    AppendField(out, "lost_gpu_s", s.lost_gpu_seconds);
  }
  if (s.ckpt_writes != 0) {
    AppendField(out, "ckpt_writes", s.ckpt_writes);
  }
  if (s.ckpt_overhead_gpu_seconds != 0.0) {
    AppendField(out, "ckpt_overhead_gpu_s", s.ckpt_overhead_gpu_seconds);
  }
  if (s.ckpt_stall_gpu_seconds != 0.0) {
    AppendField(out, "ckpt_stall_gpu_s", s.ckpt_stall_gpu_seconds);
  }
  if (s.util_expected_pct != 0.0) {
    AppendField(out, "util_exp", s.util_expected_pct);
  }
  if (s.util_observed_pct != 0.0) {
    AppendField(out, "util_obs", s.util_observed_pct);
  }
  AppendIntArray(out, "rack_free", s.rack_free_gpus);
  AppendIntArray(out, "vc_queued", s.vc_queued);
  AppendIntArray(out, "vc_running", s.vc_running);
  AppendIntArray(out, "vc_gpus", s.vc_used_gpus);
  AppendIntArray(out, "util_deciles", s.util_deciles);
  // Present only when the checkpoint I/O model is enabled (byte-identity for
  // disabled-model streams).
  if (!s.ckpt_rack_writers.empty()) {
    AppendIntArray(out, "ckpt_writers", s.ckpt_rack_writers);
  }
  // Present only when the span tracer is attached (same byte-identity rule).
  if (!s.vc_blame_s.empty()) {
    AppendIntArray(out, "vc_blame_s", s.vc_blame_s);
  }
  out += '}';
  return out;
}

bool TelemetrySampleFromNdjsonLine(std::string_view line, TelemetrySample* sample,
                                   std::string* error) {
  std::string parse_error;
  const JsonValue v = JsonValue::Parse(line, &parse_error);
  if (!parse_error.empty()) {
    if (error != nullptr) {
      *error = parse_error;
    }
    return false;
  }
  if (v.type() != JsonValue::Type::kObject || v["t"].is_null()) {
    if (error != nullptr) {
      *error = "telemetry line is not a sample object";
    }
    return false;
  }
  const auto as_i64 = [&v](std::string_view key, int64_t fallback) {
    const JsonValue& field = v[key];
    return field.is_null() ? fallback : static_cast<int64_t>(field.AsNumber());
  };
  TelemetrySample s;
  s.time = as_i64("t", 0);
  s.used_gpus = static_cast<int>(as_i64("used", 0));
  s.free_gpus = static_cast<int>(as_i64("free", 0));
  s.occupancy = v["occ"].AsNumber(0.0);
  s.running_jobs = static_cast<int>(as_i64("running", 0));
  s.queued_jobs = static_cast<int>(as_i64("queued", 0));
  s.busy_servers = static_cast<int>(as_i64("busy_srv", 0));
  s.empty_servers = static_cast<int>(as_i64("empty_srv", 0));
  s.racks_with_empty = static_cast<int>(as_i64("racks_empty", 0));
  s.offline_servers = static_cast<int>(as_i64("offline", 0));
  s.locality_relaxations = as_i64("relax", 0);
  s.backoffs = as_i64("backoffs", 0);
  s.preemptions = as_i64("preempt", 0);
  s.migrations = as_i64("migrate", 0);
  s.fault_kills = as_i64("fault_kill", 0);
  s.lost_gpu_seconds = v["lost_gpu_s"].AsNumber(0.0);
  s.ckpt_writes = as_i64("ckpt_writes", 0);
  s.ckpt_overhead_gpu_seconds = v["ckpt_overhead_gpu_s"].AsNumber(0.0);
  s.ckpt_stall_gpu_seconds = v["ckpt_stall_gpu_s"].AsNumber(0.0);
  s.util_expected_pct = v["util_exp"].AsNumber(0.0);
  s.util_observed_pct = v["util_obs"].AsNumber(0.0);
  s.rack_free_gpus = ReadIntArray(v, "rack_free");
  s.vc_queued = ReadIntArray(v, "vc_queued");
  s.vc_running = ReadIntArray(v, "vc_running");
  s.vc_used_gpus = ReadIntArray(v, "vc_gpus");
  s.ckpt_rack_writers = ReadIntArray(v, "ckpt_writers");
  s.vc_blame_s = ReadInt64Array(v, "vc_blame_s");
  const std::vector<int> deciles = ReadIntArray(v, "util_deciles");
  for (size_t i = 0; i < s.util_deciles.size() && i < deciles.size(); ++i) {
    s.util_deciles[i] = deciles[i];
  }
  *sample = std::move(s);
  return true;
}

ClusterTimeSeries::ClusterTimeSeries(SimDuration period, SamplerConfig sampler)
    : period_(period), sampler_(sampler) {
  assert(period_ > 0);
}

void ClusterTimeSeries::Reserve(size_t samples) { samples_.Reserve(samples); }

void ClusterTimeSeries::Clear() {
  samples_.Clear();
  written_digest_ = {};
  util_streams_.clear();
  last_index_ = 0;
  run_seed_ = 0;
}

void ClusterTimeSeries::BeginRun(uint64_t seed) {
  samples_.Clear();
  written_digest_ = {};
  util_streams_.clear();
  last_index_ = 0;
  run_seed_ = seed;
}

SimTime ClusterTimeSeries::NextSampleTime() const {
  return (last_index_ + 1) * period_;
}

TelemetrySample& ClusterTimeSeries::AppendSample(SimTime t) {
  assert(t == NextSampleTime());
  ++last_index_;
  TelemetrySample& sample = samples_.Append(
      [this](const TelemetrySample& done) { FoldSample(done, &written_digest_); });
  sample.time = t;
  return sample;
}

TelemetryDigest ClusterTimeSeries::SampleDigest() const {
  TelemetryDigest digest = written_digest_;
  for (const TelemetrySample& sample : samples_.held()) {
    FoldSample(sample, &digest);
  }
  return digest;
}

double ClusterTimeSeries::ObserveUtilPct(JobId job, int attempt,
                                         double expected_util) {
  // Flat per-job slots: job ids are dense in practice, and this runs once per
  // running job per sampled minute — a hash lookup here is measurable.
  if (static_cast<size_t>(job) >= util_streams_.size()) {
    util_streams_.resize(static_cast<size_t>(job) + 1);
  }
  UtilStream& stream = util_streams_[static_cast<size_t>(job)];
  if (stream.attempt != attempt) {
    // New attempt: reseed, stationary start (same construction as
    // GangliaSampler::SampleSegment).
    stream.attempt = attempt;
    stream.seed = Mix64(run_seed_ ^ (static_cast<uint64_t>(job) << 18) ^
                        (static_cast<uint64_t>(attempt) + 0x9E3779B97F4A7C15ull));
    stream.x = sampler_.jitter_sigma * HashedNormal(stream.seed, 0);
    stream.next_index = 1;
  }
  const double value = std::clamp(expected_util + stream.x, 0.0, 1.0) * 100.0;
  const double rho = sampler_.ar1_rho;
  const double innovation_sigma =
      sampler_.jitter_sigma * std::sqrt(1.0 - rho * rho);
  stream.x = rho * stream.x +
             innovation_sigma *
                 HashedNormal(stream.seed,
                              static_cast<uint64_t>(stream.next_index++));
  return value;
}

void ClusterTimeSeries::WriteNdjson(std::ostream& out,
                                    const TelemetryDigest* digest) const {
  samples_.WriteNdjson(out);
  if (digest != nullptr) {
    out << ToNdjsonLine(*digest) << '\n';
  }
}

std::vector<TelemetrySample> ClusterTimeSeries::ReadNdjson(
    std::istream& in, TelemetryDigest* digest, bool* found_digest,
    std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  if (found_digest != nullptr) {
    *found_digest = false;
  }
  std::vector<TelemetrySample> samples;
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    std::string line_error;
    if (IsTelemetryDigestLine(line)) {
      TelemetryDigest parsed;
      if (!TelemetryDigestFromNdjsonLine(line, &parsed, &line_error)) {
        if (error != nullptr) {
          *error = "line " + std::to_string(line_number) + ": " + line_error;
        }
        break;
      }
      if (digest != nullptr) {
        *digest = parsed;
      }
      if (found_digest != nullptr) {
        *found_digest = true;
      }
      continue;
    }
    TelemetrySample sample;
    if (!TelemetrySampleFromNdjsonLine(line, &sample, &line_error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": " + line_error;
      }
      break;
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace philly
