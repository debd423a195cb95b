#include "src/obs/timeseries.h"

#include <cassert>
#include <istream>
#include <ostream>

#include "src/common/hash.h"
#include "src/obs/ndjson_codec.h"
#include "src/obs/rollup.h"

namespace philly {
namespace {

// The sample line, in key order: scalars when non-zero, then the arrays.
constexpr auto kFields = std::tuple{
    Field{"t", &TelemetrySample::time},
    Field{"used", &TelemetrySample::used_gpus, When::kNonZero},
    Field{"free", &TelemetrySample::free_gpus, When::kNonZero},
    Field{"occ", &TelemetrySample::occupancy, When::kNonZero},
    Field{"running", &TelemetrySample::running_jobs, When::kNonZero},
    Field{"queued", &TelemetrySample::queued_jobs, When::kNonZero},
    Field{"busy_srv", &TelemetrySample::busy_servers, When::kNonZero},
    Field{"empty_srv", &TelemetrySample::empty_servers, When::kNonZero},
    Field{"racks_empty", &TelemetrySample::racks_with_empty, When::kNonZero},
    Field{"offline", &TelemetrySample::offline_servers, When::kNonZero},
    Field{"relax", &TelemetrySample::locality_relaxations, When::kNonZero},
    Field{"backoffs", &TelemetrySample::backoffs, When::kNonZero},
    Field{"preempt", &TelemetrySample::preemptions, When::kNonZero},
    Field{"migrate", &TelemetrySample::migrations, When::kNonZero},
    Field{"fault_kill", &TelemetrySample::fault_kills, When::kNonZero},
    Field{"lost_gpu_s", &TelemetrySample::lost_gpu_seconds, When::kNonZero},
    Field{"ckpt_writes", &TelemetrySample::ckpt_writes, When::kNonZero},
    Field{"ckpt_overhead_gpu_s", &TelemetrySample::ckpt_overhead_gpu_seconds, When::kNonZero},
    Field{"ckpt_stall_gpu_s", &TelemetrySample::ckpt_stall_gpu_seconds, When::kNonZero},
    Field{"util_exp", &TelemetrySample::util_expected_pct, When::kNonZero},
    Field{"util_obs", &TelemetrySample::util_observed_pct, When::kNonZero},
    Field{"rack_free", &TelemetrySample::rack_free_gpus},
    Field{"vc_queued", &TelemetrySample::vc_queued},
    Field{"vc_running", &TelemetrySample::vc_running},
    Field{"vc_gpus", &TelemetrySample::vc_used_gpus},
    Field{"util_deciles", &TelemetrySample::util_deciles},
    // Present only with the checkpoint I/O model on, and with the span
    // tracer attached: streams without them keep their bytes.
    Field{"ckpt_writers", &TelemetrySample::ckpt_rack_writers, When::kNonEmpty},
    Field{"vc_blame_s", &TelemetrySample::vc_blame_s, When::kNonEmpty},
};

}  // namespace

void AppendNdjsonLine(std::string& out, const TelemetrySample& sample) {
  AppendNdjson<kFields>(out, sample);
}

std::string ToNdjsonLine(const TelemetrySample& sample) {
  return EncodeNdjson<kFields>(sample);
}

bool TelemetrySampleFromNdjsonLine(std::string_view line, TelemetrySample* sample,
                                   std::string* error) {
  return DecodeNdjson<kFields>(line, sample, error);
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
    stream.attempt = attempt;
    stream.jitter = Ar1Jitter(
        sampler_.jitter_sigma,
        Mix64(run_seed_ ^ (static_cast<uint64_t>(job) << 18) ^
              (static_cast<uint64_t>(attempt) + 0x9E3779B97F4A7C15ull)));
  }
  return stream.jitter.NextPct(expected_util);
}

void ClusterTimeSeries::WriteNdjson(std::ostream& out,
                                    const TelemetryDigest* digest) const {
  samples_.WriteNdjson(out);
  if (digest != nullptr) {
    out << ToNdjsonLine(*digest) << '\n';
  }
}

std::vector<TelemetrySample> ClusterTimeSeries::ReadNdjson(std::istream& in,
                                                           TelemetryDigest* digest,
                                                           bool* found_digest, std::string* error) {
  std::vector<TelemetrySample> samples;
  TelemetryDigest ignored;
  bool found = false;
  ReadNdjsonLines(in, error, [&](std::string_view line, std::string* why) {
    if (!IsTelemetryDigestLine(line)) {
      if (DecodeNdjson<kFields>(line, &samples.emplace_back(), why)) {
        return true;
      }
      samples.pop_back();
      return false;
    }
    // The digest covers every sample line, so it comes once, last.
    if (in.peek() != std::istream::traits_type::eof()) {
      *why = "byte 0, key \"digest\": the digest line is not the last line";
      return false;
    }
    found = TelemetryDigestFromNdjsonLine(line, digest != nullptr ? digest : &ignored, why);
    return found;
  });
  if (found_digest != nullptr) {
    *found_digest = found;
  }
  return samples;
}

}  // namespace philly
