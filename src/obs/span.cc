#include "src/obs/span.h"

#include <cassert>
#include <ostream>

#include "src/common/strings.h"
#include "src/obs/ndjson_codec.h"

namespace philly {
namespace {

constexpr std::string_view kBlameNames[kNumBlameCodes] = {
    "fair_share_cap", "fragmentation", "locality_wait", "backoff",
    "fault_recovery", "ckpt_stall",    "router_queue",
};

constexpr std::string_view kSpanKindNames[kNumSpanKinds] = {
    "queued",
    "blame",
    "running",
    "ckpt",
};

bool HasCode(const SpanRecord& s) {
  return s.kind == SpanKind::kBlame || s.kind == SpanKind::kCkpt;
}

constexpr auto kFields = std::tuple{
    Field{"t", &SpanRecord::start},
    Field{.key = "sp", .member = &SpanRecord::kind, .tags = kSpanKindNames},
    Field{"dur", &SpanRecord::dur},
    Field{.key = "code", .member = &SpanRecord::code, .only_if = HasCode, .tags = kBlameNames},
    Field{"job", &SpanRecord::job, When::kNotNoJob},
    Field{"vc", &SpanRecord::vc, When::kNonNegative},
    Field{"user", &SpanRecord::user, When::kNonNegative},
    Field{"gpus", &SpanRecord::gpus, When::kPositive},
    Field{"wait", &SpanRecord::wait_index, When::kNonNegative},
    Field{"attempt", &SpanRecord::attempt, When::kNonNegative},
    Field{"detail", &SpanRecord::detail, When::kNonEmpty},
};

}  // namespace

std::string_view ToString(BlameCode code) {
  return kBlameNames[static_cast<size_t>(code)];
}

std::string_view ToString(SpanKind kind) {
  return kSpanKindNames[static_cast<size_t>(kind)];
}

void AppendNdjsonLine(std::string& out, const SpanRecord& span) {
  AppendNdjson<kFields>(out, span);
}

std::string ToNdjsonLine(const SpanRecord& span) {
  return EncodeNdjson<kFields>(span);
}

bool SpanRecordFromNdjsonLine(std::string_view line, SpanRecord* span, std::string* error) {
  return DecodeNdjson<kFields>(line, span, error);
}

std::vector<SpanRecord> SpanLog::ReadNdjson(std::istream& in, std::string* error) {
  return ReadNdjsonRecords<SpanRecord, kFields>(in, error);
}

void WriteSpanChromeTrace(std::ostream& out, const std::vector<SpanRecord>& spans) {
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& s : spans) {
    out << (first ? "\n" : ",\n");
    out << "  {\"name\": \"" << ToString(s.kind);
    if (HasCode(s)) {
      out << ':' << ToString(s.code);
    }
    if (!s.detail.empty()) {
      out << ':' << JsonEscape(s.detail);
    }
    // Simulated seconds -> trace microseconds; pid groups by VC, tid by job,
    // so Perfetto's track view shows one lifecycle lane per job.
    out << "\", \"ph\": \"X\", \"ts\": " << s.start * 1000000
        << ", \"dur\": " << s.dur * 1000000
        << ", \"pid\": " << (s.vc >= 0 ? s.vc : 0) << ", \"tid\": "
        << (s.job != kNoJob ? s.job : 0) << "}";
    first = false;
  }
  out << (first ? "]" : "\n]") << ", \"displayTimeUnit\": \"ms\"}\n";
}

void SpanTracer::Reserve(size_t num_jobs) {
  tracks_.reserve(num_jobs);
  log_.Reserve(num_jobs * 4);
}

void SpanTracer::Clear() {
  tracks_.clear();
  vc_blame_.clear();
  log_.Clear();
}

SpanTracer::Track& SpanTracer::TrackOf(JobId job) {
  assert(job >= 0);
  if (static_cast<size_t>(job) >= tracks_.size()) {
    tracks_.resize(static_cast<size_t>(job) + 1);
  }
  return tracks_[static_cast<size_t>(job)];
}

void SpanTracer::MarkRouterQueued(JobId job) {
  TrackOf(job).router_queued = true;
}

void SpanTracer::Charge(Track& track, SimTime upto) {
  const SimDuration dt = upto - track.mark;
  if (dt <= 0) {
    return;
  }
  if (!track.segs.empty() && track.segs.back().code == track.pending) {
    // Intervals are contiguous by construction, so same-code neighbours merge.
    track.segs.back().end = upto;
  } else {
    track.segs.push_back({track.mark, upto, track.pending});
  }
  if (track.vc >= 0) {
    if (static_cast<size_t>(track.vc) >= vc_blame_.size()) {
      vc_blame_.resize(static_cast<size_t>(track.vc) + 1, {});
    }
    vc_blame_[static_cast<size_t>(track.vc)]
             [static_cast<size_t>(track.pending)] += dt;
  }
  track.mark = upto;
}

SpanRecord& SpanTracer::Emit(SpanKind kind, const Track& track, JobId job,
                             SimTime start, SimDuration dur) {
  SpanRecord& span = log_.Append();
  span.kind = kind;
  span.start = start;
  span.dur = dur;
  span.job = job;
  span.vc = track.vc;
  span.user = track.user;
  span.gpus = track.gpus;
  return span;
}

void SpanTracer::OnEnqueue(JobId job, int32_t vc, int32_t user, int gpus,
                           SimTime now, bool fault_recovery) {
  Track& track = TrackOf(job);
  track.vc = vc;
  track.user = user;
  track.gpus = gpus;
  track.queued = true;
  track.queued_at = now;
  track.mark = now;
  track.segs.clear();
  if (fault_recovery) {
    track.pending = BlameCode::kFaultRecovery;
  } else if (track.router_queued && !track.ever_enqueued) {
    track.pending = BlameCode::kRouterQueue;
  } else {
    track.pending = BlameCode::kBackoff;
  }
  track.ever_enqueued = true;
}

void SpanTracer::OnEvalFail(JobId job, SimTime now, BlameCode code) {
  Track& track = TrackOf(job);
  assert(track.queued);
  Charge(track, now);
  track.pending = code;
}

void SpanTracer::OnStart(JobId job, int32_t vc, int32_t user, int gpus,
                         SimTime now, int wait_index, int attempt) {
  Track& track = TrackOf(job);
  track.vc = vc;
  track.user = user;
  track.gpus = gpus;
  if (track.queued) {
    Charge(track, now);
    if (now > track.queued_at) {
      Emit(SpanKind::kQueued, track, job, track.queued_at, now - track.queued_at)
          .wait_index = wait_index;
      for (const Seg& seg : track.segs) {
        SpanRecord& span =
            Emit(SpanKind::kBlame, track, job, seg.start, seg.end - seg.start);
        span.code = seg.code;
        span.wait_index = wait_index;
      }
    }
    track.queued = false;
    track.segs.clear();
  }
  track.running = true;
  track.run_start = now;
  track.run_attempt = attempt;
}

void SpanTracer::OnRunStart(JobId job, int32_t vc, int32_t user, int gpus,
                            SimTime now, int attempt) {
  Track& track = TrackOf(job);
  track.vc = vc;
  track.user = user;
  track.gpus = gpus;
  track.running = true;
  track.run_start = now;
  track.run_attempt = attempt;
}

void SpanTracer::OnRunEnd(JobId job, SimTime now, std::string_view reason) {
  Track& track = TrackOf(job);
  if (!track.running) {
    return;
  }
  track.running = false;
  if (now <= track.run_start) {
    return;
  }
  SpanRecord& span =
      Emit(SpanKind::kRunning, track, job, track.run_start, now - track.run_start);
  span.attempt = track.run_attempt;
  span.detail = reason;
}

void SpanTracer::OnCkptStall(JobId job, SimTime now, SimDuration stall,
                             std::string_view detail) {
  if (stall <= 0) {
    return;
  }
  Track& track = TrackOf(job);
  SpanRecord& span = Emit(SpanKind::kCkpt, track, job, now - stall, stall);
  span.code = BlameCode::kCkptStall;
  span.attempt = track.run_attempt;
  span.detail = detail;
  if (track.vc >= 0) {
    if (static_cast<size_t>(track.vc) >= vc_blame_.size()) {
      vc_blame_.resize(static_cast<size_t>(track.vc) + 1, {});
    }
    vc_blame_[static_cast<size_t>(track.vc)]
             [static_cast<size_t>(BlameCode::kCkptStall)] += stall;
  }
}

void SpanTracer::FillVcBlame(std::vector<int64_t>& out) const {
  if (vc_blame_.empty()) {
    return;
  }
  out.reserve(vc_blame_.size() * kNumBlameCodes);
  for (const auto& per_vc : vc_blame_) {
    for (const int64_t seconds : per_vc) {
      out.push_back(seconds);
    }
  }
}

}  // namespace philly
