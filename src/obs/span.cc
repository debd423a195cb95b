#include "src/obs/span.h"

#include <cassert>
#include <istream>
#include <ostream>

#include "src/common/json.h"
#include "src/common/strings.h"

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

void AppendField(std::string& out, std::string_view key, int64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void AppendField(std::string& out, std::string_view key, std::string_view value) {
  out += ",\"";
  out += key;
  out += "\":\"";
  out += JsonEscape(value);
  out += '"';
}

}  // namespace

std::string_view ToString(BlameCode code) {
  return kBlameNames[static_cast<size_t>(code)];
}

bool BlameCodeFromString(std::string_view text, BlameCode* code) {
  for (int i = 0; i < kNumBlameCodes; ++i) {
    if (text == kBlameNames[static_cast<size_t>(i)]) {
      *code = static_cast<BlameCode>(i);
      return true;
    }
  }
  return false;
}

std::string_view ToString(SpanKind kind) {
  return kSpanKindNames[static_cast<size_t>(kind)];
}

bool SpanKindFromString(std::string_view text, SpanKind* kind) {
  for (int i = 0; i < kNumSpanKinds; ++i) {
    if (text == kSpanKindNames[static_cast<size_t>(i)]) {
      *kind = static_cast<SpanKind>(i);
      return true;
    }
  }
  return false;
}

std::string ToNdjsonLine(const SpanRecord& s) {
  std::string out;
  out.reserve(96);
  out += "{\"t\":";
  out += std::to_string(s.start);
  out += ",\"sp\":\"";
  out += ToString(s.kind);
  out += '"';
  AppendField(out, "dur", s.dur);
  if (s.kind == SpanKind::kBlame || s.kind == SpanKind::kCkpt) {
    AppendField(out, "code", ToString(s.code));
  }
  if (s.job != kNoJob) {
    AppendField(out, "job", s.job);
  }
  if (s.vc >= 0) {
    AppendField(out, "vc", static_cast<int64_t>(s.vc));
  }
  if (s.user >= 0) {
    AppendField(out, "user", static_cast<int64_t>(s.user));
  }
  if (s.gpus > 0) {
    AppendField(out, "gpus", static_cast<int64_t>(s.gpus));
  }
  if (s.wait_index >= 0) {
    AppendField(out, "wait", static_cast<int64_t>(s.wait_index));
  }
  if (s.attempt >= 0) {
    AppendField(out, "attempt", static_cast<int64_t>(s.attempt));
  }
  if (!s.detail.empty()) {
    AppendField(out, "detail", s.detail);
  }
  out += '}';
  return out;
}

bool SpanRecordFromNdjsonLine(std::string_view line, SpanRecord* span,
                              std::string* error) {
  std::string parse_error;
  const JsonValue v = JsonValue::Parse(line, &parse_error);
  if (!parse_error.empty()) {
    if (error != nullptr) {
      *error = parse_error;
    }
    return false;
  }
  if (v.type() != JsonValue::Type::kObject) {
    if (error != nullptr) {
      *error = "span line is not a JSON object";
    }
    return false;
  }
  // `t`, `sp`, and `dur` are written unconditionally, so a line missing any
  // of them is truncation or hand-editing, not a default-omitted field.
  if (v["t"].is_null() || v["dur"].is_null()) {
    if (error != nullptr) {
      *error = "span line is missing 't' or 'dur'";
    }
    return false;
  }
  SpanRecord s;
  if (!SpanKindFromString(v["sp"].AsString(), &s.kind)) {
    if (error != nullptr) {
      *error = "unknown span kind '" + v["sp"].AsString() + "'";
    }
    return false;
  }
  if (s.kind == SpanKind::kBlame || s.kind == SpanKind::kCkpt) {
    if (!BlameCodeFromString(v["code"].AsString(), &s.code)) {
      if (error != nullptr) {
        *error = "unknown blame code '" + v["code"].AsString() + "'";
      }
      return false;
    }
  }
  const auto as_i64 = [&v](std::string_view key, int64_t fallback) {
    const JsonValue& field = v[key];
    return field.is_null() ? fallback : static_cast<int64_t>(field.AsNumber());
  };
  s.start = as_i64("t", 0);
  s.dur = as_i64("dur", 0);
  s.job = as_i64("job", kNoJob);
  s.vc = static_cast<int32_t>(as_i64("vc", -1));
  s.user = static_cast<int32_t>(as_i64("user", -1));
  s.gpus = static_cast<int>(as_i64("gpus", 0));
  s.wait_index = static_cast<int>(as_i64("wait", -1));
  s.attempt = static_cast<int>(as_i64("attempt", -1));
  s.detail = v["detail"].AsString();
  *span = std::move(s);
  return true;
}

std::vector<SpanRecord> SpanLog::ReadNdjson(std::istream& in, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  std::vector<SpanRecord> spans;
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    SpanRecord span;
    std::string line_error;
    if (!SpanRecordFromNdjsonLine(line, &span, &line_error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": " + line_error;
      }
      break;
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

void WriteSpanChromeTrace(std::ostream& out, const std::vector<SpanRecord>& spans) {
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& s : spans) {
    out << (first ? "\n" : ",\n");
    out << "  {\"name\": \"" << ToString(s.kind);
    if (s.kind == SpanKind::kBlame || s.kind == SpanKind::kCkpt) {
      out << ':' << ToString(s.code);
    }
    if (!s.detail.empty()) {
      // Details are identifier-ish tags we emit ourselves; escape the two
      // characters that could still break the JSON string.
      out << ':';
      for (char c : s.detail) {
        if (c == '"' || c == '\\') {
          out << '\\';
        }
        out << c;
      }
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
