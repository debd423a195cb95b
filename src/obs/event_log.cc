#include "src/obs/event_log.h"

#include <charconv>
#include <istream>
#include <ostream>

#include "src/common/json.h"
#include "src/common/strings.h"

namespace philly {
namespace {

constexpr std::string_view kKindNames[kNumSchedEventKinds] = {
    "submit",  "queued",  "locality_relax", "backoff",    "schedule",
    "preempt", "migrate", "fault_kill",     "requeue",    "complete",
    "ckpt_begin", "ckpt_end", "ckpt_stall", "route",
};

void AppendEscaped(std::string& out, std::string_view s) {
  out += '"';
  out += JsonEscape(s);
  out += '"';
}

// Shortest round-trip double encoding keeps the stream byte-stable across
// runs without printing 17 digits for every value.
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

void AppendField(std::string& out, std::string_view key, std::string_view value) {
  out += ",\"";
  out += key;
  out += "\":";
  AppendEscaped(out, value);
}

void AppendFlag(std::string& out, std::string_view key, bool value) {
  if (value) {
    AppendField(out, key, static_cast<int64_t>(1));
  }
}

}  // namespace

std::string_view ToString(SchedEventKind kind) {
  return kKindNames[static_cast<size_t>(kind)];
}

bool SchedEventKindFromString(std::string_view text, SchedEventKind* kind) {
  for (int i = 0; i < kNumSchedEventKinds; ++i) {
    if (text == kKindNames[static_cast<size_t>(i)]) {
      *kind = static_cast<SchedEventKind>(i);
      return true;
    }
  }
  return false;
}

SchedEvent& EventLog::Append(SchedEventKind kind, SimTime time, JobId job) {
  SchedEvent& event = events_.Append();
  event.kind = kind;
  event.time = time;
  event.job = job;
  return event;
}

std::string ToNdjsonLine(const SchedEvent& e) {
  std::string out;
  out.reserve(96);
  out += "{\"t\":";
  out += std::to_string(e.time);
  out += ",\"ev\":\"";
  out += ToString(e.kind);
  out += '"';
  if (e.job != kNoJob) {
    AppendField(out, "job", e.job);
  }
  if (e.vc >= 0) {
    AppendField(out, "vc", static_cast<int64_t>(e.vc));
  }
  if (e.user >= 0) {
    AppendField(out, "user", static_cast<int64_t>(e.user));
  }
  if (e.gpus > 0) {
    AppendField(out, "gpus", static_cast<int64_t>(e.gpus));
  }
  if (e.attempt >= 0) {
    AppendField(out, "attempt", static_cast<int64_t>(e.attempt));
  }
  if (e.rack >= 0) {
    AppendField(out, "rack", static_cast<int64_t>(e.rack));
  }
  if (e.cluster >= 0) {
    AppendField(out, "cluster", static_cast<int64_t>(e.cluster));
  }
  if (e.home >= 0) {
    AppendField(out, "home", static_cast<int64_t>(e.home));
  }
  if (e.home_queue >= 0) {
    AppendField(out, "home_queue", e.home_queue);
  }
  if (e.dest_queue >= 0) {
    AppendField(out, "dest_queue", e.dest_queue);
  }
  if (e.dest_free >= 0) {
    AppendField(out, "dest_free", e.dest_free);
  }
  if (e.kind == SchedEventKind::kSchedule) {
    AppendField(out, "ready", e.ready_time);
    AppendField(out, "wait", e.wait);
    AppendField(out, "fair", e.fair_share_time);
    AppendField(out, "frag", e.fragmentation_time);
    AppendField(out, "evals", static_cast<int64_t>(e.sched_attempts));
    AppendFlag(out, "ooo", e.out_of_order);
    AppendFlag(out, "benign", e.benign);
    if (!e.placement.empty()) {
      AppendField(out, "placement", e.placement);
    }
  }
  AppendFlag(out, "failed", e.failed);
  AppendFlag(out, "preempted", e.preempted);
  AppendFlag(out, "mfault", e.machine_fault);
  if (e.status >= 0) {
    AppendField(out, "status", static_cast<int64_t>(e.status));
  }
  AppendFlag(out, "ooo_started", e.started_out_of_order);
  AppendFlag(out, "ooo_benign", e.out_of_order_benign);
  AppendFlag(out, "overtaken", e.overtaken);
  if (e.relax_level > 0) {
    AppendField(out, "relax", static_cast<int64_t>(e.relax_level));
  }
  if (e.delay > 0) {
    AppendField(out, "delay", e.delay);
  }
  if (e.lost_gpu_seconds > 0) {
    AppendField(out, "lost_gpu_s", e.lost_gpu_seconds);
  }
  if (!e.detail.empty()) {
    AppendField(out, "detail", e.detail);
  }
  out += '}';
  return out;
}

bool SchedEventFromNdjsonLine(std::string_view line, SchedEvent* event,
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
      *error = "event line is not a JSON object";
    }
    return false;
  }
  SchedEvent e;
  if (!SchedEventKindFromString(v["ev"].AsString(), &e.kind)) {
    if (error != nullptr) {
      *error = "unknown event kind '" + v["ev"].AsString() + "'";
    }
    return false;
  }
  const auto as_i64 = [&v](std::string_view key, int64_t fallback) {
    const JsonValue& field = v[key];
    return field.is_null() ? fallback : static_cast<int64_t>(field.AsNumber());
  };
  e.time = as_i64("t", 0);
  e.job = as_i64("job", kNoJob);
  e.vc = static_cast<int32_t>(as_i64("vc", -1));
  e.user = static_cast<int32_t>(as_i64("user", -1));
  e.gpus = static_cast<int>(as_i64("gpus", 0));
  e.attempt = static_cast<int>(as_i64("attempt", -1));
  e.rack = static_cast<int32_t>(as_i64("rack", -1));
  e.cluster = static_cast<int32_t>(as_i64("cluster", -1));
  e.home = static_cast<int32_t>(as_i64("home", -1));
  e.home_queue = as_i64("home_queue", -1);
  e.dest_queue = as_i64("dest_queue", -1);
  e.dest_free = as_i64("dest_free", -1);
  e.ready_time = as_i64("ready", 0);
  e.wait = as_i64("wait", 0);
  e.fair_share_time = as_i64("fair", 0);
  e.fragmentation_time = as_i64("frag", 0);
  e.sched_attempts = static_cast<int>(as_i64("evals", 0));
  e.out_of_order = as_i64("ooo", 0) != 0;
  e.benign = as_i64("benign", 0) != 0;
  e.placement = v["placement"].AsString();
  e.failed = as_i64("failed", 0) != 0;
  e.preempted = as_i64("preempted", 0) != 0;
  e.machine_fault = as_i64("mfault", 0) != 0;
  e.status = static_cast<int>(as_i64("status", -1));
  e.started_out_of_order = as_i64("ooo_started", 0) != 0;
  e.out_of_order_benign = as_i64("ooo_benign", 0) != 0;
  e.overtaken = as_i64("overtaken", 0) != 0;
  e.relax_level = static_cast<int>(as_i64("relax", 0));
  e.delay = as_i64("delay", 0);
  e.lost_gpu_seconds = v["lost_gpu_s"].AsNumber(0.0);
  e.detail = v["detail"].AsString();
  *event = std::move(e);
  return true;
}

std::vector<SchedEvent> EventLog::ReadNdjson(std::istream& in,
                                             std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  std::vector<SchedEvent> events;
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    SchedEvent event;
    std::string line_error;
    if (!SchedEventFromNdjsonLine(line, &event, &line_error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": " + line_error;
      }
      break;
    }
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace philly
