#include "src/obs/event_log.h"

#include "src/obs/ndjson_codec.h"

namespace philly {
namespace {

constexpr std::string_view kKindNames[kNumSchedEventKinds] = {
    "submit",  "queued",  "locality_relax", "backoff",    "schedule",
    "preempt", "migrate", "fault_kill",     "requeue",    "complete",
    "ckpt_begin", "ckpt_end", "ckpt_stall", "route",
};

bool IsSchedule(const SchedEvent& e) { return e.kind == SchedEventKind::kSchedule; }

constexpr auto kFields = std::tuple{
    Field{"t", &SchedEvent::time},
    Field{.key = "ev", .member = &SchedEvent::kind, .tags = kKindNames},
    Field{"job", &SchedEvent::job, When::kNotNoJob},
    Field{"vc", &SchedEvent::vc, When::kNonNegative},
    Field{"user", &SchedEvent::user, When::kNonNegative},
    Field{"gpus", &SchedEvent::gpus, When::kPositive},
    Field{"attempt", &SchedEvent::attempt, When::kNonNegative},
    Field{"rack", &SchedEvent::rack, When::kNonNegative},
    Field{"cluster", &SchedEvent::cluster, When::kNonNegative},
    Field{"home", &SchedEvent::home, When::kNonNegative},
    Field{"home_queue", &SchedEvent::home_queue, When::kNonNegative},
    Field{"dest_queue", &SchedEvent::dest_queue, When::kNonNegative},
    Field{"dest_free", &SchedEvent::dest_free, When::kNonNegative},
    Field{"ready", &SchedEvent::ready_time, When::kAlways, IsSchedule},
    Field{"wait", &SchedEvent::wait, When::kAlways, IsSchedule},
    Field{"fair", &SchedEvent::fair_share_time, When::kAlways, IsSchedule},
    Field{"frag", &SchedEvent::fragmentation_time, When::kAlways, IsSchedule},
    Field{"evals", &SchedEvent::sched_attempts, When::kAlways, IsSchedule},
    Field{"ooo", &SchedEvent::out_of_order, When::kNonZero, IsSchedule},
    Field{"benign", &SchedEvent::benign, When::kNonZero, IsSchedule},
    Field{"placement", &SchedEvent::placement, When::kNonEmpty, IsSchedule},
    Field{"failed", &SchedEvent::failed, When::kNonZero},
    Field{"preempted", &SchedEvent::preempted, When::kNonZero},
    Field{"mfault", &SchedEvent::machine_fault, When::kNonZero},
    Field{"status", &SchedEvent::status, When::kNonNegative},
    Field{"ooo_started", &SchedEvent::started_out_of_order, When::kNonZero},
    Field{"ooo_benign", &SchedEvent::out_of_order_benign, When::kNonZero},
    Field{"overtaken", &SchedEvent::overtaken, When::kNonZero},
    Field{"relax", &SchedEvent::relax_level, When::kPositive},
    Field{"delay", &SchedEvent::delay, When::kPositive},
    Field{"lost_gpu_s", &SchedEvent::lost_gpu_seconds, When::kPositive},
    Field{"detail", &SchedEvent::detail, When::kNonEmpty},
};

}  // namespace

std::string_view ToString(SchedEventKind kind) {
  return kKindNames[static_cast<size_t>(kind)];
}

SchedEvent& EventLog::Append(SchedEventKind kind, SimTime time, JobId job) {
  SchedEvent& event = events_.Append();
  event.kind = kind;
  event.time = time;
  event.job = job;
  return event;
}

void AppendNdjsonLine(std::string& out, const SchedEvent& event) {
  AppendNdjson<kFields>(out, event);
}

std::string ToNdjsonLine(const SchedEvent& event) {
  return EncodeNdjson<kFields>(event);
}

bool SchedEventFromNdjsonLine(std::string_view line, SchedEvent* event, std::string* error) {
  return DecodeNdjson<kFields>(line, event, error);
}

std::vector<SchedEvent> EventLog::ReadNdjson(std::istream& in, std::string* error) {
  return ReadNdjsonRecords<SchedEvent, kFields>(in, error);
}

}  // namespace philly
