#include "src/core/span_analysis.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace philly {
namespace {

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return false;
}

bool IsQueueBlame(BlameCode code) {
  switch (code) {
    case BlameCode::kFairnessShareCap:
    case BlameCode::kFragmentation:
    case BlameCode::kLocalityWait:
    case BlameCode::kBackoff:
    case BlameCode::kFaultRecovery:
    case BlameCode::kRouterQueue:
      return true;
    case BlameCode::kCkptStall:
      return false;
  }
  return false;
}

std::string JobTag(JobId job) { return "job " + std::to_string(job); }

// "2d03h", "4h07m", "12m05s", "42s" — compact human durations for explain.
std::string HumanDuration(SimDuration seconds) {
  char buf[32];
  if (seconds >= Hours(48)) {
    std::snprintf(buf, sizeof(buf), "%lldd%02lldh",
                  static_cast<long long>(seconds / Hours(24)),
                  static_cast<long long>(seconds % Hours(24) / Hours(1)));
  } else if (seconds >= Hours(1)) {
    std::snprintf(buf, sizeof(buf), "%lldh%02lldm",
                  static_cast<long long>(seconds / Hours(1)),
                  static_cast<long long>(seconds % Hours(1) / Minutes(1)));
  } else if (seconds >= Minutes(1)) {
    std::snprintf(buf, sizeof(buf), "%lldm%02llds",
                  static_cast<long long>(seconds / Minutes(1)),
                  static_cast<long long>(seconds % Minutes(1)));
  } else {
    std::snprintf(buf, sizeof(buf), "%llds", static_cast<long long>(seconds));
  }
  return buf;
}

}  // namespace

bool VerifyBlameConservation(const std::vector<SpanRecord>& spans,
                             const std::vector<JobRecord>& jobs,
                             std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  struct PerJob {
    std::vector<const SpanRecord*> queued;
    std::vector<const SpanRecord*> blame;  // emission order == chronological
    int64_t running = 0;
  };
  std::map<JobId, PerJob> per_job;
  for (const SpanRecord& s : spans) {
    PerJob& pj = per_job[s.job];
    switch (s.kind) {
      case SpanKind::kQueued:
        pj.queued.push_back(&s);
        break;
      case SpanKind::kBlame:
        if (!IsQueueBlame(s.code)) {
          return Fail(error, JobTag(s.job) + ": blame span with non-queue code '" +
                                 std::string(ToString(s.code)) + "'");
        }
        pj.blame.push_back(&s);
        break;
      case SpanKind::kRunning:
        pj.running += s.dur;
        break;
      case SpanKind::kCkpt:
        break;  // inside running spans; not part of the queueing identity
    }
    if (s.dur <= 0 && s.kind != SpanKind::kCkpt) {
      return Fail(error, JobTag(s.job) + ": zero-duration " +
                             std::string(ToString(s.kind)) + " span at t=" +
                             std::to_string(s.start));
    }
  }

  std::map<JobId, const JobRecord*> records;
  for (const JobRecord& job : jobs) {
    records.emplace(job.spec.id, &job);
  }
  for (const auto& [id, pj] : per_job) {
    if (records.find(id) == records.end()) {
      return Fail(error, JobTag(id) + ": spans for a job absent from the records");
    }
  }

  const PerJob kNone;
  for (const JobRecord& job : jobs) {
    const auto it = per_job.find(job.spec.id);
    const PerJob& pj = it != per_job.end() ? it->second : kNone;
    const std::string tag = JobTag(job.spec.id);

    if (pj.running != job.TotalRunTime()) {
      return Fail(error, tag + ": running spans sum to " +
                             std::to_string(pj.running) + "s but TotalRunTime is " +
                             std::to_string(job.TotalRunTime()) + "s");
    }

    // Slot queued/blame spans by wait index.
    const size_t num_waits = job.waits.size();
    std::vector<const SpanRecord*> queued_at(num_waits, nullptr);
    std::vector<std::vector<const SpanRecord*>> blame_at(num_waits);
    for (const SpanRecord* s : pj.queued) {
      if (s->wait_index < 0 || static_cast<size_t>(s->wait_index) >= num_waits) {
        return Fail(error, tag + ": queued span with out-of-range wait index " +
                               std::to_string(s->wait_index));
      }
      if (queued_at[static_cast<size_t>(s->wait_index)] != nullptr) {
        return Fail(error, tag + ": duplicate queued span for wait " +
                               std::to_string(s->wait_index));
      }
      queued_at[static_cast<size_t>(s->wait_index)] = s;
    }
    for (const SpanRecord* s : pj.blame) {
      if (s->wait_index < 0 || static_cast<size_t>(s->wait_index) >= num_waits) {
        return Fail(error, tag + ": blame span with out-of-range wait index " +
                               std::to_string(s->wait_index));
      }
      blame_at[static_cast<size_t>(s->wait_index)].push_back(s);
    }

    for (size_t w = 0; w < num_waits; ++w) {
      const WaitRecord& wait = job.waits[w];
      const std::string wait_tag = tag + " wait " + std::to_string(w);
      const SpanRecord* queued = queued_at[w];
      if (wait.wait <= 0) {
        // Zero-length waits (prerun pseudo-waits, same-instant migration
        // restarts) produce no spans at all.
        if (queued != nullptr || !blame_at[w].empty()) {
          return Fail(error, wait_tag + ": spans emitted for a zero-length wait");
        }
        continue;
      }
      if (queued == nullptr) {
        return Fail(error, wait_tag + ": no queued span for a " +
                               std::to_string(wait.wait) + "s wait");
      }
      if (queued->start != wait.ready_time || queued->dur != wait.wait) {
        return Fail(error, wait_tag + ": queued span [" +
                               std::to_string(queued->start) + " +" +
                               std::to_string(queued->dur) + "s] != wait [" +
                               std::to_string(wait.ready_time) + " +" +
                               std::to_string(wait.wait) + "s]");
      }
      // The blame children must tile [ready_time, ready_time + wait] with no
      // gaps or overlaps — this IS the conservation identity: durations sum
      // to the measured delay because the tiling is exact.
      SimTime cursor = wait.ready_time;
      SimDuration fair = 0;
      SimDuration frag = 0;
      for (const SpanRecord* s : blame_at[w]) {
        if (s->start != cursor) {
          return Fail(error, wait_tag + ": blame span starts at " +
                                 std::to_string(s->start) + ", expected " +
                                 std::to_string(cursor) + " (gap or overlap)");
        }
        cursor += s->dur;
        if (s->code == BlameCode::kFairnessShareCap) {
          fair += s->dur;
        } else if (s->code == BlameCode::kFragmentation ||
                   s->code == BlameCode::kLocalityWait) {
          frag += s->dur;
        }
      }
      if (cursor != wait.ready_time + wait.wait) {
        return Fail(error, wait_tag + ": blame spans cover " +
                               std::to_string(cursor - wait.ready_time) +
                               "s of a " + std::to_string(wait.wait) + "s wait");
      }
      if (fair != wait.fair_share_time) {
        return Fail(error, wait_tag + ": fair_share_cap spans sum to " +
                               std::to_string(fair) + "s, native fair_share_time is " +
                               std::to_string(wait.fair_share_time) + "s");
      }
      if (frag != wait.fragmentation_time) {
        return Fail(error,
                    wait_tag + ": fragmentation + locality_wait spans sum to " +
                        std::to_string(frag) + "s, native fragmentation_time is " +
                        std::to_string(wait.fragmentation_time) + "s");
      }
    }
  }
  return true;
}

DelayCauseResult DelayCausesFromSpans(const std::vector<SpanRecord>& spans) {
  struct Acc {
    int64_t run = 0;
    int gpus = 0;
    bool has_wait0 = false;
    SimDuration fair0 = 0;
    SimDuration frag0 = 0;
    SimDuration fair_all = 0;
    SimDuration frag_all = 0;
  };
  std::map<JobId, Acc> jobs;
  for (const SpanRecord& s : spans) {
    Acc& a = jobs[s.job];
    if (s.gpus > 0) {
      a.gpus = s.gpus;
    }
    switch (s.kind) {
      case SpanKind::kQueued:
        if (s.wait_index == 0) {
          a.has_wait0 = true;
        }
        break;
      case SpanKind::kBlame: {
        const bool fair = s.code == BlameCode::kFairnessShareCap;
        const bool frag = s.code == BlameCode::kFragmentation ||
                          s.code == BlameCode::kLocalityWait;
        if (fair) {
          a.fair_all += s.dur;
        } else if (frag) {
          a.frag_all += s.dur;
        }
        if (s.wait_index == 0) {
          if (fair) {
            a.fair0 += s.dur;
          } else if (frag) {
            a.frag0 += s.dur;
          }
        }
        break;
      }
      case SpanKind::kRunning:
        a.run += s.dur;
        break;
      case SpanKind::kCkpt:
        break;
    }
  }

  DelayCauseResult result;
  double fair_time = 0.0;
  double frag_time = 0.0;
  for (const auto& [id, a] : jobs) {
    // The paper's filter, reproduced exactly: running spans sum to
    // TotalRunTime (zero-length attempts contribute nothing either way).
    if (a.run < Minutes(1)) {
      continue;
    }
    fair_time += static_cast<double>(a.fair_all);
    frag_time += static_cast<double>(a.frag_all);
    // First-wait dominant cause, mirroring WaitRecord::DominantCause: a job
    // without a wait-0 queued span had a zero first wait (dominant cause
    // kNone), as did one with only backoff-family blame.
    if (a.has_wait0 && (a.fair0 > 0 || a.frag0 > 0)) {
      const auto bucket = static_cast<size_t>(BucketOf(a.gpus));
      if (a.fair0 > a.frag0) {
        ++result.by_bucket[bucket].fair_share;
      } else {
        ++result.by_bucket[bucket].fragmentation;
      }
    }
  }
  const double total_time = fair_time + frag_time;
  if (total_time > 0) {
    result.fair_share_time_fraction = fair_time / total_time;
    result.fragmentation_time_fraction = frag_time / total_time;
  }
  return result;
}

bool CrossCheckDelayCauses(const DelayCauseResult& native,
                           const DelayCauseResult& from_spans,
                           std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const auto& n = native.by_bucket[static_cast<size_t>(b)];
    const auto& s = from_spans.by_bucket[static_cast<size_t>(b)];
    if (n.fair_share != s.fair_share) {
      return Fail(error, "bucket " + std::to_string(b) + " fair-share count: native " +
                             std::to_string(n.fair_share) + ", from spans " +
                             std::to_string(s.fair_share));
    }
    if (n.fragmentation != s.fragmentation) {
      return Fail(error,
                  "bucket " + std::to_string(b) + " fragmentation count: native " +
                      std::to_string(n.fragmentation) + ", from spans " +
                      std::to_string(s.fragmentation));
    }
  }
  // Both sides sum exact integral seconds (exactly representable in doubles),
  // so the fractions must match bit for bit.
  if (native.fair_share_time_fraction != from_spans.fair_share_time_fraction) {
    return Fail(error, "fair-share time fraction: native " +
                           std::to_string(native.fair_share_time_fraction) +
                           ", from spans " +
                           std::to_string(from_spans.fair_share_time_fraction));
  }
  if (native.fragmentation_time_fraction !=
      from_spans.fragmentation_time_fraction) {
    return Fail(error, "fragmentation time fraction: native " +
                           std::to_string(native.fragmentation_time_fraction) +
                           ", from spans " +
                           std::to_string(from_spans.fragmentation_time_fraction));
  }
  return true;
}

std::string RenderJobExplanation(JobId job,
                                 const std::vector<SpanRecord>& spans) {
  std::vector<const SpanRecord*> mine;
  for (const SpanRecord& s : spans) {
    if (s.job == job) {
      mine.push_back(&s);
    }
  }
  if (mine.empty()) {
    return "";
  }
  // Emission order is chronological except that running spans are appended
  // when the attempt ends; a stable sort by start restores the timeline while
  // keeping queued spans ahead of their same-start blame children.
  std::stable_sort(mine.begin(), mine.end(),
                   [](const SpanRecord* a, const SpanRecord* b) {
                     return a->start < b->start;
                   });

  const SpanRecord& first = *mine.front();
  std::string out = "job " + std::to_string(job) + ": vc " +
                    std::to_string(first.vc) + ", user " +
                    std::to_string(first.user) + ", " +
                    std::to_string(first.gpus) + " GPUs\n";

  std::array<int64_t, kNumBlameCodes> blame_totals = {};
  int64_t total_queued = 0;
  int64_t total_running = 0;
  for (const SpanRecord* s : mine) {
    const std::string window = "[t=" + std::to_string(s->start) + " +" +
                               HumanDuration(s->dur) + "]";
    switch (s->kind) {
      case SpanKind::kQueued:
        out += "  " + window + " queued (wait " + std::to_string(s->wait_index) +
               ")\n";
        total_queued += s->dur;
        break;
      case SpanKind::kBlame:
        out += "      " + window + " " + std::string(ToString(s->code)) + "\n";
        blame_totals[static_cast<size_t>(s->code)] += s->dur;
        break;
      case SpanKind::kRunning:
        out += "  " + window + " running (attempt " +
               std::to_string(s->attempt) + ") -> " + s->detail + "\n";
        total_running += s->dur;
        break;
      case SpanKind::kCkpt:
        out += "      " + window + " " + std::string(ToString(s->code)) + " (" +
               s->detail + ")\n";
        blame_totals[static_cast<size_t>(s->code)] += s->dur;
        break;
    }
  }

  out += "totals: queued " + HumanDuration(total_queued) + ", running " +
         HumanDuration(total_running) + "\n";
  if (total_queued > 0) {
    out += "why it waited:\n";
    for (int c = 0; c < kNumBlameCodes; ++c) {
      const int64_t t = blame_totals[static_cast<size_t>(c)];
      if (t == 0 || static_cast<BlameCode>(c) == BlameCode::kCkptStall) {
        continue;
      }
      char pct[16];
      std::snprintf(pct, sizeof(pct), "%.1f%%",
                    100.0 * static_cast<double>(t) /
                        static_cast<double>(total_queued));
      out += "  " + std::string(ToString(static_cast<BlameCode>(c))) + " " +
             HumanDuration(t) + " (" + pct + ")\n";
    }
  }
  if (blame_totals[static_cast<size_t>(BlameCode::kCkptStall)] > 0) {
    out += "checkpoint stalls while running: " +
           HumanDuration(
               blame_totals[static_cast<size_t>(BlameCode::kCkptStall)]) +
           "\n";
  }
  return out;
}

}  // namespace philly
