// Span-stream analysis: the verification and reconstruction half of the
// queueing-delay attribution engine (src/obs/span.h).
//
// Three consumers share this module:
//   * VerifyBlameConservation — the exact identity the tracer promises: for
//     every wait of every job, the blame child spans tile [ready_time, start]
//     with no gaps or overlaps (their durations sum to the measured queueing
//     delay to the integral second), and the fairness/fragmentation subtotals
//     equal the native WaitRecord attribution.
//   * DelayCausesFromSpans + CrossCheckDelayCauses — rebuilds the span-derived
//     half of Table 2 from the span stream alone and compares it against the
//     native AnalyzeDelayCauses result, field by field, exactly
//     (`phillyctl analyze --from-events --spans`).
//   * RenderJobExplanation — the human-readable causal timeline behind
//     `phillyctl explain --job`.

#ifndef SRC_CORE_SPAN_ANALYSIS_H_
#define SRC_CORE_SPAN_ANALYSIS_H_

#include <array>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/obs/span.h"
#include "src/sched/records.h"

namespace philly {

// Checks the blame-conservation identity of `spans` against the native job
// records. For every wait: exactly one queued span (none when the wait is
// zero — prerun pseudo-waits and same-instant migration restarts), blame
// children contiguously tiling [ready_time, ready_time + wait],
// sum(fair_share_cap) == fair_share_time, sum(fragmentation + locality_wait)
// == fragmentation_time; and per job, running-span durations sum to
// TotalRunTime(). Returns false with a description in *error on the first
// violation.
bool VerifyBlameConservation(const std::vector<SpanRecord>& spans,
                             const std::vector<JobRecord>& jobs,
                             std::string* error);

// Rebuilds the span-derived Table 2 fields from the stream alone: per-bucket
// first-wait dominant-cause counts and the two time-weighted cause fractions.
// Jobs are enumerated by their running spans (a job's running durations sum
// to its TotalRunTime, so the paper's >= 1 minute filter applies exactly);
// the out-of-order and snapshot-derived fields are not reconstructible from
// spans and stay zero.
DelayCauseResult DelayCausesFromSpans(const std::vector<SpanRecord>& spans);

// Compares the span-reconstructible fields of two Table 2 results exactly
// (by-bucket fair/frag counts and both time fractions; both sides accumulate
// exact integral seconds, so equality is well-defined on the doubles too).
// Returns false with the first mismatch described in *error.
bool CrossCheckDelayCauses(const DelayCauseResult& native,
                           const DelayCauseResult& from_spans,
                           std::string* error);

// Renders the causal timeline of one job from the span stream alone, in
// chronological order with per-wait blame breakdowns and a "why it waited"
// summary. Returns an empty string when the stream has no spans for `job`
// (the caller reports that as an error).
std::string RenderJobExplanation(JobId job,
                                 const std::vector<SpanRecord>& spans);

}  // namespace philly

#endif  // SRC_CORE_SPAN_ANALYSIS_H_
