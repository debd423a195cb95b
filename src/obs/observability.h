// The single knob that threads observability through the stack.
//
// All sinks are optional, non-owning, and default to null. A
// default-constructed ObservabilityConfig is the "off" state, and the
// instrumented code promises that the off state is free: no allocation, no
// clock reads, no RNG perturbation, byte-identical simulation output to a
// build without observability. Enabling any sink must never change
// simulation behavior — events observe decisions, they do not make them.

#ifndef SRC_OBS_OBSERVABILITY_H_
#define SRC_OBS_OBSERVABILITY_H_

#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace_profiler.h"

namespace philly {

struct ObservabilityConfig {
  // Per-run scheduler decision stream (one log per simulation; not shared
  // across concurrent runs).
  EventLog* event_log = nullptr;
  // Aggregated counters/gauges/histograms; thread-safe, may be shared by
  // every run in an ExperimentPool sweep.
  MetricsRegistry* metrics = nullptr;
  // Wall-clock phase slices; thread-safe, may be shared.
  TraceProfiler* profiler = nullptr;
  // Per-minute cluster telemetry stream (one recorder per simulation; not
  // shared across concurrent runs).
  ClusterTimeSeries* timeseries = nullptr;
  // Per-job causal span stream with blame attribution (one tracer per
  // simulation; not shared across concurrent runs).
  SpanTracer* spans = nullptr;
};

}  // namespace philly

#endif  // SRC_OBS_OBSERVABILITY_H_
