#include "src/core/run_outputs.h"

#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "src/core/analysis.h"

namespace philly {
namespace {

// Two outputs on one file would interleave their bytes, and the manifest
// would record a digest for a file another output then overwrote. Paths are
// compared absolute and normalized, with symlinks resolved as far as the path
// exists.
bool RejectSharedPaths(const std::vector<const RunOutput*>& outputs) {
  std::map<std::filesystem::path, const RunOutput*> seen;
  for (const RunOutput* output : outputs) {
    std::error_code error;
    const std::filesystem::path absolute =
        std::filesystem::absolute(output->path, error);
    std::filesystem::path key = std::filesystem::weakly_canonical(absolute, error);
    if (error) {
      key = absolute.lexically_normal();
    }
    const auto [it, inserted] = seen.emplace(key, output);
    if (!inserted) {
      std::fprintf(stderr,
                   "%s and %s both name %s: each output needs a file of its "
                   "own\n",
                   it->second->flag.c_str(), output->flag.c_str(),
                   output->path.c_str());
      return false;
    }
  }
  return true;
}

std::unique_ptr<OutputFile> OpenFile(const RunOutput& output) {
  auto file = std::make_unique<OutputFile>(output.path);
  if (!file->is_open()) {
    std::fprintf(stderr, "cannot write %s to %s\n", output.what.c_str(),
                 output.path.c_str());
    return nullptr;
  }
  return file;
}

}  // namespace

RunOutputs::RunOutputs(std::string dir, std::vector<RunOutput> outputs)
    : dir_(std::move(dir)), outputs_(std::move(outputs)) {}

bool RunOutputs::Open() {
  const RunOutput manifest{.flag = "--out", .path = dir_ + "/manifest.json", .what = "manifest"};
  std::vector<const RunOutput*> outputs;
  if (!dir_.empty()) {
    outputs.push_back(&manifest);
  }
  for (const RunOutput& output : outputs_) {
    outputs.push_back(&output);
  }
  if (!RejectSharedPaths(outputs)) {
    return false;
  }
  // The directories create_directories is about to make, deepest first.
  std::vector<std::filesystem::path> made;
  for (std::filesystem::path path = dir_; !path.empty(); path = path.parent_path()) {
    std::error_code error;
    if (std::filesystem::symlink_status(path, error).type() !=
        std::filesystem::file_type::not_found) {
      break;
    }
    made.push_back(path);
  }
  const auto open = [&] {
    if (!dir_.empty()) {
      std::error_code error;
      std::filesystem::create_directories(dir_, error);
      if (error) {
        std::fprintf(stderr, "cannot create output directory %s: %s\n",
                     dir_.c_str(), error.message().c_str());
        return false;
      }
    }
    for (const RunOutput& output : outputs_) {
      files_.push_back(output.write ? OpenFile(output) : nullptr);
      if (output.write && files_.back() == nullptr) {
        return false;
      }
    }
    return dir_.empty() || (manifest_ = OpenFile(manifest)) != nullptr;
  };
  if (open()) {
    return true;
  }
  // Leave nothing behind: closing the files removes their `.partial` files,
  // and then each directory made above goes if it is empty.
  files_.clear();
  manifest_.reset();
  for (const std::filesystem::path& path : made) {
    std::error_code error;
    std::filesystem::remove(path, error);
  }
  return false;
}

unsigned RunOutputs::attaches() const {
  unsigned mask = 0;
  for (const RunOutput& output : outputs_) {
    mask |= output.attaches;
  }
  return mask;
}

void RunOutputs::Attach(const std::vector<StreamRecorder>& recorders) {
  for (const StreamRecorder& recorder : recorders) {
    bool read = false;
    std::ostream* file = nullptr;
    for (size_t i = 0; i < outputs_.size(); ++i) {
      read = read || outputs_[i].reads == recorder;
      if (outputs_[i].streams == recorder && files_[i] != nullptr) {
        file = &files_[i]->stream();
      }
    }
    if (!read) {
      recorder.StreamTo(file);
    }
  }
  for (const RunOutput& output : outputs_) {
    if (output.follow) {
      output.follow();
    }
  }
}

void RunOutputs::Attach(SimulateRun* run, ObservabilityConfig* obs) {
  // A recorder no output needs stays null in `obs` and costs the run nothing.
  const unsigned attached = attaches();
  obs->event_log = (attached & kEventLog) ? &run->events : nullptr;
  obs->metrics = (attached & kMetrics) ? &run->metrics : nullptr;
  obs->profiler = (attached & kProfiler) ? &run->profiler : nullptr;
  obs->timeseries = (attached & kTimeSeries) ? &run->telemetry : nullptr;
  obs->spans = (attached & kSpanTracer) ? &run->spans : nullptr;
  Attach({&run->events, &run->telemetry, &run->spans.log()});
}

bool RunOutputs::Finish(RunManifest* manifest) {
  for (size_t i = 0; i < outputs_.size(); ++i) {
    const RunOutput& output = outputs_[i];
    if (files_[i] == nullptr) {
      continue;
    }
    output.write(files_[i]->stream());
    if (!files_[i]->Commit()) {
      std::fprintf(stderr, "error while writing %s to %s\n", output.what.c_str(),
                   output.path.c_str());
      return false;
    }
    // The SHA-256 of every byte lets a later reader prove the file on disk
    // is the one this run produced.
    manifest->outputs[output.sink] = output.path;
    manifest->digests[output.sink] = files_[i]->sha256();
    files_[i].reset();  // frees its buffer before the next file fills one
    if (output.line) {
      std::printf("%s\n", output.line(output.path).c_str());
    }
  }
  if (manifest_ != nullptr) {
    manifest->WriteJson(manifest_->stream());
    if (!manifest_->Commit()) {
      std::fprintf(stderr, "cannot write %s\n", manifest_->path().c_str());
      return false;
    }
    std::printf("manifest written to %s\n", manifest_->path().c_str());
  }
  return true;
}

std::vector<RunOutput> SimulateOutputs(SimulateRun* run) {
  return {
      {.flag = "--events-out", .sink = "events", .what = "event log",
       .attaches = kEventLog, .streams = &run->events,
       .write = [run](std::ostream& out) { run->events.WriteNdjson(out); },
       .line = [run](const std::string& path) {
         return std::to_string(run->events.size()) +
             " scheduler events written to " + path;
       }},
      {.flag = "--metrics-out", .sink = "metrics", .what = "metrics", .attaches = kMetrics,
       .write = [run](std::ostream& out) { run->metrics.WriteJson(out); },
       .line = [](const std::string& path) { return "metrics written to " + path; }},
      {.flag = "--trace-out", .sink = "phase-trace", .what = "phase trace",
       .attaches = kProfiler,
       .write = [run](std::ostream& out) { run->profiler.WriteChromeTrace(out); },
       .line = [run](const std::string& path) {
         return std::to_string(run->profiler.size()) +
             " phase slices written to " + path + " (open in ui.perfetto.dev)";
       }},
      {.flag = "--telemetry-out", .sink = "telemetry", .what = "telemetry",
       .attaches = kTimeSeries, .streams = &run->telemetry,
       .write =
           [run](std::ostream& out) {
             // The embedded digest carries both halves of the cross-check:
             // exact aggregates over the sample lines, and the Table 3
             // utilization aggregates derived from the job records.
             const TelemetryDigest digest =
                 TelemetryStreamDigest(run->telemetry, run->util_digest);
             run->telemetry.WriteNdjson(out, &digest);
           },
       .line = [run](const std::string& path) {
         return std::to_string(run->telemetry.size()) +
             " telemetry samples written to " + path;
       }},
      {.flag = "--spans-out", .sink = "spans", .what = "span stream",
       .attaches = kSpanTracer, .streams = &run->spans.log(),
       .write = [run](std::ostream& out) { run->spans.log().WriteNdjson(out); },
       .line = [run](const std::string& path) {
         return std::to_string(run->spans.log().size()) +
             " causal spans written to " + path;
       }},
      {.flag = "--spans-trace-out", .sink = "spans-trace", .what = "span trace",
       .attaches = kSpanTracer, .reads = &run->spans.log(),
       .write =
           [run](std::ostream& out) {
             WriteSpanChromeTrace(out, run->spans.log().spans());
           },
       .line = [](const std::string& path) {
         return "span trace written to " + path + " (open in ui.perfetto.dev)";
       }},
      // The dashboard folds the telemetry and scheduler streams, and the spans
      // when they were asked for, so it keeps none of them. It does not
      // attach the span tracer: with it attached the telemetry stream grows
      // per-VC blame columns, so --html would change --telemetry-out bytes.
      {.flag = kDashboardFlag, .sink = "dashboard", .what = "dashboard",
       .attaches = kEventLog | kTimeSeries,
       .follow =
           [run] {
             run->dashboard.Follow(run->events);
             run->dashboard.Follow(run->telemetry);
             run->dashboard.Follow(run->spans.log());
           },
       .write =
           [run](std::ostream& out) {
             // The run is over, so the records still held are final.
             run->events.FoldHeld();
             run->telemetry.FoldHeld();
             run->spans.log().FoldHeld();
             if (run->jobs != nullptr) {
               run->dashboard.jobs.assign(1, run->jobs);
             }
             out << RenderHtmlDashboard(run->title, run->dashboard);
           },
       .line = [](const std::string& path) { return "dashboard written to " + path; }},
  };
}

}  // namespace philly
