#include "src/obs/trace_profiler.h"

#include <algorithm>
#include <ostream>

#include "src/common/strings.h"

namespace philly {

int TraceProfiler::TrackForThisThreadLocked() {
  const std::thread::id self = std::this_thread::get_id();
  for (size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == self) {
      return static_cast<int>(i);
    }
  }
  tracks_.push_back(self);
  return static_cast<int>(tracks_.size() - 1);
}

void TraceProfiler::RecordSlice(std::string_view name, int64_t ts_us,
                                int64_t dur_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slices_.capacity() == slices_.size()) {
    // Jump straight to a useful capacity; a simulated day records thousands
    // of scheduling-pass slices.
    slices_.reserve(slices_.empty() ? 4096 : slices_.size() * 2);
  }
  Slice& slice = slices_.emplace_back();
  slice.name = name;
  slice.ts_us = ts_us;
  slice.dur_us = std::max<int64_t>(dur_us, 0);
  slice.tid = TrackForThisThreadLocked();
}

size_t TraceProfiler::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slices_.size();
}

int64_t TraceProfiler::TotalDurationOf(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const Slice& slice : slices_) {
    if (slice.name == name) {
      total += slice.dur_us;
    }
  }
  return total;
}

void TraceProfiler::WriteChromeTrace(std::ostream& out) const {
  std::vector<Slice> slices;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slices = slices_;
  }
  std::stable_sort(slices.begin(), slices.end(),
                   [](const Slice& a, const Slice& b) {
                     return a.ts_us < b.ts_us;
                   });
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const Slice& slice : slices) {
    out << (first ? "\n" : ",\n");
    out << "  {\"name\": \"" << JsonEscape(slice.name)
        << "\", \"ph\": \"X\", \"ts\": " << slice.ts_us
        << ", \"dur\": " << slice.dur_us << ", \"pid\": 0, \"tid\": "
        << slice.tid << "}";
    first = false;
  }
  out << (first ? "]" : "\n]") << ", \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace philly
