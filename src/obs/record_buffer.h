// The record store behind EventLog, SpanLog and ClusterTimeSeries: one
// batch-and-flush mode shared by the three NDJSON streams.
//
// Buffered (the default), it keeps every record of the run, for callers that
// read the records back afterwards: the span Chrome trace, the fleet's
// buffered members, tests.
//
// Streaming (after StreamTo), it keeps at most kBatchRecords. When a full
// batch is about to take another record, the batch is written to the stream
// (or, with no stream, to nowhere: nothing is encoded) and dropped, so sink
// memory stays one batch however long the run. The batch drops on the *next*
// Append, not when it fills, because callers fill a record in place after
// appending it. It follows that a reference returned by Append is valid only
// until the next Append, in both modes (a buffered vector may also move).
//
// Either way WriteNdjson writes the records still held, so writing a stream
// out after the run is the same call in both modes: the whole stream when
// buffered, its tail when streaming. The bytes are identical.
//
// A fold (FoldInto) sees every record once, when it is final: as its batch
// drops, and, for the records still held when the run is over, at FoldHeld,
// which then tells it the stream has ended. That is how the HTML dashboard
// reads a stream nobody keeps.
//
// WriteNdjson appends each record's line (the record type's
// AppendNdjsonLine) into one buffer and writes the buffer whenever the next
// line would take it past kWriteBytes, so encoding allocates no string per
// line and the buffer never holds more than kWriteBytes plus one line.

#ifndef SRC_OBS_RECORD_BUFFER_H_
#define SRC_OBS_RECORD_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace philly {

template <typename Record>
class RecordBuffer {
 public:
  static constexpr size_t kBatchRecords = 4096;
  // The most WriteNdjson hands the stream in one write, unless one line is
  // longer.
  static constexpr size_t kWriteBytes = size_t{64} << 10;

  // Keeps at most one batch from now on: each later full batch is written
  // to `out`, which must outlive the last Append, and dropped. With `out`
  // null the batch is dropped unwritten. Call before the first Append.
  void StreamTo(std::ostream* out) {
    streaming_ = true;
    out_ = out;
    records_.reserve(kBatchRecords);
  }

  // Hands `fold` every record once it is final, in order: each batch as it
  // drops, then the records still held at FoldHeld, after which `end` (if
  // set) runs. Call before the first Append.
  void FoldInto(std::function<void(const Record&)> fold, std::function<void()> end = nullptr) {
    fold_ = std::move(fold);
    end_ = std::move(end);
  }
  // Once the last record is appended: hands the held records to the fold,
  // ends it and detaches it, so a second call does nothing.
  void FoldHeld() {
    if (fold_) {
      for (const Record& record : records_) {
        fold_(record);
      }
    }
    if (end_) {
      end_();
    }
    fold_ = nullptr;
    end_ = nullptr;
  }

  // Appends a default record. When streaming with a full batch, the batch is
  // first written and dropped; `on_drop`, then the fold, see each of its
  // records, in order, just before.
  template <typename OnDrop>
  Record& Append(OnDrop&& on_drop) {
    if (streaming_ && records_.size() == kBatchRecords) {
      for (const Record& record : records_) {
        on_drop(record);
        if (fold_) {
          fold_(record);
        }
      }
      if (out_ != nullptr) {
        WriteNdjson(*out_);
      }
      records_.clear();
    }
    ++size_;
    return records_.emplace_back();
  }
  Record& Append() {
    return Append([](const Record&) {});
  }

  // Pre-sizes the buffer; a streaming buffer never grows past one batch.
  void Reserve(size_t n) {
    records_.reserve(streaming_ ? std::min(n, kBatchRecords) : n);
  }
  // Drops the held records but keeps capacity and the stream.
  void Clear() {
    records_.clear();
    size_ = 0;
  }

  // The records still held: every record when buffered, the current batch
  // when streaming.
  const std::vector<Record>& held() const { return records_; }
  // Records appended since the last Clear, written out or held.
  size_t size() const { return size_; }

  // One NDJSON line per held record.
  void WriteNdjson(std::ostream& out) const {
    std::string lines;
    lines.reserve(kWriteBytes);
    for (const Record& record : records_) {
      const size_t line_start = lines.size();
      AppendNdjsonLine(lines, record);
      lines += '\n';
      if (lines.size() > kWriteBytes && line_start > 0) {
        // Write the lines before this one; keep this one for the next write.
        out.write(lines.data(), static_cast<std::streamsize>(line_start));
        lines.erase(0, line_start);
      }
    }
    if (!lines.empty()) {
      out.write(lines.data(), static_cast<std::streamsize>(lines.size()));
    }
  }

 private:
  bool streaming_ = false;
  std::ostream* out_ = nullptr;
  std::function<void(const Record&)> fold_;
  std::function<void()> end_;
  std::vector<Record> records_;
  size_t size_ = 0;
};

}  // namespace philly

#endif  // SRC_OBS_RECORD_BUFFER_H_
