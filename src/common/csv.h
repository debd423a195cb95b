// CSV writing for the philly-traces-compatible log files, the native trace
// and the figure series.
//
// Fields containing the separator, quotes, or newlines are quoted RFC-4180
// style (embedded quotes are doubled). That is all the trace schemas need;
// this is not a general CSV library. A row is appended field by field into
// one buffer the writer reuses (integers and doubles through std::to_chars)
// and reaches the stream in one ostream::write, so a row costs no allocation
// once the buffer has grown to the longest row. The trace reader parses
// these files strictly (src/trace/trace_io.h).

#ifndef SRC_COMMON_CSV_H_
#define SRC_COMMON_CSV_H_

#include <charconv>
#include <concepts>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace philly {

// Streams rows to an ostream the caller owns.
class CsvWriter {
 public:
  // `out` must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void WriteRow(const std::vector<std::string>& fields);

  // One row of fields, each string-like, an integer or a double.
  template <typename... Ts>
  void Row(const Ts&... fields) {
    row_.clear();
    (Append(fields), ...);
    EndRow();
  }

 private:
  // Each Append adds its field and a comma; EndRow turns the last comma into
  // the newline and writes the row.
  void Append(std::string_view field);
  // Shortest decimal that round-trips to the same double, so written traces
  // re-read bitwise-equal.
  void Append(double value);
  template <std::integral T>
  void Append(T value) {
    char buf[24];
    row_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    row_ += ',';
  }
  void EndRow();

  std::ostream& out_;
  std::string row_;  // the row being built
};

}  // namespace philly

#endif  // SRC_COMMON_CSV_H_
