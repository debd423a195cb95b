// Reference CSV reader for CsvWriter (src/common/csv.h): RFC-4180 quoting,
// records that span physical lines inside quoted fields. The trace reader
// parses its own files strictly (src/trace/trace_io.h); tests use this one to
// read back what CsvWriter wrote, including fields the trace schemas never
// contain (separators, quotes, newlines).

#ifndef TESTS_REFERENCE_CSV_READER_H_
#define TESTS_REFERENCE_CSV_READER_H_

#include <istream>
#include <string>
#include <string_view>
#include <vector>

namespace philly {

// Parses one CSV record into fields (handles quoting; the record may contain
// embedded newlines inside quoted fields — ReadCsv passes those through).
inline std::vector<std::string> ParseCsvLine(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

namespace csv_reader {

// True if `text` has an odd number of quotes, i.e. a quoted field is still
// open at the end of the physical line. Doubled quotes toggle twice and
// cancel out, so simple parity is exact for RFC-4180 quoting.
inline bool EndsInsideQuotes(std::string_view text) {
  bool in_quotes = false;
  for (char c : text) {
    if (c == '"') {
      in_quotes = !in_quotes;
    }
  }
  return in_quotes;
}

}  // namespace csv_reader

// Reads all records of an istream. A record spans physical lines when a
// quoted field contains newlines. First record is returned as-is (callers
// decide whether it is a header). Blank lines between records are skipped.
inline std::vector<std::vector<std::string>> ReadCsv(std::istream& in) {
  std::vector<std::vector<std::string>> rows;
  std::string line;
  std::string record;
  bool in_record = false;
  while (std::getline(in, line)) {
    if (!in_record) {
      if (line.empty()) {
        continue;  // blank lines separate records; inside quotes they are data
      }
      record = line;
    } else {
      record += '\n';
      record += line;
    }
    in_record = csv_reader::EndsInsideQuotes(record);
    if (!in_record) {
      rows.push_back(ParseCsvLine(record));
      record.clear();
    }
  }
  if (in_record) {
    // EOF with an unterminated quote: salvage what accumulated rather than
    // silently dropping the record.
    rows.push_back(ParseCsvLine(record));
  }
  return rows;
}

}  // namespace philly

#endif  // TESTS_REFERENCE_CSV_READER_H_
