#include "src/common/csv.h"

#include <ostream>

namespace philly {

void CsvWriter::Append(std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    row_.append(field);
  } else {
    row_ += '"';
    for (char c : field) {
      if (c == '"') {
        row_ += '"';
      }
      row_ += c;
    }
    row_ += '"';
  }
  row_ += ',';
}

void CsvWriter::Append(double value) {
  char buf[32];
  row_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  row_ += ',';
}

void CsvWriter::EndRow() {
  if (row_.empty()) {
    row_ += '\n';
  } else {
    row_.back() = '\n';
  }
  out_.write(row_.data(), static_cast<std::streamsize>(row_.size()));
}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  row_.clear();
  for (const std::string& field : fields) {
    Append(field);
  }
  EndRow();
}

}  // namespace philly
