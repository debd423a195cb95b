#include "src/obs/output_file.h"

#include <utility>

namespace philly {

OutputFile::OutputFile(std::string path)
    : path_(std::move(path)), partial_path_(path_ + ".partial") {
  file_ = std::fopen(partial_path_.c_str(), "wb");
  if (file_ != nullptr) {
    // buffer_ is the only buffer: stdio's own would copy every byte again.
    std::setvbuf(file_, nullptr, _IONBF, 0);
  }
}

OutputFile::~OutputFile() {
  if (file_ != nullptr) {  // opened and never committed
    std::fclose(file_);
    std::remove(partial_path_.c_str());
  }
}

void OutputFile::Drain() {
  const auto bytes = static_cast<size_t>(pptr() - pbase());
  if (bytes > 0 && !failed_) {
    hash_.Update(std::string_view(pbase(), bytes));
    failed_ = std::fwrite(pbase(), 1, bytes, file_) != bytes;
  }
  setp(pbase(), epptr());
}

OutputFile::int_type OutputFile::overflow(int_type ch) {
  if (file_ == nullptr) {
    return traits_type::eof();
  }
  if (buffer_ == nullptr) {
    // Allocated at the first write, so a file opened before the run holds no
    // buffer until the run writes to it.
    buffer_.reset(new char[kBufferBytes]);
    setp(buffer_.get(), buffer_.get() + kBufferBytes);
  } else {
    Drain();
  }
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return failed_ ? traits_type::eof() : traits_type::not_eof(ch);
}

int OutputFile::sync() {
  if (file_ == nullptr) {
    return -1;
  }
  Drain();
  return failed_ ? -1 : 0;
}

bool OutputFile::Commit() {
  if (file_ == nullptr) {
    return false;
  }
  Drain();
  failed_ = std::fclose(file_) != 0 || failed_;
  file_ = nullptr;
  if (failed_ || std::rename(partial_path_.c_str(), path_.c_str()) != 0) {
    std::remove(partial_path_.c_str());
    return false;
  }
  sha256_ = hash_.FinishHex();
  return true;
}

}  // namespace philly
