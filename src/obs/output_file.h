// The one writer behind every file phillyctl emits: stream files, metrics,
// phase and span traces, the HTML dashboard, and run manifests.
//
// Bytes go through a fixed buffer (kBufferBytes) into `<path>.partial`; each
// buffer-full is hashed (SHA-256) as it is written, so the manifest digest
// costs no second pass and no in-memory copy of the file. Commit renames the
// finished file to `<path>`. A run that fails or is cut short therefore never
// leaves a truncated file under the final name: the destructor removes an
// uncommitted `.partial` file, and a killed process leaves only `.partial`.
//
// OutputFile is a std::streambuf, so stream() accepts anything an ostream
// does, and a sink in streaming mode (record_buffer.h) can write batches to
// it while the run is still producing them.

#ifndef SRC_OBS_OUTPUT_FILE_H_
#define SRC_OBS_OUTPUT_FILE_H_

#include <cstdio>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>

#include "src/common/sha256.h"

namespace philly {

class OutputFile final : public std::streambuf {
 public:
  static constexpr size_t kBufferBytes = size_t{1} << 20;

  // Opens `<path>.partial` for writing; is_open() reports whether it could.
  explicit OutputFile(std::string path);
  // Removes the `.partial` file unless Commit was called.
  ~OutputFile() override;

  OutputFile(const OutputFile&) = delete;
  OutputFile& operator=(const OutputFile&) = delete;

  // True from a successful open until Commit.
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  std::ostream& stream() { return stream_; }

  // Writes out the buffer, closes the file and renames it to path(). Returns
  // false, and removes the `.partial` file, if any write, the close or the
  // rename failed.
  bool Commit();
  // SHA-256 (hex) of every byte written; set by a successful Commit.
  const std::string& sha256() const { return sha256_; }

 protected:
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  // Hashes and writes the buffered bytes, then empties the buffer.
  void Drain();

  std::string path_;
  std::string partial_path_;
  std::FILE* file_ = nullptr;
  // Allocated at the first write and left uninitialized, so a small file
  // touches only the pages it fills.
  std::unique_ptr<char[]> buffer_;
  Sha256 hash_;
  std::string sha256_;
  bool failed_ = false;
  std::ostream stream_{this};
};

}  // namespace philly

#endif  // SRC_OBS_OUTPUT_FILE_H_
