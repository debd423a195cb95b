// Self-contained SHA-256 (FIPS 180-4) for stream-integrity digests in run
// manifests. Not a general crypto library: the observability sinks hash the
// bytes they write, either in one shot or incrementally as a file streams
// out.
//
// Whole 64-byte blocks go to one of two block functions, chosen once per
// process (sha256_internal.h): the x86-64 SHA extensions where the CPU has
// them, at memory speed, and portable scalar code everywhere else. Both give
// the same digest.

#ifndef SRC_COMMON_SHA256_H_
#define SRC_COMMON_SHA256_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/sha256_internal.h"

namespace philly {

// Incremental hash: any split of the input over Update calls gives the same
// digest as hashing it whole.
class Sha256 {
 public:
  void Update(std::string_view data);
  // Lower-case hex digest (64 characters) of everything passed to Update.
  // Finishes the hash: call it once, then discard the object.
  std::string FinishHex();

 private:
  std::array<uint32_t, 8> state_ = sha256_internal::kInitialState;
  std::array<unsigned char, 64> block_ = {};
  size_t block_bytes_ = 0;  // bytes of block_ filled
  uint64_t total_bytes_ = 0;
};

// Lower-case hex digest (64 characters) of `data`.
std::string Sha256Hex(std::string_view data);

}  // namespace philly

#endif  // SRC_COMMON_SHA256_H_
