// Self-contained SHA-256 (FIPS 180-4) for stream-integrity digests in run
// manifests. Not a general crypto library: the observability sinks hash the
// bytes they write, either in one shot or incrementally as a file streams
// out.

#ifndef SRC_COMMON_SHA256_H_
#define SRC_COMMON_SHA256_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

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
  std::array<uint32_t, 8> state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  std::array<unsigned char, 64> block_ = {};
  size_t block_bytes_ = 0;  // bytes of block_ filled
  uint64_t total_bytes_ = 0;
};

// Lower-case hex digest (64 characters) of `data`.
std::string Sha256Hex(std::string_view data);

}  // namespace philly

#endif  // SRC_COMMON_SHA256_H_
