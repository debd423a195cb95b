// The two SHA-256 block functions behind Sha256 (sha256.h), exposed so that
// tests and bench/oracle_gate can run both on the same input. Production code
// goes through Sha256, which picks one per process.

#ifndef SRC_COMMON_SHA256_INTERNAL_H_
#define SRC_COMMON_SHA256_INTERNAL_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace philly::sha256_internal {

// FIPS 180-4's initial hash value.
inline constexpr std::array<uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
using BlockFunction = void (*)(std::array<uint32_t, 8>& state, const unsigned char* data,
                               size_t blocks);

// FIPS 180-4 in portable C++: the fallback on every CPU and the oracle.
void ScalarBlocks(std::array<uint32_t, 8>& state, const unsigned char* data, size_t blocks);

// The x86-64 SHA extensions' block function, or null when this CPU (or
// architecture) has none.
BlockFunction ShaNiBlocks();

}  // namespace philly::sha256_internal

#endif  // SRC_COMMON_SHA256_INTERNAL_H_
