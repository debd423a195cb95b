#include "src/common/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace philly {
namespace sha256_internal {
namespace {

constexpr std::array<uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t RotateRight(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void Compress(std::array<uint32_t, 8>& state, const unsigned char* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 = RotateRight(w[i - 15], 7) ^ RotateRight(w[i - 15], 18) ^
                        (w[i - 15] >> 3);
    const uint32_t s1 = RotateRight(w[i - 2], 17) ^ RotateRight(w[i - 2], 19) ^
                        (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const uint32_t s1 =
        RotateRight(e, 6) ^ RotateRight(e, 11) ^ RotateRight(e, 25);
    const uint32_t ch = (e & f) ^ (~e & g);
    const uint32_t temp1 = h + s1 + ch + kRoundConstants[static_cast<size_t>(i)] + w[i];
    const uint32_t s0 =
        RotateRight(a, 2) ^ RotateRight(a, 13) ^ RotateRight(a, 22);
    const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)
// The same compression with SHA256RNDS2 (two rounds), SHA256MSG1 and
// SHA256MSG2 (the message schedule, four words at a time). The instructions
// keep the state as two registers, ABEF and CDGH, and the message words in
// four registers of four.
__attribute__((target("sha,sse4.1"))) void ShaNiCompress(std::array<uint32_t, 8>& state,
                                                         const unsigned char* data,
                                                         size_t blocks) {
  // Message words are big-endian: reverse the bytes of each 32-bit lane.
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // the last 16 message words; w[i & 3] holds words 4i..4i+3
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i& words = w[i & 3];
      if (i < 4) {
        words = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), byte_swap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16] for four t.
        words = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(words, w[(i + 1) & 3]),
                          _mm_alignr_epi8(w[(i + 3) & 3], w[(i + 2) & 3], 4)),
            w[(i + 3) & 3]);
      }
      const __m128i wk = _mm_add_epi32(
          words, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * i])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

}  // namespace

void ScalarBlocks(std::array<uint32_t, 8>& state, const unsigned char* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    Compress(state, data);
  }
}

BlockFunction ShaNiBlocks() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return ShaNiCompress;
  }
#endif
  return nullptr;
}

}  // namespace sha256_internal

namespace {

// The block function of this process: SHA-NI where the CPU has it.
sha256_internal::BlockFunction Blocks() {
  static const sha256_internal::BlockFunction blocks = [] {
    const sha256_internal::BlockFunction sha_ni = sha256_internal::ShaNiBlocks();
    return sha_ni != nullptr ? sha_ni : sha256_internal::ScalarBlocks;
  }();
  return blocks;
}

}  // namespace

void Sha256::Update(std::string_view data) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  size_t remaining = data.size();
  total_bytes_ += remaining;
  if (block_bytes_ > 0) {
    const size_t take = std::min(remaining, block_.size() - block_bytes_);
    std::memcpy(block_.data() + block_bytes_, bytes, take);
    block_bytes_ += take;
    bytes += take;
    remaining -= take;
    if (block_bytes_ < block_.size()) {
      return;
    }
    Blocks()(state_, block_.data(), 1);
    block_bytes_ = 0;
  }
  const size_t whole = remaining / 64;
  Blocks()(state_, bytes, whole);
  bytes += 64 * whole;
  remaining -= 64 * whole;
  std::memcpy(block_.data(), bytes, remaining);
  block_bytes_ = remaining;
}

std::string Sha256::FinishHex() {
  // Final block(s): message tail, 0x80, zero padding, 64-bit big-endian
  // bit length.
  unsigned char tail[128] = {};
  std::memcpy(tail, block_.data(), block_bytes_);
  tail[block_bytes_] = 0x80;
  const size_t padded = block_bytes_ + 1 + 8 <= 64 ? 64 : 128;
  const uint64_t bit_length = total_bytes_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[padded - 8 + static_cast<size_t>(i)] =
        static_cast<unsigned char>(bit_length >> (56 - 8 * i));
  }
  Blocks()(state_, tail, padded / 64);

  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(64);
  for (uint32_t word : state_) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      hex.push_back(kHex[(word >> shift) & 0xF]);
    }
  }
  return hex;
}

std::string Sha256Hex(std::string_view data) {
  Sha256 hash;
  hash.Update(data);
  return hash.FinishHex();
}

}  // namespace philly
