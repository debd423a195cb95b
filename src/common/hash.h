// The one 64-bit mix behind every deterministic per-entity stream: the
// splitmix64 finalizer (Steele, Lea and Flood, "Fast splittable pseudorandom
// number generators", 2014). Header-inline so the per-minute sampling loops
// inline it.

#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstdint>

namespace philly {

constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// One splitmix64 step: advances `state` by the golden-ratio increment and
// returns the mix of the new state.
constexpr uint64_t SplitMix64(uint64_t& state) {
  return Mix64(state += 0x9E3779B97F4A7C15ull);
}

}  // namespace philly

#endif  // SRC_COMMON_HASH_H_
