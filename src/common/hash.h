#ifndef UCTR_COMMON_HASH_H_
#define UCTR_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace uctr {

/// \brief Seed of every content identity in the repo: codec fingerprints
/// (and so every `table_ref`), the codec and WAL checksums, and the
/// result cache keys.
///
/// This is NOT the FNV-1a 64 offset basis: the first copy of the loop
/// dropped a digit of 14695981039346656037, and the value has since been
/// written into every store directory, WAL and handed-out `table_ref`.
/// Changing it would orphan all of them, so it stays.
inline constexpr uint64_t kContentHashSeed = 1469598103934665603ull;

/// \brief The true FNV-1a 64 offset basis. The text MANIFEST fingerprints
/// of generation checkpoints and self-training runs use it.
inline constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;

/// \brief 64-bit FNV-1a over `bytes`, starting from `seed`. Passing the
/// result of one call as the seed of the next hashes the concatenation,
/// so multi-part identities stream without building a buffer.
constexpr uint64_t Fnv1a64(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// \brief The splitmix64 finalizer: a bijective avalanche mix of 64 bits.
constexpr uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace uctr

#endif  // UCTR_COMMON_HASH_H_
