#pragma once
// Stable (process-independent) string hashing.  Used for feature hashing and
// for deriving per-entity RNG seeds; never use std::hash for anything that
// must be reproducible across runs or platforms.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bellamy::util {

inline constexpr std::uint64_t kFnv1a64Seed = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over raw bytes, chainable via `seed` for multi-part hashes
/// (parameter stamps, wire checksums).
inline std::uint64_t fnv1a64_bytes(const void* data, std::size_t len,
                                   std::uint64_t seed = kFnv1a64Seed) {
  std::uint64_t h = seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// 64-bit FNV-1a.
constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = kFnv1a64Seed;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace bellamy::util
