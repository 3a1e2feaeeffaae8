#pragma once

/// The project-wide content hash (FNV-1a 64) and its fixed-width hex
/// rendering. Every on-disk image, manifest row, spool part and wire row
/// is identified through these two functions.

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

namespace ulpsync::util {

/// FNV-1a 64 offset basis: the seed of an unchained hash.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

/// FNV-1a 64 of `bytes`. Passing a previous result as `seed` continues that
/// hash, so a value hashed in pieces equals the hash of the concatenation.
[[nodiscard]] inline std::uint64_t fnv1a64(
    std::span<const std::uint8_t> bytes, std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t hash = seed;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// FNV-1a 64 of the bytes of `text`.
[[nodiscard]] inline std::uint64_t fnv1a64(
    std::string_view text, std::uint64_t seed = kFnvOffsetBasis) {
  return fnv1a64({reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()},
                 seed);
}

/// `value` as 16 lowercase hex digits, zero-padded.
[[nodiscard]] inline std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace ulpsync::util
