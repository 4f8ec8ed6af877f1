// Streaming FNV-1a content fingerprint: ReferenceSet's fingerprint of its
// text, which a `.gki` index file records and folds into its index
// fingerprint, and the file's header, payload and per-section checksums
// (io/index_io.cpp).  The hash is byte-sequential, so hashing parts with
// the previous result as seed equals hashing the concatenation —
// ReferenceSet exploits this to keep its fingerprint current across
// incremental Add() calls.
#ifndef GKGPU_UTIL_FINGERPRINT_HPP
#define GKGPU_UTIL_FINGERPRINT_HPP

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gkgpu {

inline constexpr std::uint64_t kFingerprintSeed = 0xcbf29ce484222325ull;

inline std::uint64_t FingerprintText(std::string_view text,
                                     std::uint64_t seed = kFingerprintSeed) {
  std::uint64_t h = seed;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Raw-byte variant for non-text payloads (index-file sections).
inline std::uint64_t FingerprintBytes(const void* data, std::size_t bytes,
                                      std::uint64_t seed = kFingerprintSeed) {
  return FingerprintText(
      std::string_view(static_cast<const char*>(data), bytes), seed);
}

/// Fingerprint of a persisted k-mer index: reference content, seed length
/// and on-disk format version all feed the hash, so an index built from a
/// different genome, a different k, or an incompatible serializer is
/// rejected at load time instead of producing silently wrong candidates.
inline std::uint64_t IndexFingerprint(std::uint64_t reference_fingerprint,
                                      int k, std::uint32_t format_version) {
  std::uint64_t h = reference_fingerprint;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<std::uint64_t>(k));
  mix(static_cast<std::uint64_t>(format_version));
  return h;
}

}  // namespace gkgpu

#endif  // GKGPU_UTIL_FINGERPRINT_HPP
