// Object checksums (docs/INTEGRITY.md).
//
// Every stored/replicated object version carries a 64-bit FNV-1a checksum
// bound to (key, version, payload). Binding the key and version — not just
// the payload — means a checksum cannot validate a payload that was swapped
// between keys or replayed under a different version, only the exact object
// version it was computed for.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.h"

namespace wiera {

// Checksum of one object version. `version` is 0 for a fresh client PUT
// (the version is not yet allocated); the storing replica recomputes the
// binding checksum once the version is known.
inline uint64_t object_checksum(std::string_view key, int64_t version,
                                std::string_view payload) {
  uint64_t h = fnv1a64(key.data(), key.size());
  // Separator keeps ("ab", "c") distinct from ("a", "bc").
  const uint8_t sep = 0xFF;
  h = fnv1a64(h, &sep, 1);
  h = fnv1a64_u64(h, static_cast<uint64_t>(version));
  return fnv1a64(h, payload.data(), payload.size());
}

inline uint64_t object_checksum(std::string_view key, int64_t version,
                                const Blob& payload) {
  return object_checksum(key, version, payload.view());
}

}  // namespace wiera
