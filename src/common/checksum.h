// Object checksums (docs/INTEGRITY.md).
//
// Every stored/replicated object version carries a 64-bit checksum bound
// to (key, version, payload): XXH64 over the payload, seeded with a FNV-1a
// fold of the key and version. Binding the key and version — not just the
// payload — means a checksum cannot validate a payload that was swapped
// between keys or replayed under a different version, only the exact
// object version it was computed for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/bytes.h"

namespace wiera {

// XXH64 (the published xxHash 64-bit spec): four independent 64-bit lanes
// over 32-byte stripes hash a payload a word at a time. Reads little-endian
// words on any host and at any alignment.
uint64_t xxh64(const void* data, size_t len, uint64_t seed);

// Checksum of one object version. `version` is 0 for a fresh client PUT
// (the version is not yet allocated); the storing replica recomputes the
// binding checksum once the version is known.
uint64_t object_checksum(std::string_view key, int64_t version,
                         std::string_view payload);

inline uint64_t object_checksum(std::string_view key, int64_t version,
                                const Blob& payload) {
  return object_checksum(key, version, payload.view());
}

}  // namespace wiera
