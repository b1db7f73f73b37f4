#include "common/checksum.h"

#include <bit>
#include <cstring>

namespace wiera {
namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

// Little-endian loads through memcpy: no alignment or aliasing assumption.
uint64_t load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

uint64_t load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

uint64_t round_lane(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

uint64_t merge_round(uint64_t acc, uint64_t lane) {
  acc ^= round_lane(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

uint64_t xxh64(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + len;
  uint64_t h;
  if (len >= 32) {
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    for (const uint8_t* const limit = end - 32; p <= limit; p += 32) {
      v1 = round_lane(v1, load64(p));
      v2 = round_lane(v2, load64(p + 8));
      v3 = round_lane(v3, load64(p + 16));
      v4 = round_lane(v4, load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += static_cast<uint64_t>(len);
  for (; end - p >= 8; p += 8) {
    h ^= round_lane(0, load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= load32(p) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= *p * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

uint64_t object_checksum(std::string_view key, int64_t version,
                         std::string_view payload) {
  uint64_t seed = fnv1a64(key.data(), key.size());
  // Separator keeps ("ab", "c") distinct from ("a", "bc").
  const uint8_t sep = 0xFF;
  seed = fnv1a64(seed, &sep, 1);
  seed = fnv1a64_u64(seed, static_cast<uint64_t>(version));
  return xxh64(payload.data(), payload.size(), seed);
}

}  // namespace wiera
