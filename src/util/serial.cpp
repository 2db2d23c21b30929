#include "util/serial.h"

namespace fgp::util {

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

// Whole-word loads through memcpy: no alignment requirement, and the
// little-endian static_assert in serial.h fixes the byte order.
std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kPrime2, 31) * kPrime1;
}

std::uint64_t merge_lane(std::uint64_t h, std::uint64_t lane) {
  return (h ^ lane_round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t xxh64(const std::uint8_t* data, std::size_t n) {
  // Indices rather than pointer arithmetic, so (nullptr, 0) never offsets
  // a null pointer.
  std::size_t i = 0;
  std::uint64_t h = kPrime5;
  if (n >= 32) {
    // Four independent lanes over 32-byte stripes: the multiplies of one
    // stripe do not wait on each other.
    std::uint64_t v1 = kPrime1 + kPrime2, v2 = kPrime2, v3 = 0,
                  v4 = 0 - kPrime1;
    for (; n - i >= 32; i += 32) {
      v1 = lane_round(v1, load_u64(data + i));
      v2 = lane_round(v2, load_u64(data + i + 8));
      v3 = lane_round(v3, load_u64(data + i + 16));
      v4 = lane_round(v4, load_u64(data + i + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_lane(merge_lane(merge_lane(merge_lane(h, v1), v2), v3), v4);
  }
  h += n;
  for (; n - i >= 8; i += 8)
    h = std::rotl(h ^ lane_round(0, load_u64(data + i)), 27) * kPrime1 +
        kPrime4;
  if (n - i >= 4) {
    h = std::rotl(h ^ load_u32(data + i) * kPrime1, 23) * kPrime2 + kPrime3;
    i += 4;
  }
  for (; i < n; ++i) h = std::rotl(h ^ data[i] * kPrime5, 11) * kPrime1;
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  return h ^ (h >> 32);
}

}  // namespace fgp::util
