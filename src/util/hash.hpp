// Deterministic mixing functions used wherever the library needs reproducible
// pseudorandomness keyed by (seed, node, position): random tapes, shuffled ID
// assignments, random instance generators.  splitmix64-style finalizer.
//
// Also the streaming XXH64 hasher behind the snapshot payload checksum.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace volcal {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  return splitmix64(splitmix64(a) ^ (0x9e3779b97f4a7c15ull + b));
}

inline std::uint64_t mix64(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return mix64(mix64(a, b), c);
}

inline std::uint64_t mix64(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d) {
  return mix64(mix64(a, b, c), d);
}

// Uniform double in [0, 1) from a mixed word.
inline double to_unit_double(std::uint64_t word) {
  return static_cast<double>(word >> 11) * (1.0 / 9007199254740992.0);
}

// XXH64 with seed 0, as the xxHash project specifies it: four independent
// 64-bit lanes take one 32-byte stripe per step with one multiply-rotate per
// 8 bytes; a tail of < 32 bytes is buffered across update() calls, so
// feeding the input in any pieces gives the one-shot digest.  Words are read
// in native order, which is the specified little-endian one only on
// little-endian targets (the only ones the snapshot code builds on).
class Xxh64 {
 public:
  void update(std::span<const std::uint8_t> bytes) {
    const std::uint8_t* p = bytes.data();
    std::size_t len = bytes.size();
    total_ += len;
    if (buffered_ + len < kStripe) {
      if (len != 0) std::memcpy(buf_ + buffered_, p, len);
      buffered_ += len;
      return;
    }
    // The lanes stay in locals across the bulk loop: `p` may alias members.
    std::uint64_t v[4] = {v_[0], v_[1], v_[2], v_[3]};
    if (buffered_ != 0) {
      const std::size_t fill = kStripe - buffered_;
      std::memcpy(buf_ + buffered_, p, fill);
      stripe(v, buf_);
      p += fill;
      len -= fill;
    }
    for (; len >= kStripe; p += kStripe, len -= kStripe) stripe(v, p);
    std::memcpy(v_, v, sizeof v_);
    if (len != 0) std::memcpy(buf_, p, len);
    buffered_ = len;
  }

  std::uint64_t digest() const {
    std::uint64_t h;
    if (total_ >= kStripe) {
      h = std::rotl(v_[0], 1) + std::rotl(v_[1], 7) + std::rotl(v_[2], 12) +
          std::rotl(v_[3], 18);
      for (const std::uint64_t v : v_) h = (h ^ round(0, v)) * kP1 + kP4;
    } else {
      h = kSeed + kP5;
    }
    h += total_;
    const std::uint8_t* p = buf_;
    std::size_t len = buffered_;
    for (; len >= 8; p += 8, len -= 8) h = std::rotl(h ^ round(0, read64(p)), 27) * kP1 + kP4;
    if (len >= 4) {
      h = std::rotl(h ^ (read32(p) * kP1), 23) * kP2 + kP3;
      p += 4;
      len -= 4;
    }
    for (; len > 0; ++p, --len) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    return h ^ (h >> 32);
  }

 private:
  static constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
  static constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
  static constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;
  static constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;
  static constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ull;
  static constexpr std::uint64_t kSeed = 0;
  static constexpr std::size_t kStripe = 32;

  static std::uint64_t read64(const std::uint8_t* p) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
  }
  static std::uint64_t read32(const std::uint8_t* p) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
  }
  static std::uint64_t round(std::uint64_t acc, std::uint64_t input) {
    return std::rotl(acc + input * kP2, 31) * kP1;
  }
  // Unrolled by hand: with a lane loop GCC -O2 keeps the lanes on the stack.
  static void stripe(std::uint64_t (&v)[4], const std::uint8_t* p) {
    v[0] = round(v[0], read64(p));
    v[1] = round(v[1], read64(p + 8));
    v[2] = round(v[2], read64(p + 16));
    v[3] = round(v[3], read64(p + 24));
  }

  std::uint64_t v_[4] = {kSeed + kP1 + kP2, kSeed + kP2, kSeed, kSeed - kP1};
  std::uint64_t total_ = 0;
  std::uint8_t buf_[kStripe] = {};
  std::size_t buffered_ = 0;
};

}  // namespace volcal
