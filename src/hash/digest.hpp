// Fixed-size message digest value types.
#pragma once

#include <array>
#include <compare>
#include <cstring>
#include <string>

#include "common/hex.hpp"
#include "common/types.hpp"

namespace rbc::hash {

template <std::size_t N>
struct Digest {
  static constexpr std::size_t kBytes = N;

  std::array<u8, N> bytes{};

  friend bool operator==(const Digest&, const Digest&) = default;
  friend auto operator<=>(const Digest&, const Digest&) = default;

  std::string to_hex() const { return rbc::to_hex(bytes); }

  static Digest from_hex(std::string_view hex) {
    const Bytes raw = rbc::from_hex(hex);
    Digest d;
    if (raw.size() != N)
      throw std::invalid_argument("digest hex has wrong length");
    std::memcpy(d.bytes.data(), raw.data(), N);
    return d;
  }
};

using Digest160 = Digest<20>;  // SHA-1
using Digest256 = Digest<32>;  // SHA3-256

}  // namespace rbc::hash
