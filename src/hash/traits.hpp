// Hash policy types binding the RBC search templates to a concrete seed hash.
//
// The search engine (Algorithm 1) is templated on a SeedHash policy so the
// compiler can inline the hash into the search loop — the property that makes
// RBC-SALTED "algorithm agnostic" at the protocol level while staying
// monomorphized (zero indirect calls) in the hot loop.
#pragma once

#include <concepts>
#include <string_view>

#include "bits/seed256.hpp"
#include "hash/keccak.hpp"
#include "hash/sha1.hpp"

namespace rbc::hash {

template <typename H>
concept SeedHash = requires(const H& h, const Seed256& s) {
  typename H::digest_type;
  { h(s) } -> std::same_as<typename H::digest_type>;
  { H::name() } -> std::convertible_to<std::string_view>;
};

/// SHA-1 over the 32-byte seed encoding (fixed-input fast path).
struct Sha1SeedHash {
  using digest_type = Digest160;
  static constexpr std::string_view name() { return "SHA-1"; }
  digest_type operator()(const Seed256& s) const noexcept {
    return sha1_seed(s);
  }
};

/// SHA3-256 over the 32-byte seed encoding (§3.2.2 fixed-padding fast path).
struct Sha3SeedHash {
  using digest_type = Digest256;
  static constexpr std::string_view name() { return "SHA-3"; }
  digest_type operator()(const Seed256& s) const noexcept {
    return sha3_256_seed(s);
  }
};

static_assert(SeedHash<Sha1SeedHash>);
static_assert(SeedHash<Sha3SeedHash>);

/// Runtime selector used at protocol boundaries (wire messages, benches).
enum class HashAlgo : u8 { kSha1 = 1, kSha3_256 = 3 };

constexpr std::string_view to_string(HashAlgo a) {
  switch (a) {
    case HashAlgo::kSha1:
      return "SHA-1";
    case HashAlgo::kSha3_256:
      return "SHA-3";
  }
  return "?";
}

constexpr std::size_t digest_size(HashAlgo a) {
  return a == HashAlgo::kSha1 ? 20 : 32;
}

}  // namespace rbc::hash
