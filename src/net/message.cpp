#include "net/message.hpp"

#include <array>
#include <cstring>
#include <utility>

namespace rbc::net {

namespace {

enum Tag : u8 {
  kHandshake = 0x01,
  kChallenge = 0x02,
  kDigest = 0x03,
  kResult = 0x04,
  kSeqFrame = 0x05,  // sequenced retransmit envelope (never nested)
};

/// Longest payload any message can legally carry (a SHA3-256 digest). Length
/// fields are bounds-checked against this BEFORE any enum interpretation so
/// a frame that is both oversized and garbage reports the size problem.
constexpr u32 kMaxDigestLen = 32;

void put_u32(Bytes& out, u32 v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

void put_u64(Bytes& out, u64 v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

void put_f64(Bytes& out, double v) {
  u64 bits;
  std::memcpy(&bits, &v, 8);
  put_u64(out, bits);
}

void put_seed(Bytes& out, const Seed256& s) {
  const auto b = s.to_bytes();
  out.insert(out.end(), b.begin(), b.end());
}

/// Cursor with bounds checking; every read can fail with kTruncated.
class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}

  bool read_u8(u8& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = data_[pos_++];
    return true;
  }
  bool read_u32(u32& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<u32>(data_[pos_++]) << (8 * i);
    return true;
  }
  bool read_u64(u64& v) {
    if (pos_ + 8 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(data_[pos_++]) << (8 * i);
    return true;
  }
  bool read_f64(double& v) {
    u64 bits;
    if (!read_u64(bits)) return false;
    std::memcpy(&v, &bits, 8);
    return true;
  }
  bool read_seed(Seed256& s) {
    if (pos_ + Seed256::kBytes > data_.size()) return false;
    s = Seed256::from_bytes(data_.subspan(pos_, Seed256::kBytes));
    pos_ += Seed256::kBytes;
    return true;
  }
  bool read_bytes(Bytes& out, std::size_t n) {
    if (pos_ + n > data_.size()) return false;
    out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string to_string(WireError e) {
  switch (e) {
    case WireError::kEmptyFrame:
      return "empty frame";
    case WireError::kUnknownTag:
      return "unknown message tag";
    case WireError::kTruncated:
      return "truncated frame";
    case WireError::kTrailingBytes:
      return "trailing bytes after message";
    case WireError::kBadEnumValue:
      return "invalid enumeration value";
    case WireError::kBadDigestLength:
      return "digest length does not match hash algorithm";
    case WireError::kBadChecksum:
      return "frame checksum mismatch";
  }
  return "?";
}

Bytes serialize(const Message& msg) {
  Bytes out;
  std::visit(
      [&out](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, HandshakeRequest>) {
          out.push_back(kHandshake);
          put_u64(out, m.device_id);
          out.push_back(static_cast<u8>(m.hash_algo));
          out.push_back(static_cast<u8>(m.keygen_algo));
        } else if constexpr (std::is_same_v<T, Challenge>) {
          out.push_back(kChallenge);
          put_u32(out, m.puf_address);
          out.push_back(m.tapki_enabled ? 1 : 0);
          put_seed(out, m.stable_mask);
          out.push_back(m.requested_noise);
        } else if constexpr (std::is_same_v<T, DigestSubmission>) {
          out.push_back(kDigest);
          out.push_back(static_cast<u8>(m.hash_algo));
          put_u32(out, static_cast<u32>(m.digest.size()));
          out.insert(out.end(), m.digest.begin(), m.digest.end());
        } else if constexpr (std::is_same_v<T, AuthResult>) {
          out.push_back(kResult);
          out.push_back(m.authenticated ? 1 : 0);
          put_u32(out, static_cast<u32>(m.found_distance));
          put_f64(out, m.search_seconds);
          out.push_back(m.timed_out ? 1 : 0);
        }
      },
      msg);
  return out;
}

Expected<Message, WireError> deserialize(ByteSpan frame) {
  if (frame.empty()) return unexpected(WireError::kEmptyFrame);
  Reader r(frame.subspan(1));
  switch (frame[0]) {
    case kHandshake: {
      HandshakeRequest m;
      u8 hash = 0, keygen = 0;
      if (!r.read_u64(m.device_id) || !r.read_u8(hash) || !r.read_u8(keygen))
        return unexpected(WireError::kTruncated);
      if (!r.at_end()) return unexpected(WireError::kTrailingBytes);
      if (hash != static_cast<u8>(hash::HashAlgo::kSha1) &&
          hash != static_cast<u8>(hash::HashAlgo::kSha3_256))
        return unexpected(WireError::kBadEnumValue);
      if (keygen > static_cast<u8>(crypto::KeygenAlgo::kWots))
        return unexpected(WireError::kBadEnumValue);
      m.hash_algo = static_cast<hash::HashAlgo>(hash);
      m.keygen_algo = static_cast<crypto::KeygenAlgo>(keygen);
      return Expected<Message, WireError>(std::in_place, std::move(m));
    }
    case kChallenge: {
      Challenge m;
      u8 tapki = 0;
      if (!r.read_u32(m.puf_address) || !r.read_u8(tapki) ||
          !r.read_seed(m.stable_mask) || !r.read_u8(m.requested_noise))
        return unexpected(WireError::kTruncated);
      if (!r.at_end()) return unexpected(WireError::kTrailingBytes);
      if (tapki > 1) return unexpected(WireError::kBadEnumValue);
      m.tapki_enabled = tapki != 0;
      return Expected<Message, WireError>(std::in_place, std::move(m));
    }
    case kDigest: {
      DigestSubmission m;
      u8 hash = 0;
      u32 len = 0;
      if (!r.read_u8(hash) || !r.read_u32(len))
        return unexpected(WireError::kTruncated);
      // Bounds-check the length field BEFORE interpreting the enum byte: an
      // attacker-controlled length must never gate behind a value check
      // (oversized/truncated payloads report as such even when the enum byte
      // is also garbage, and no read is attempted past the buffer).
      if (len > kMaxDigestLen) return unexpected(WireError::kBadDigestLength);
      if (!r.read_bytes(m.digest, len)) return unexpected(WireError::kTruncated);
      if (!r.at_end()) return unexpected(WireError::kTrailingBytes);
      if (hash != static_cast<u8>(hash::HashAlgo::kSha1) &&
          hash != static_cast<u8>(hash::HashAlgo::kSha3_256))
        return unexpected(WireError::kBadEnumValue);
      m.hash_algo = static_cast<hash::HashAlgo>(hash);
      if (len != hash::digest_size(m.hash_algo))
        return unexpected(WireError::kBadDigestLength);
      return Expected<Message, WireError>(std::in_place, std::move(m));
    }
    case kResult: {
      AuthResult m;
      u8 auth = 0, timeout = 0;
      u32 dist = 0;
      if (!r.read_u8(auth) || !r.read_u32(dist) ||
          !r.read_f64(m.search_seconds) || !r.read_u8(timeout))
        return unexpected(WireError::kTruncated);
      if (!r.at_end()) return unexpected(WireError::kTrailingBytes);
      if (auth > 1 || timeout > 1) return unexpected(WireError::kBadEnumValue);
      m.authenticated = auth != 0;
      m.found_distance = static_cast<int>(dist);
      m.timed_out = timeout != 0;
      return Expected<Message, WireError>(std::in_place, std::move(m));
    }
    default:
      return unexpected(WireError::kUnknownTag);
  }
}

u32 crc32_ieee(ByteSpan data) {
  // Reflected CRC-32 (polynomial 0xEDB88320), table built on first use.
  static const auto table = [] {
    std::array<u32, 256> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  u32 crc = 0xFFFFFFFFu;
  for (const u8 byte : data) crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

Bytes seal_seq_frame(u32 seq, ByteSpan payload) {
  Bytes out;
  out.reserve(13 + payload.size());
  out.push_back(kSeqFrame);
  put_u32(out, seq);
  put_u32(out, static_cast<u32>(payload.size()));
  put_u32(out, crc32_ieee(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Expected<SeqFrame, WireError> open_seq_frame(ByteSpan frame) {
  if (frame.empty()) return unexpected(WireError::kEmptyFrame);
  if (frame[0] != kSeqFrame) return unexpected(WireError::kUnknownTag);
  Reader r(frame.subspan(1));
  SeqFrame sf;
  u32 len = 0, crc = 0;
  if (!r.read_u32(sf.seq) || !r.read_u32(len) || !r.read_u32(crc))
    return unexpected(WireError::kTruncated);
  // The length field is bounds-checked against the buffer before any copy;
  // a flipped length bit surfaces as truncation/trailing bytes, not a read
  // past the frame.
  if (!r.read_bytes(sf.payload, len)) return unexpected(WireError::kTruncated);
  if (!r.at_end()) return unexpected(WireError::kTrailingBytes);
  if (crc32_ieee(sf.payload) != crc) return unexpected(WireError::kBadChecksum);
  return sf;
}

}  // namespace rbc::net
