#include "src/protocol/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace slim {

namespace {

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

uint32_t LoadLe32(const uint8_t* p) {
  if constexpr (kLittleEndianHost) {
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  }
}

uint64_t LoadLe64(const uint8_t* p) {
  if constexpr (kLittleEndianHost) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return static_cast<uint64_t>(LoadLe32(p)) | (static_cast<uint64_t>(LoadLe32(p + 4)) << 32);
  }
}

// One FrameChecksum32 lane step; a bijection in both h and w.
uint32_t ChecksumStep(uint32_t h, uint32_t w) {
  return std::rotl(h ^ w, 13) * 0x9e3779b1u;
}

}  // namespace

void ByteWriter::U16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::Bytes(std::span<const uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::U32s(std::span<const uint32_t> values) {
  if constexpr (kLittleEndianHost) {
    const auto* bytes = reinterpret_cast<const uint8_t*>(values.data());
    buf_.insert(buf_.end(), bytes, bytes + values.size_bytes());
  } else {
    for (const uint32_t v : values) {
      U32(v);
    }
  }
}

bool ByteReader::Need(size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t ByteReader::U8() {
  if (!Need(1)) {
    return 0;
  }
  return data_[pos_++];
}

uint16_t ByteReader::U16() {
  if (!Need(2)) {
    return 0;
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_]) | (static_cast<uint16_t>(data_[pos_ + 1]) << 8);
  pos_ += 2;
  return v;
}

uint32_t ByteReader::U32() {
  if (!Need(4)) {
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t ByteReader::U64() {
  if (!Need(8)) {
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

void ByteReader::U32s(std::span<uint32_t> out) {
  if (!Need(out.size_bytes())) {
    std::fill(out.begin(), out.end(), 0);
    return;
  }
  if constexpr (kLittleEndianHost) {
    if (!out.empty()) {
      std::memcpy(out.data(), data_.data() + pos_, out.size_bytes());
    }
    pos_ += out.size_bytes();
  } else {
    for (uint32_t& v : out) {
      v = U32();
    }
  }
}

std::vector<uint8_t> ByteReader::Bytes(size_t n) {
  const std::span<const uint8_t> bytes = View(n);
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

std::span<const uint8_t> ByteReader::View(size_t n) {
  if (!Need(n)) {
    return {};
  }
  const std::span<const uint8_t> out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

uint32_t FrameChecksum32(uint8_t magic, std::span<const uint8_t> covered) {
  // Distinct seeds keep lanes that see equal words from cancelling in the fold.
  uint32_t h0 = 0x6a09e667u;
  uint32_t h1 = 0xbb67ae85u;
  uint32_t h2 = 0x3c6ef372u;
  uint32_t h3 = 0xa54ff53au;
  uint32_t h4 = 0x510e527fu;
  uint32_t h5 = 0x9b05688cu;
  uint32_t h6 = 0x1f83d9abu;
  uint32_t h7 = 0x5be0cd19u;
  const uint8_t* p = covered.data();
  const size_t n = covered.size();
  size_t i = 0;
  // Word k of each 32-byte block goes to lane k. Each 8-byte load feeds two lanes: written
  // as eight identical 4-byte steps, the loop gets vectorized for SSE2, which has no 32-bit
  // lane multiply and emulates it with a shift-add chain at half this speed.
  for (; i + 32 <= n; i += 32) {
    const uint64_t w01 = LoadLe64(p + i);
    const uint64_t w23 = LoadLe64(p + i + 8);
    const uint64_t w45 = LoadLe64(p + i + 16);
    const uint64_t w67 = LoadLe64(p + i + 24);
    h0 = ChecksumStep(h0, static_cast<uint32_t>(w01));
    h1 = ChecksumStep(h1, static_cast<uint32_t>(w01 >> 32));
    h2 = ChecksumStep(h2, static_cast<uint32_t>(w23));
    h3 = ChecksumStep(h3, static_cast<uint32_t>(w23 >> 32));
    h4 = ChecksumStep(h4, static_cast<uint32_t>(w45));
    h5 = ChecksumStep(h5, static_cast<uint32_t>(w45 >> 32));
    h6 = ChecksumStep(h6, static_cast<uint32_t>(w67));
    h7 = ChecksumStep(h7, static_cast<uint32_t>(w67 >> 32));
  }
  // The last 0-7 whole words continue in lanes 0, 1, ...; a 1-3 byte tail, zero-padded,
  // is one more word in the next lane.
  uint32_t lanes[8] = {h0, h1, h2, h3, h4, h5, h6, h7};
  size_t lane = 0;
  for (; i + 4 <= n; i += 4, ++lane) {
    lanes[lane] = ChecksumStep(lanes[lane], LoadLe32(p + i));
  }
  if (i < n) {
    uint8_t tail[4] = {};
    std::memcpy(tail, p + i, n - i);
    lanes[lane] = ChecksumStep(lanes[lane], LoadLe32(tail));
  }
  uint32_t h = static_cast<uint32_t>(n) ^ (static_cast<uint32_t>(magic) << 24);
  for (const uint32_t v : lanes) {
    h ^= v;
  }
  // murmur3's fmix32: a bijective avalanche, so distinct folds stay distinct checksums.
  h ^= h >> 16;
  h *= 0x85ebca6bu;
  h ^= h >> 13;
  h *= 0xc2b2ae35u;
  h ^= h >> 16;
  return h;
}

}  // namespace slim
