// Bounds-checked little-endian wire encoding primitives.

#ifndef SRC_PROTOCOL_WIRE_H_
#define SRC_PROTOCOL_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace slim {

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bytes(std::span<const uint8_t> data);
  // The same bytes as one U32 per element, appended in one bulk copy.
  void U32s(std::span<const uint32_t> values);

  // Pre-sizes the buffer for a writer that knows its final length.
  void Reserve(size_t bytes) { buf_.reserve(bytes); }
  size_t size() const { return buf_.size(); }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  const std::vector<uint8_t>& data() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

// Reader over a fixed buffer. Reads past the end set ok() to false and return zeros; callers
// check ok() once at the end of parsing rather than after every field.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  std::vector<uint8_t> Bytes(size_t n);
  // The next n bytes without copying them (empty past the end).
  std::span<const uint8_t> View(size_t n);
  // Fills `out` as one U32 per element, in one bulk copy (zeros past the end).
  void U32s(std::span<uint32_t> out);

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  // The not-yet-consumed tail of the buffer (without consuming it); lets framing layers
  // checksum everything that follows a header field.
  std::span<const uint8_t> Rest() const { return data_.subspan(pos_); }

 private:
  bool Need(size_t n);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// The transport's datagram checksum (src/net/transport.cc): it stamps every datagram with
// FrameChecksum32(magic, everything after the checksum field), so that corrupted or
// truncated datagrams are detected, counted and dropped instead of being parsed as
// protocol bytes (the fabric's chaos layer flips and chops bytes on purpose).
//
// Eight independent 32-bit lanes each take every eighth little-endian 4-byte word of
// `covered` (a 1-3 byte tail is zero-padded into one more word), stepping
// h = rotl32(h ^ w, 13) * odd; the lanes, the length and the magic byte are xor-folded and
// finished with murmur3's fmix32. Each lane step is a bijection in both h and w, and so is
// the finisher, so any change confined to one aligned 4-byte word of `covered`, or to the
// magic byte alone, always changes the checksum: every single-byte error is caught. Wider
// errors and truncations escape with probability about 2^-32. The lanes are independent
// multiply chains, so they run in parallel: about ten times the throughput of a chain
// that multiplies once per byte.
uint32_t FrameChecksum32(uint8_t magic, std::span<const uint8_t> covered);

}  // namespace slim

#endif  // SRC_PROTOCOL_WIRE_H_
