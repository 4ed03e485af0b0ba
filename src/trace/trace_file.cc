#include "src/trace/trace_file.h"

#include <cstdio>

#include "src/protocol/wire.h"

namespace slim {

namespace {

constexpr char kLogMagic[8] = {'S', 'L', 'I', 'M', 'T', 'R', 'C', '1'};
constexpr char kServiceMagic[8] = {'S', 'L', 'I', 'M', 'S', 'V', 'C', '1'};
// A ServiceRecord on disk: three times, type and padding, pixels, wire bytes, seq.
constexpr size_t kServiceRecordBytes = 3 * 8 + 8 + 3 * 8;

void WriteMagic(ByteWriter& w, const char magic[8]) {
  for (int i = 0; i < 8; ++i) {
    w.U8(static_cast<uint8_t>(magic[i]));
  }
}

bool CheckMagic(ByteReader& r, const char magic[8]) {
  for (int i = 0; i < 8; ++i) {
    if (r.U8() != static_cast<uint8_t>(magic[i])) {
      return false;
    }
  }
  return r.ok();
}

}  // namespace

std::vector<uint8_t> SerializeLog(const ProtocolLog& log) {
  ByteWriter w;
  WriteMagic(w, kLogMagic);
  w.U64(log.entries().size());
  for (const LogEntry& e : log.entries()) {
    w.I64(e.time);
    w.U8(static_cast<uint8_t>(e.kind));
    w.U8(e.is_key ? 1 : 0);
    w.U8(static_cast<uint8_t>(e.type));
    w.U8(0);  // padding
    w.I64(e.pixels);
    w.I64(e.wire_bytes);
    w.I64(e.uncompressed_bytes);
    w.I64(e.x_bytes);
  }
  return w.Take();
}

std::optional<ProtocolLog> ParseLog(std::span<const uint8_t> data) {
  ByteReader r(data);
  if (!CheckMagic(r, kLogMagic)) {
    return std::nullopt;
  }
  const uint64_t count = r.U64();
  ProtocolLog log;
  for (uint64_t i = 0; i < count; ++i) {
    LogEntry e;
    e.time = r.I64();
    const uint8_t kind = r.U8();
    e.is_key = r.U8() != 0;
    const uint8_t type = r.U8();
    r.U8();  // padding
    e.pixels = r.I64();
    e.wire_bytes = r.I64();
    e.uncompressed_bytes = r.I64();
    e.x_bytes = r.I64();
    if (!r.ok() || kind > static_cast<uint8_t>(LogKind::kXRequest) || type < 1 || type > 5) {
      return std::nullopt;
    }
    e.kind = static_cast<LogKind>(kind);
    e.type = static_cast<CommandType>(type);
    switch (e.kind) {
      case LogKind::kInput:
        log.RecordInput(e.time, e.is_key);
        break;
      case LogKind::kXRequest:
        log.RecordXRequest(e.time, e.x_bytes);
        break;
      case LogKind::kDisplay:
        log.RecordEntry(e);
        break;
    }
  }
  if (r.remaining() != 0) {
    return std::nullopt;
  }
  return log;
}

std::vector<uint8_t> SerializeServiceLog(const std::vector<ServiceRecord>& log) {
  ByteWriter w;
  WriteMagic(w, kServiceMagic);
  w.U64(log.size());
  for (const ServiceRecord& rec : log) {
    w.I64(rec.arrival);
    w.I64(rec.start);
    w.I64(rec.completion);
    w.U8(static_cast<uint8_t>(rec.type));
    w.U8(0);
    w.U16(0);
    w.U32(0);  // padding to 8-byte alignment of the next field
    w.I64(rec.pixels);
    w.U64(rec.wire_bytes);
    w.U64(rec.seq);
  }
  return w.Take();
}

std::optional<std::vector<ServiceRecord>> ParseServiceLog(std::span<const uint8_t> data) {
  ByteReader r(data);
  if (!CheckMagic(r, kServiceMagic)) {
    return std::nullopt;
  }
  const uint64_t count = r.U64();
  // Reserve only for records the bytes can hold: a count is not trusted until checked.
  if (!r.ok() || count > r.remaining() / kServiceRecordBytes) {
    return std::nullopt;
  }
  std::vector<ServiceRecord> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ServiceRecord rec;
    rec.arrival = r.I64();
    rec.start = r.I64();
    rec.completion = r.I64();
    const uint8_t type = r.U8();
    r.U8();
    r.U16();
    r.U32();
    rec.pixels = r.I64();
    rec.wire_bytes = r.U64();
    rec.seq = r.U64();
    if (!r.ok() || type < 1 || type > 5) {
      return std::nullopt;
    }
    rec.type = static_cast<CommandType>(type);
    out.push_back(rec);
  }
  if (r.remaining() != 0) {
    return std::nullopt;
  }
  return out;
}

bool WriteFile(const std::string& path, std::span<const uint8_t> data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(data.data(), 1, data.size(), f);
  const bool ok = std::fclose(f) == 0 && written == data.size();
  return ok;
}

std::optional<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return std::nullopt;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> data(static_cast<size_t>(size > 0 ? size : 0));
  const size_t read = std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (read != data.size()) {
    return std::nullopt;
  }
  return data;
}

}  // namespace slim
