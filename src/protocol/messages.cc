#include "src/protocol/messages.h"

#include <algorithm>
#include <array>
#include <concepts>
#include <type_traits>
#include <utility>

#include "src/protocol/wire.h"

namespace slim {

namespace {

constexpr size_t kAlternatives = std::variant_size_v<MessageBody>;

// Each MessageBody alternative's type tag, in variant order.
constexpr MessageType kTypeOf[] = {
    MessageType::kSet,              MessageType::kBitmap,           MessageType::kFill,
    MessageType::kCopy,             MessageType::kCscs,             MessageType::kKeyEvent,
    MessageType::kMouseEvent,       MessageType::kStatus,           MessageType::kNack,
    MessageType::kSessionAttach,    MessageType::kSessionDetach,    MessageType::kBandwidthRequest,
    MessageType::kBandwidthGrant,   MessageType::kAudio,            MessageType::kPing,
    MessageType::kPong,             MessageType::kSessionRelease,   MessageType::kCheckpointChunk,
    MessageType::kMigrateBegin,     MessageType::kMigrateCommit,    MessageType::kMigrateAbort,
};
static_assert(std::size(kTypeOf) == kAlternatives);

// DisplayCommand's alternatives open MessageBody in the same order, so a command's variant
// index is its message's, and its CommandType is the same tag.
static_assert([]<size_t... I>(std::index_sequence<I...>) {
  return (std::is_same_v<std::variant_alternative_t<I, DisplayCommand>,
                         std::variant_alternative_t<I, MessageBody>> && ...);
}(std::make_index_sequence<std::variant_size_v<DisplayCommand>>()));

// `Is<T> auto& m` binds a T or a const T: a reader fills the fields, a writer or sizer
// reads them.
template <typename M, typename T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

// The wire format: every message's fields in wire order. `io(a, b, ...)` takes scalars at
// their declared width, little-endian; bool and the enums are one byte. `io.Tail` is the
// rest of the payload, `io.Counted` a u32 count and then that many bytes. `io.Require` is a
// rule the reader enforces. Every payload byte belongs to a field.
void Fields(auto& io, Is<Rect> auto& r) { io(r.x, r.y, r.w, r.h); }

void Fields(auto& io, Is<SetCommand> auto& m) {
  Fields(io, m.dst);
  io.Tail(m.rgb);
}
void Fields(auto& io, Is<BitmapCommand> auto& m) {
  Fields(io, m.dst);
  io(m.fg, m.bg);
  io.Tail(m.bits);
}
void Fields(auto& io, Is<FillCommand> auto& m) {
  Fields(io, m.dst);
  io(m.color);
}
void Fields(auto& io, Is<CopyCommand> auto& m) {
  io(m.src_x, m.src_y);
  Fields(io, m.dst);
}
void Fields(auto& io, Is<CscsCommand> auto& m) {
  io(m.src_w, m.src_h);
  Fields(io, m.dst);
  io(m.depth);
  io.Tail(m.payload);
}
void Fields(auto& io, Is<KeyEventMsg> auto& m) { io(m.keycode, m.pressed); }
void Fields(auto& io, Is<MouseEventMsg> auto& m) { io(m.x, m.y, m.buttons, m.is_motion); }
void Fields(auto& io, Is<StatusMsg> auto& m) { io(m.code, m.last_seq_seen); }
void Fields(auto& io, Is<NackMsg> auto& m) { io(m.first_seq, m.last_seq); }
void Fields(auto& io, Is<SessionAttachMsg> auto& m) { io(m.card_id); }
void Fields(auto& io, Is<SessionDetachMsg> auto& m) { io(m.card_id); }
void Fields(auto& io, Is<BandwidthRequestMsg> auto& m) { io(m.flow_id, m.bits_per_second); }
void Fields(auto& io, Is<BandwidthGrantMsg> auto& m) {
  io(m.flow_id, m.bits_per_second, m.total_bps);
}
void Fields(auto& io, Is<AudioMsg> auto& m) {
  io(m.sample_rate);
  io.Counted(m.samples);
}
void Fields(auto& io, Is<PingMsg> auto& m) { io(m.payload); }
void Fields(auto& io, Is<PongMsg> auto& m) { io(m.payload); }
void Fields(auto& io, Is<SessionReleaseMsg> auto& m) { io(m.reason); }
void Fields(auto& io, Is<CheckpointChunkMsg> auto& m) {
  io(m.epoch, m.round, m.index, m.count, m.offset);
  io.Tail(m.data);
  // A chunk outside its own round's chunk table is corrupt even if every byte read cleanly.
  io.Require(m.count != 0 && m.index < m.count);
}
void Fields(auto& io, Is<MigrateBeginMsg> auto& m) {
  io(m.epoch, m.card_id, m.origin_session, m.round, m.purpose, m.chunk_count, m.total_bytes);
}
void Fields(auto& io, Is<MigrateCommitMsg> auto& m) {
  io(m.epoch, m.round, m.phase);
  io.Require(m.phase == 1 || m.phase == 2);
}
void Fields(auto& io, Is<MigrateAbortMsg> auto& m) { io(m.epoch, m.reason); }

// The values an enum field may carry; the reader rejects any other byte.
bool Known(CscsDepth d) {
  return d == CscsDepth::k16 || d == CscsDepth::k12 || d == CscsDepth::k8 ||
         d == CscsDepth::k6 || d == CscsDepth::k5;
}
bool Known(ReleaseReason r) {
  return r >= ReleaseReason::kHotdesk && r <= ReleaseReason::kMigrated;
}
bool Known(MigratePurpose p) {
  return p == MigratePurpose::kHandoff || p == MigratePurpose::kStandby;
}
bool Known(MigrateAbortReason r) {
  return r >= MigrateAbortReason::kTimeout && r <= MigrateAbortReason::kShutdown;
}

template <typename T>
concept WireScalar = (std::is_arithmetic_v<T> || std::is_enum_v<T>) &&
                     (sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);

// Counts the bytes a field list occupies.
struct Sizer {
  size_t bytes = 0;

  void operator()(const WireScalar auto&... fields) { bytes += (sizeof(fields) + ...); }
  void Tail(const std::vector<uint8_t>& data) { bytes += data.size(); }
  void Counted(const std::vector<uint8_t>& data) { bytes += 4 + data.size(); }
  void Require(bool /*rule*/) {}
};

// Appends a field list's bytes.
struct Writer {
  ByteWriter& w;

  void operator()(const WireScalar auto&... fields) { (Put(fields), ...); }
  void Tail(const std::vector<uint8_t>& data) { w.Bytes(data); }
  void Counted(const std::vector<uint8_t>& data) {
    w.U32(static_cast<uint32_t>(data.size()));
    w.Bytes(data);
  }
  void Require(bool /*rule*/) {}

 private:
  template <typename T>
  void Put(T v) {
    const auto u = static_cast<uint64_t>(v);
    if constexpr (sizeof(T) == 1) {
      w.U8(static_cast<uint8_t>(u));
    } else if constexpr (sizeof(T) == 4) {
      w.U32(static_cast<uint32_t>(u));
    } else {
      w.U64(u);
    }
  }
};

// Fills a field list from one whole payload.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> payload) : r_(payload) {}

  void operator()(WireScalar auto&... fields) { (Get(fields), ...); }
  void Tail(std::vector<uint8_t>& data) { data = r_.Bytes(r_.remaining()); }
  void Counted(std::vector<uint8_t>& data) { data = r_.Bytes(r_.U32()); }
  void Require(bool rule) { rules_hold_ = rules_hold_ && rule; }

  // Every field read in bounds, every rule held, and no payload byte was left over.
  bool Done() const { return rules_hold_ && r_.ok() && r_.remaining() == 0; }

 private:
  template <typename T>
  void Get(T& v) {
    uint64_t u = 0;
    if constexpr (sizeof(T) == 1) {
      u = r_.U8();
    } else if constexpr (sizeof(T) == 4) {
      u = r_.U32();
    } else {
      u = r_.U64();
    }
    if constexpr (std::is_same_v<T, bool>) {
      v = u != 0;
    } else {
      v = static_cast<T>(u);
    }
    if constexpr (std::is_enum_v<T>) {
      Require(Known(v));
    }
  }

  ByteReader r_;
  bool rules_hold_ = true;
};

// Bytes a message occupies on the wire: the header plus its body's field list.
template <typename Variant>
size_t WireBytes(const Variant& body) {
  const auto payload_bytes = [](const auto& m) {
    Sizer io;
    Fields(io, m);
    return io.bytes;
  };
  return kMessageHeaderBytes + std::visit(payload_bytes, body);
}

// Replaces `body` with alternative I read from `payload`; false if the payload is not
// exactly one valid message of that kind.
template <size_t I>
bool ReadAs(std::span<const uint8_t> payload, MessageBody& body) {
  Reader io(payload);
  Fields(io, body.emplace<I>());
  return io.Done();
}

constexpr auto kReaders = []<size_t... I>(std::index_sequence<I...>) {
  return std::array{&ReadAs<I>...};
}(std::make_index_sequence<kAlternatives>());

bool ReadFields(MessageType type, std::span<const uint8_t> payload, MessageBody& body) {
  const auto* it = std::find(std::begin(kTypeOf), std::end(kTypeOf), type);
  return it != std::end(kTypeOf) && kReaders[it - std::begin(kTypeOf)](payload, body);
}

}  // namespace

CommandType TypeOf(const DisplayCommand& cmd) {
  return static_cast<CommandType>(kTypeOf[cmd.index()]);
}

size_t WireSize(const DisplayCommand& cmd) { return WireBytes(cmd); }

MessageType TypeOfMessage(const Message& msg) { return kTypeOf[msg.body.index()]; }

std::optional<MessageBody> ParseMessageBody(MessageType type,
                                            std::span<const uint8_t> payload) {
  MessageBody body;
  if (!ReadFields(type, payload, body)) {
    return std::nullopt;
  }
  return body;
}

std::vector<uint8_t> SerializeMessage(const Message& msg) {
  const size_t size = MessageWireSize(msg);
  ByteWriter w;
  w.Reserve(size);
  w.U8(kMessageMagic);
  w.U8(static_cast<uint8_t>(TypeOfMessage(msg)));
  w.U16(0);
  w.U32(msg.session_id);
  w.U64(msg.seq);
  w.U32(static_cast<uint32_t>(size - kMessageHeaderBytes));
  std::visit(
      [&w](const auto& m) {
        Writer io{w};
        Fields(io, m);
      },
      msg.body);
  return w.Take();
}

std::optional<Message> ParseMessage(std::span<const uint8_t> data) {
  ByteReader r(data);
  const uint8_t magic = r.U8();
  const auto type = static_cast<MessageType>(r.U8());
  r.U16();  // reserved
  Message msg;
  msg.session_id = r.U32();
  msg.seq = r.U64();
  const uint32_t payload_len = r.U32();
  // The payload is exactly the bytes after the header.
  if (!r.ok() || magic != kMessageMagic || r.remaining() != payload_len ||
      !ReadFields(type, r.Rest(), msg.body)) {
    return std::nullopt;
  }
  return msg;
}

size_t MessageWireSize(const Message& msg) { return BodyWireSize(msg.body); }

size_t BodyWireSize(const MessageBody& body) { return WireBytes(body); }

}  // namespace slim
