#include "src/protocol/messages.h"

#include "src/protocol/wire.h"
#include "src/util/check.h"

namespace slim {

namespace {

void WriteRect(ByteWriter& w, const Rect& r) {
  w.I32(r.x);
  w.I32(r.y);
  w.I32(r.w);
  w.I32(r.h);
}

Rect ReadRect(ByteReader& r) {
  Rect out;
  out.x = r.I32();
  out.y = r.I32();
  out.w = r.I32();
  out.h = r.I32();
  return out;
}

void WriteBody(ByteWriter& w, const MessageBody& body) {
  std::visit(
      [&w](const auto& b) {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, SetCommand>) {
          WriteRect(w, b.dst);
          w.Bytes(b.rgb);
        } else if constexpr (std::is_same_v<T, BitmapCommand>) {
          WriteRect(w, b.dst);
          w.U32(b.fg);
          w.U32(b.bg);
          w.Bytes(b.bits);
        } else if constexpr (std::is_same_v<T, FillCommand>) {
          WriteRect(w, b.dst);
          w.U32(b.color);
        } else if constexpr (std::is_same_v<T, CopyCommand>) {
          w.I32(b.src_x);
          w.I32(b.src_y);
          WriteRect(w, b.dst);
        } else if constexpr (std::is_same_v<T, CscsCommand>) {
          w.I32(b.src_w);
          w.I32(b.src_h);
          WriteRect(w, b.dst);
          w.U8(static_cast<uint8_t>(b.depth));
          w.Bytes(b.payload);
        } else if constexpr (std::is_same_v<T, KeyEventMsg>) {
          w.U32(b.keycode);
          w.U8(b.pressed ? 1 : 0);
        } else if constexpr (std::is_same_v<T, MouseEventMsg>) {
          w.I32(b.x);
          w.I32(b.y);
          w.U8(b.buttons);
          w.U8(b.is_motion ? 1 : 0);
        } else if constexpr (std::is_same_v<T, StatusMsg>) {
          w.U32(b.code);
          w.U64(b.last_seq_seen);
        } else if constexpr (std::is_same_v<T, NackMsg>) {
          w.U64(b.first_seq);
          w.U64(b.last_seq);
        } else if constexpr (std::is_same_v<T, SessionAttachMsg>) {
          w.U64(b.card_id);
        } else if constexpr (std::is_same_v<T, SessionDetachMsg>) {
          w.U64(b.card_id);
        } else if constexpr (std::is_same_v<T, BandwidthRequestMsg>) {
          w.U64(b.flow_id);
          w.I64(b.bits_per_second);
        } else if constexpr (std::is_same_v<T, BandwidthGrantMsg>) {
          w.U64(b.flow_id);
          w.I64(b.bits_per_second);
          w.I64(b.total_bps);
        } else if constexpr (std::is_same_v<T, AudioMsg>) {
          w.U32(b.sample_rate);
          w.U32(static_cast<uint32_t>(b.samples.size()));
          w.Bytes(b.samples);
        } else if constexpr (std::is_same_v<T, PingMsg>) {
          w.U64(b.payload);
        } else if constexpr (std::is_same_v<T, PongMsg>) {
          w.U64(b.payload);
        } else if constexpr (std::is_same_v<T, SessionReleaseMsg>) {
          w.U8(static_cast<uint8_t>(b.reason));
        } else if constexpr (std::is_same_v<T, CheckpointChunkMsg>) {
          w.U64(b.epoch);
          w.U32(b.round);
          w.U32(b.index);
          w.U32(b.count);
          w.U64(b.offset);
          w.Bytes(b.data);
        } else if constexpr (std::is_same_v<T, MigrateBeginMsg>) {
          w.U64(b.epoch);
          w.U64(b.card_id);
          w.U32(b.origin_session);
          w.U32(b.round);
          w.U8(static_cast<uint8_t>(b.purpose));
          w.U32(b.chunk_count);
          w.U64(b.total_bytes);
        } else if constexpr (std::is_same_v<T, MigrateCommitMsg>) {
          w.U64(b.epoch);
          w.U32(b.round);
          w.U8(b.phase);
        } else if constexpr (std::is_same_v<T, MigrateAbortMsg>) {
          w.U64(b.epoch);
          w.U8(static_cast<uint8_t>(b.reason));
        }
      },
      body);
}

std::optional<MessageBody> ReadBody(MessageType type, ByteReader& r, size_t payload_len) {
  switch (type) {
    case MessageType::kSet: {
      SetCommand c;
      c.dst = ReadRect(r);
      if (payload_len < 16) {
        return std::nullopt;
      }
      c.rgb = r.Bytes(payload_len - 16);
      return MessageBody(std::move(c));
    }
    case MessageType::kBitmap: {
      BitmapCommand c;
      c.dst = ReadRect(r);
      c.fg = r.U32();
      c.bg = r.U32();
      if (payload_len < 24) {
        return std::nullopt;
      }
      c.bits = r.Bytes(payload_len - 24);
      return MessageBody(std::move(c));
    }
    case MessageType::kFill: {
      FillCommand c;
      c.dst = ReadRect(r);
      c.color = r.U32();
      return MessageBody(c);
    }
    case MessageType::kCopy: {
      CopyCommand c;
      c.src_x = r.I32();
      c.src_y = r.I32();
      c.dst = ReadRect(r);
      return MessageBody(c);
    }
    case MessageType::kCscs: {
      CscsCommand c;
      c.src_w = r.I32();
      c.src_h = r.I32();
      c.dst = ReadRect(r);
      const uint8_t depth = r.U8();
      switch (depth) {
        case 16:
          c.depth = CscsDepth::k16;
          break;
        case 12:
          c.depth = CscsDepth::k12;
          break;
        case 8:
          c.depth = CscsDepth::k8;
          break;
        case 6:
          c.depth = CscsDepth::k6;
          break;
        case 5:
          c.depth = CscsDepth::k5;
          break;
        default:
          return std::nullopt;
      }
      if (payload_len < 25) {
        return std::nullopt;
      }
      c.payload = r.Bytes(payload_len - 25);
      return MessageBody(std::move(c));
    }
    case MessageType::kKeyEvent: {
      KeyEventMsg m;
      m.keycode = r.U32();
      m.pressed = r.U8() != 0;
      return MessageBody(m);
    }
    case MessageType::kMouseEvent: {
      MouseEventMsg m;
      m.x = r.I32();
      m.y = r.I32();
      m.buttons = r.U8();
      m.is_motion = r.U8() != 0;
      return MessageBody(m);
    }
    case MessageType::kStatus: {
      StatusMsg m;
      m.code = r.U32();
      m.last_seq_seen = r.U64();
      return MessageBody(m);
    }
    case MessageType::kNack: {
      NackMsg m;
      m.first_seq = r.U64();
      m.last_seq = r.U64();
      return MessageBody(m);
    }
    case MessageType::kSessionAttach: {
      SessionAttachMsg m;
      m.card_id = r.U64();
      return MessageBody(m);
    }
    case MessageType::kSessionDetach: {
      SessionDetachMsg m;
      m.card_id = r.U64();
      return MessageBody(m);
    }
    case MessageType::kBandwidthRequest: {
      BandwidthRequestMsg m;
      m.flow_id = r.U64();
      m.bits_per_second = r.I64();
      return MessageBody(m);
    }
    case MessageType::kBandwidthGrant: {
      BandwidthGrantMsg m;
      m.flow_id = r.U64();
      m.bits_per_second = r.I64();
      m.total_bps = r.I64();
      return MessageBody(m);
    }
    case MessageType::kAudio: {
      AudioMsg m;
      m.sample_rate = r.U32();
      const uint32_t n = r.U32();
      m.samples = r.Bytes(n);
      return MessageBody(std::move(m));
    }
    case MessageType::kPing: {
      PingMsg m;
      m.payload = r.U64();
      return MessageBody(m);
    }
    case MessageType::kPong: {
      PongMsg m;
      m.payload = r.U64();
      return MessageBody(m);
    }
    case MessageType::kSessionRelease: {
      SessionReleaseMsg m;
      switch (r.U8()) {
        case 1:
          m.reason = ReleaseReason::kHotdesk;
          break;
        case 2:
          m.reason = ReleaseReason::kCardRemoved;
          break;
        case 3:
          m.reason = ReleaseReason::kLivenessTimeout;
          break;
        case 4:
          m.reason = ReleaseReason::kEvicted;
          break;
        case 5:
          m.reason = ReleaseReason::kReplaced;
          break;
        case 6:
          m.reason = ReleaseReason::kMigrated;
          break;
        default:
          return std::nullopt;
      }
      return MessageBody(m);
    }
    case MessageType::kCheckpointChunk: {
      CheckpointChunkMsg m;
      m.epoch = r.U64();
      m.round = r.U32();
      m.index = r.U32();
      m.count = r.U32();
      m.offset = r.U64();
      if (payload_len < 28) {
        return std::nullopt;
      }
      m.data = r.Bytes(payload_len - 28);
      // A chunk that claims to sit outside its own round's chunk table is corrupt even if
      // every byte read cleanly.
      if (m.count == 0 || m.index >= m.count) {
        return std::nullopt;
      }
      return MessageBody(std::move(m));
    }
    case MessageType::kMigrateBegin: {
      MigrateBeginMsg m;
      m.epoch = r.U64();
      m.card_id = r.U64();
      m.origin_session = r.U32();
      m.round = r.U32();
      switch (r.U8()) {
        case 1:
          m.purpose = MigratePurpose::kHandoff;
          break;
        case 2:
          m.purpose = MigratePurpose::kStandby;
          break;
        default:
          return std::nullopt;
      }
      m.chunk_count = r.U32();
      m.total_bytes = r.U64();
      return MessageBody(m);
    }
    case MessageType::kMigrateCommit: {
      MigrateCommitMsg m;
      m.epoch = r.U64();
      m.round = r.U32();
      m.phase = r.U8();
      if (m.phase != 1 && m.phase != 2) {
        return std::nullopt;
      }
      return MessageBody(m);
    }
    case MessageType::kMigrateAbort: {
      MigrateAbortMsg m;
      m.epoch = r.U64();
      switch (r.U8()) {
        case 1:
          m.reason = MigrateAbortReason::kTimeout;
          break;
        case 2:
          m.reason = MigrateAbortReason::kBadCheckpoint;
          break;
        case 3:
          m.reason = MigrateAbortReason::kSuperseded;
          break;
        case 4:
          m.reason = MigrateAbortReason::kShutdown;
          break;
        default:
          return std::nullopt;
      }
      return MessageBody(m);
    }
  }
  return std::nullopt;
}

}  // namespace

MessageType TypeOfBody(const MessageBody& body) {
  return std::visit(
      [](const auto& b) -> MessageType {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, SetCommand>) {
          return MessageType::kSet;
        } else if constexpr (std::is_same_v<T, BitmapCommand>) {
          return MessageType::kBitmap;
        } else if constexpr (std::is_same_v<T, FillCommand>) {
          return MessageType::kFill;
        } else if constexpr (std::is_same_v<T, CopyCommand>) {
          return MessageType::kCopy;
        } else if constexpr (std::is_same_v<T, CscsCommand>) {
          return MessageType::kCscs;
        } else if constexpr (std::is_same_v<T, KeyEventMsg>) {
          return MessageType::kKeyEvent;
        } else if constexpr (std::is_same_v<T, MouseEventMsg>) {
          return MessageType::kMouseEvent;
        } else if constexpr (std::is_same_v<T, StatusMsg>) {
          return MessageType::kStatus;
        } else if constexpr (std::is_same_v<T, NackMsg>) {
          return MessageType::kNack;
        } else if constexpr (std::is_same_v<T, SessionAttachMsg>) {
          return MessageType::kSessionAttach;
        } else if constexpr (std::is_same_v<T, SessionDetachMsg>) {
          return MessageType::kSessionDetach;
        } else if constexpr (std::is_same_v<T, BandwidthRequestMsg>) {
          return MessageType::kBandwidthRequest;
        } else if constexpr (std::is_same_v<T, BandwidthGrantMsg>) {
          return MessageType::kBandwidthGrant;
        } else if constexpr (std::is_same_v<T, AudioMsg>) {
          return MessageType::kAudio;
        } else if constexpr (std::is_same_v<T, PingMsg>) {
          return MessageType::kPing;
        } else if constexpr (std::is_same_v<T, PongMsg>) {
          return MessageType::kPong;
        } else if constexpr (std::is_same_v<T, SessionReleaseMsg>) {
          return MessageType::kSessionRelease;
        } else if constexpr (std::is_same_v<T, CheckpointChunkMsg>) {
          return MessageType::kCheckpointChunk;
        } else if constexpr (std::is_same_v<T, MigrateBeginMsg>) {
          return MessageType::kMigrateBegin;
        } else if constexpr (std::is_same_v<T, MigrateCommitMsg>) {
          return MessageType::kMigrateCommit;
        } else {
          static_assert(std::is_same_v<T, MigrateAbortMsg>);
          return MessageType::kMigrateAbort;
        }
      },
      body);
}

MessageType TypeOfMessage(const Message& msg) { return TypeOfBody(msg.body); }

bool IsDisplayCommand(const Message& msg) {
  const auto type = static_cast<uint8_t>(TypeOfMessage(msg));
  return type >= 1 && type <= 5;
}

std::vector<uint8_t> SerializeMessageBody(const MessageBody& body) {
  ByteWriter w;
  WriteBody(w, body);
  return w.Take();
}

std::optional<MessageBody> ParseMessageBody(MessageType type,
                                            std::span<const uint8_t> payload) {
  ByteReader r(payload);
  auto body = ReadBody(type, r, payload.size());
  if (!body.has_value() || !r.ok()) {
    return std::nullopt;
  }
  return body;
}

std::vector<uint8_t> SerializeMessage(const Message& msg) {
  ByteWriter body_writer;
  WriteBody(body_writer, msg.body);
  const std::vector<uint8_t>& payload = body_writer.data();

  ByteWriter w;
  w.U8(kMessageMagic);
  w.U8(static_cast<uint8_t>(TypeOfMessage(msg)));
  w.U16(0);
  w.U32(msg.session_id);
  w.U64(msg.seq);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.Bytes(payload);
  return w.Take();
}

std::optional<Message> ParseMessage(std::span<const uint8_t> data) {
  ByteReader r(data);
  if (r.U8() != kMessageMagic) {
    return std::nullopt;
  }
  const uint8_t raw_type = r.U8();
  r.U16();  // reserved
  Message msg;
  msg.session_id = r.U32();
  msg.seq = r.U64();
  const uint32_t payload_len = r.U32();
  if (!r.ok() || r.remaining() < payload_len) {
    return std::nullopt;
  }
  auto body = ReadBody(static_cast<MessageType>(raw_type), r, payload_len);
  if (!body.has_value() || !r.ok()) {
    return std::nullopt;
  }
  msg.body = std::move(*body);
  return msg;
}

size_t MessageWireSize(const Message& msg) { return BodyWireSize(msg.body); }

size_t BodyWireSize(const MessageBody& body) {
  const auto type = static_cast<uint8_t>(TypeOfBody(body));
  if (type >= 1 && type <= 5) {
    return std::visit(
        [](const auto& b) -> size_t {
          using T = std::decay_t<decltype(b)>;
          if constexpr (std::is_same_v<T, SetCommand> || std::is_same_v<T, BitmapCommand> ||
                        std::is_same_v<T, FillCommand> || std::is_same_v<T, CopyCommand> ||
                        std::is_same_v<T, CscsCommand>) {
            return WireSize(DisplayCommand(b));
          } else {
            return 0;
          }
        },
        body);
  }
  ByteWriter w;
  WriteBody(w, body);
  return kMessageHeaderBytes + w.size();
}

}  // namespace slim
