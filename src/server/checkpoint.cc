#include "src/server/checkpoint.h"

#include "src/codec/damage_tracker.h"
#include "src/protocol/wire.h"
#include "src/server/session.h"
#include "src/util/check.h"

namespace slim {

namespace {

// Hard ceiling the decoder enforces so a corrupt geometry field cannot request an absurd
// allocation: the largest session geometry anyone simulates is well under 16k x 16k.
constexpr int32_t kMaxDimension = 16384;

// Blob layout sizes: the header (magic, version, body length), and the body's fixed
// fields around the pixels (identity and geometry, then 8 counters and 5 x 4 encode stats).
constexpr size_t kHeaderBytes = 4 + 4 + 8;
constexpr size_t kBodyFixedBytes = (4 + 8 + 4 + 4) + 8 * 8 + 5 * 4 * 8;

}  // namespace

std::vector<uint8_t> EncodeCheckpoint(const SessionCheckpoint& ckpt) {
  // Header and body go into one buffer sized exactly, with the pixels as one bulk copy.
  const size_t body_bytes = kBodyFixedBytes + ckpt.fb_pixels.size() * sizeof(Pixel);
  ByteWriter w;
  w.Reserve(kHeaderBytes + body_bytes);
  w.U32(kCheckpointMagic);
  w.U32(kCheckpointVersion);
  w.U64(static_cast<uint64_t>(body_bytes));
  w.U32(ckpt.origin_session);
  w.U64(ckpt.card_id);
  w.I32(ckpt.width);
  w.I32(ckpt.height);
  w.U32s(ckpt.fb_pixels);
  w.I64(ckpt.video_deferred);
  w.I64(ckpt.video_dropped);
  w.I64(ckpt.coalesced_flushes);
  w.I64(ckpt.commands_sent);
  w.I64(ckpt.bytes_sent);
  w.I64(ckpt.render_time);
  w.I64(ckpt.encode_time);
  w.I64(ckpt.wire_time);
  for (int t = 1; t < 6; ++t) {
    w.I64(ckpt.encode_stats[t].commands);
    w.I64(ckpt.encode_stats[t].wire_bytes);
    w.I64(ckpt.encode_stats[t].uncompressed_bytes);
    w.I64(ckpt.encode_stats[t].pixels);
  }
  SLIM_CHECK(w.size() == kHeaderBytes + body_bytes);
  return w.Take();
}

std::optional<SessionCheckpoint> DecodeCheckpoint(std::span<const uint8_t> blob) {
  ByteReader r(blob);
  if (r.U32() != kCheckpointMagic) {
    return std::nullopt;
  }
  if (r.U32() != kCheckpointVersion) {
    // A newer (or garbage) version: refuse rather than guess at the layout. Restoring a
    // half-understood session is strictly worse than forcing a fresh one.
    return std::nullopt;
  }
  const uint64_t body_len = r.U64();
  if (!r.ok() || r.remaining() != body_len) {
    return std::nullopt;  // length-prefix and buffer must agree exactly
  }

  SessionCheckpoint ckpt;
  ckpt.origin_session = r.U32();
  ckpt.card_id = r.U64();
  ckpt.width = r.I32();
  ckpt.height = r.I32();
  if (!r.ok() || ckpt.width <= 0 || ckpt.height <= 0 || ckpt.width > kMaxDimension ||
      ckpt.height > kMaxDimension) {
    return std::nullopt;
  }
  const size_t pixel_count = static_cast<size_t>(ckpt.width) * static_cast<size_t>(ckpt.height);
  // Cheap up-front bound: the framebuffer section alone needs 4 bytes per pixel; a blob
  // shorter than that lies about its geometry.
  if (r.remaining() < pixel_count * sizeof(Pixel)) {
    return std::nullopt;
  }
  ckpt.fb_pixels.resize(pixel_count);
  r.U32s(ckpt.fb_pixels);
  ckpt.video_deferred = r.I64();
  ckpt.video_dropped = r.I64();
  ckpt.coalesced_flushes = r.I64();
  ckpt.commands_sent = r.I64();
  ckpt.bytes_sent = r.I64();
  ckpt.render_time = r.I64();
  ckpt.encode_time = r.I64();
  ckpt.wire_time = r.I64();
  for (int t = 1; t < 6; ++t) {
    ckpt.encode_stats[t].commands = r.I64();
    ckpt.encode_stats[t].wire_bytes = r.I64();
    ckpt.encode_stats[t].uncompressed_bytes = r.I64();
    ckpt.encode_stats[t].pixels = r.I64();
  }
  if (!r.ok() || r.remaining() != 0) {
    return std::nullopt;  // trailing garbage is as suspect as truncation
  }
  return ckpt;
}

void ServerSession::CaptureCheckpoint(SessionCheckpoint* out) const {
  MirrorVideo();
  out->origin_session = id_;
  out->width = fb_.width();
  out->height = fb_.height();
  out->fb_pixels.assign(fb_.data().begin(), fb_.data().end());

  out->video_deferred = video_deferred_;
  out->video_dropped = video_dropped_;
  out->coalesced_flushes = coalesced_flushes_;

  out->commands_sent = commands_sent_;
  out->bytes_sent = bytes_sent_;
  out->render_time = render_time_;
  out->encode_time = encode_time_;
  out->wire_time = wire_time_;
  for (int t = 0; t < 6; ++t) {
    out->encode_stats[t].commands = encode_stats_[t].commands;
    out->encode_stats[t].wire_bytes = encode_stats_[t].wire_bytes;
    out->encode_stats[t].uncompressed_bytes = encode_stats_[t].uncompressed_bytes;
    out->encode_stats[t].pixels = encode_stats_[t].pixels;
  }
}

void ServerSession::RestoreFromCheckpoint(const SessionCheckpoint& ckpt) {
  SLIM_CHECK(!attached());
  SLIM_CHECK(ckpt.width == fb_.width() && ckpt.height == fb_.height());
  SLIM_CHECK(ckpt.fb_pixels.size() == fb_.data().size());

  fb_.SetPixels(fb_.bounds(), ckpt.fb_pixels);
  // The checkpoint's pixels supersede a frame this session has not mirrored yet.
  unmirrored_video_.reset();
  // The shadow still holds this fresh session's black frame, not what any console shows.
  // The attach that follows repaints in full regardless; invalidating here keeps the
  // tracker honest even before then.
  tracker_.Invalidate();

  video_deferred_ = ckpt.video_deferred;
  video_dropped_ = ckpt.video_dropped;
  coalesced_flushes_ = ckpt.coalesced_flushes;

  commands_sent_ = ckpt.commands_sent;
  bytes_sent_ = ckpt.bytes_sent;
  render_time_ = ckpt.render_time;
  encode_time_ = ckpt.encode_time;
  wire_time_ = ckpt.wire_time;
  for (int t = 0; t < 6; ++t) {
    encode_stats_[t].commands = ckpt.encode_stats[t].commands;
    encode_stats_[t].wire_bytes = ckpt.encode_stats[t].wire_bytes;
    encode_stats_[t].uncompressed_bytes = ckpt.encode_stats[t].uncompressed_bytes;
    encode_stats_[t].pixels = ckpt.encode_stats[t].pixels;
  }
}

}  // namespace slim
