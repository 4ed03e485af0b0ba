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

void WritePixels(ByteWriter& w, std::span<const Pixel> pixels) {
  for (const Pixel p : pixels) {
    w.U32(p);
  }
}

bool ReadPixels(ByteReader& r, size_t n, std::vector<Pixel>* out) {
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*out)[i] = r.U32();
  }
  return r.ok();
}

}  // namespace

std::vector<uint8_t> EncodeCheckpoint(const SessionCheckpoint& ckpt) {
  ByteWriter body;
  body.U32(ckpt.origin_session);
  body.U64(ckpt.card_id);
  body.I32(ckpt.width);
  body.I32(ckpt.height);
  WritePixels(body, ckpt.fb_pixels);
  body.I64(ckpt.video_deferred);
  body.I64(ckpt.video_dropped);
  body.I64(ckpt.coalesced_flushes);
  body.I64(ckpt.commands_sent);
  body.I64(ckpt.bytes_sent);
  body.I64(ckpt.render_time);
  body.I64(ckpt.encode_time);
  body.I64(ckpt.wire_time);
  for (int t = 1; t < 6; ++t) {
    body.I64(ckpt.encode_stats[t].commands);
    body.I64(ckpt.encode_stats[t].wire_bytes);
    body.I64(ckpt.encode_stats[t].uncompressed_bytes);
    body.I64(ckpt.encode_stats[t].pixels);
  }

  ByteWriter w;
  w.U32(kCheckpointMagic);
  w.U32(kCheckpointVersion);
  w.U64(static_cast<uint64_t>(body.size()));
  w.Bytes(body.data());
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
  if (!ReadPixels(r, pixel_count, &ckpt.fb_pixels)) {
    return std::nullopt;
  }
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
  // The shadow still holds this fresh session's black frame, not what any console shows.
  // The attach that follows repaints in full regardless; invalidating here keeps the
  // tracker honest even before then.
  if (tracker_ != nullptr) {
    tracker_->Invalidate();
  }

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
