// Session checkpointing: the state a restore needs, serialized to a versioned blob.
//
// The paper's signature property (Section 5.4) is that a session is pure server state —
// the console holds nothing worth saving, and one repaint re-creates what it shows. A
// checkpoint makes that property mechanical: it carries the session's identity, its true
// framebuffer, and its CPU/byte/pacing counters, and nothing else. Everything else a
// server knows about a session is soft state toward its current console — the damage
// tracker's shadow frame, pending damage, console grants, transport seqs — and the
// restoring server's attach (AttachConsole: ClearPacedState, then ForceRepaintAll)
// rebuilds all of it from the pixels. Migration (src/server/migration.h) moves these
// blobs between servers; crash failover replays the most recent one on a warm standby.
//
// Format (all little-endian): u32 magic "SLCK", u32 version, u64 body length, body. The
// decoder rejects version mismatches, truncated bodies, and geometry that disagrees with
// the pixel payload — a corrupted blob yields nullopt, never a half-restored session.

#ifndef SRC_SERVER_CHECKPOINT_H_
#define SRC_SERVER_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/fb/framebuffer.h"
#include "src/util/time.h"

namespace slim {

constexpr uint32_t kCheckpointMagic = 0x534C434Bu;  // "SLCK"
constexpr uint32_t kCheckpointVersion = 2;

// Blob layout sizes: the header (magic, version, body length), and the body's fixed fields
// around the pixels (identity and geometry, then 8 counters and 5 x 4 encode stats).
constexpr size_t kCheckpointHeaderBytes = 4 + 4 + 8;
constexpr size_t kCheckpointFixedBytes = (4 + 8 + 4 + 4) + 8 * 8 + 5 * 4 * 8;
// Hard ceiling the decoder enforces so a corrupt geometry field cannot request an absurd
// allocation: the largest session geometry anyone simulates is well under 16k x 16k.
constexpr int32_t kMaxCheckpointDimension = 16384;
// The largest blob DecodeCheckpoint accepts; a transfer announcing more cannot succeed.
constexpr uint64_t kMaxCheckpointBytes =
    kCheckpointHeaderBytes + kCheckpointFixedBytes +
    uint64_t{kMaxCheckpointDimension} * kMaxCheckpointDimension * sizeof(Pixel);

// Per-command-type encoder totals, mirroring EncodeStats (slot 0 unused, 1..5 = SET,
// BITMAP, FILL, COPY, CSCS). Duplicated here rather than including the codec header so
// the checkpoint format is self-describing.
struct CheckpointEncodeStats {
  int64_t commands = 0;
  int64_t wire_bytes = 0;
  int64_t uncompressed_bytes = 0;
  int64_t pixels = 0;
  bool operator==(const CheckpointEncodeStats&) const = default;
};

// The decoded, in-memory form of one session checkpoint.
struct SessionCheckpoint {
  // Identity (on the source server; the restoring server allocates its own session id).
  uint32_t origin_session = 0;
  uint64_t card_id = 0;

  // Framebuffer (the round-trip contract: restore must reproduce these bits exactly).
  int32_t width = 0;
  int32_t height = 0;
  std::vector<Pixel> fb_pixels;

  // Pacing counters (Section 7).
  int64_t video_deferred = 0;
  int64_t video_dropped = 0;
  int64_t coalesced_flushes = 0;

  // Accounting watermarks.
  int64_t commands_sent = 0;
  int64_t bytes_sent = 0;
  SimDuration render_time = 0;
  SimDuration encode_time = 0;
  SimDuration wire_time = 0;
  CheckpointEncodeStats encode_stats[6] = {};

  bool operator==(const SessionCheckpoint&) const = default;

  int64_t fb_bytes() const {
    return static_cast<int64_t>(width) * height * static_cast<int64_t>(sizeof(Pixel));
  }
};

// Serializes to the versioned wire form described above.
std::vector<uint8_t> EncodeCheckpoint(const SessionCheckpoint& ckpt);

// Parses a blob. Returns nullopt on a version mismatch, truncation, a body length that
// disagrees with the buffer, or geometry that disagrees with the pixel payload. Never
// crashes on hostile input (fuzzed in migration_test).
std::optional<SessionCheckpoint> DecodeCheckpoint(std::span<const uint8_t> blob);

}  // namespace slim

#endif  // SRC_SERVER_CHECKPOINT_H_
