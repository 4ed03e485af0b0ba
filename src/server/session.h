// A user session on a SLIM server.
//
// The session owns the persistent, true framebuffer state (the console's copy is only soft
// state), a SLIM encoder acting as the X-server's virtual device driver, and the protocol
// log that instruments everything it does. The drawing API mirrors what reaches an X device
// driver: fills, glyph runs, images and copies. Every call is costed under both the SLIM
// and X protocols so one session run produces the data for Figures 2-8.

#ifndef SRC_SERVER_SESSION_H_
#define SRC_SERVER_SESSION_H_

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/codec/damage_tracker.h"
#include "src/codec/encoder.h"
#include "src/fb/framebuffer.h"
#include "src/net/fabric.h"
#include "src/protocol/messages.h"
#include "src/sim/simulator.h"
#include "src/trace/protocol_log.h"

namespace slim {

class MetricRegistry;
struct SessionCheckpoint;

// A 1-bit glyph image; the apps toolkit supplies these from its font.
struct GlyphBitmap {
  int32_t width = 0;
  int32_t height = 0;
  // (width+7)/8 bytes per row, MSB leftmost, height rows.
  std::vector<uint8_t> bits;
};

class SlimServer;

class ServerSession {
 public:
  ServerSession(SlimServer* server, uint32_t id, int32_t width, int32_t height);

  uint32_t id() const { return id_; }

  // --- Bandwidth flows (Section 7) ---
  // Each session owns two console-bandwidth flows, mirroring the paper's applications: the
  // display server (interactive drawing) and the video library. Flow 0 is reserved for
  // unpaced control traffic, so the ids interleave from 1.
  static uint64_t InteractiveFlow(uint32_t session_id) {
    return static_cast<uint64_t>(session_id) * 2 + 1;
  }
  static uint64_t VideoFlow(uint32_t session_id) {
    return static_cast<uint64_t>(session_id) * 2 + 2;
  }
  static uint32_t SessionOfFlow(uint64_t flow_id) {
    return static_cast<uint32_t>((flow_id - 1) / 2);
  }
  uint64_t interactive_flow() const { return InteractiveFlow(id_); }
  uint64_t video_flow() const { return VideoFlow(id_); }

  // A console grant for one of this session's flows (relayed by SlimServer::ApplyGrant
  // after the transmit queue's pacer was updated). May un-stage work that was waiting for
  // headroom. `total_bps` is the console's whole allocatable link.
  void OnBandwidthGrant(uint64_t flow_id, int64_t bits_per_second, int64_t total_bps);
  // Sends a (re-)request for one of this session's flows to the attached console — used by
  // applications that know their real offered rate (the video pipeline at Start).
  void RequestFlowBandwidth(uint64_t flow_id, int64_t bits_per_second);
  // Fired by SlimServer::SchedulePaceRetry: re-check staged video and deferred damage now
  // that the paced backlog had time to drain.
  void OnPaceRetry();

  int64_t interactive_grant_bps() const { return interactive_grant_bps_; }
  int64_t video_grant_bps() const { return video_grant_bps_; }
  int64_t link_total_bps() const { return link_total_bps_; }
  bool has_staged_video() const { return staged_video_.has_value(); }
  int64_t video_deferred() const { return video_deferred_; }
  int64_t video_dropped() const { return video_dropped_; }
  int64_t coalesced_flushes() const { return coalesced_flushes_; }
  // The simulator driving this session's server (for applications that defer work, e.g.
  // progressive page rendering).
  Simulator* simulator();
  // The session's true screen. Reading it first mirrors the last transmitted video frame
  // (MirrorVideo), so it always holds what the console shows once the wire drains.
  const Framebuffer& framebuffer() const {
    MirrorVideo();
    return fb_;
  }
  ProtocolLog& log() { return log_; }
  const ProtocolLog& log() const { return log_; }

  // --- Console attachment (hotdesking) ---
  void AttachConsole(NodeId console);
  void DetachConsole();
  bool attached() const { return console_ != kInvalidNode; }
  NodeId console() const { return console_; }

  // --- Input routing ---
  using InputHandler = std::function<void(const Message&)>;
  void set_input_handler(InputHandler handler) { input_handler_ = std::move(handler); }
  void DeliverInput(const Message& msg);

  // --- Drawing API (virtual device driver level) ---
  void FillRect(const Rect& r, Pixel color);
  void DrawGlyphs(int32_t x, int32_t y, std::span<const GlyphBitmap* const> glyphs, Pixel fg,
                  Pixel bg);
  void PutImage(const Rect& r, std::span<const Pixel> pixels);
  void CopyArea(int32_t src_x, int32_t src_y, const Rect& dst);
  // The Section 2.2 video library path: a YUV frame sent directly with CSCS.
  void SendVideoFrame(const YuvImage& frame, const Rect& dst, CscsDepth depth);
  void SendAudio(uint32_t sample_rate, std::span<const uint8_t> samples);

  // Encodes pending damage and transmits everything queued to the attached console.
  void Flush();

  // Full-screen refresh. This is cheap: the damage tracker refines the full-frame damage
  // down to whatever actually differs from the last-transmitted frame (possibly nothing),
  // so callers may repaint liberally.
  void RepaintAll();

  // RepaintAll that also discards the damage tracker's shadow frame, forcing a genuine
  // full retransmission. This is the loss-recovery path: when the transport gave up on a
  // message the console's soft state has silently diverged from the shadow, and a refined
  // repaint would wrongly transmit nothing. Used on console (re)attach for the same
  // reason — a fresh console displays black regardless of what the shadow says.
  void ForceRepaintAll();

  const Region& pending_damage() const { return damage_; }

  // Simulated CPU accounting (Section 5.5 / Table 4).
  SimDuration render_time() const { return render_time_; }
  SimDuration encode_time() const { return encode_time_; }
  SimDuration wire_time() const { return wire_time_; }

  int64_t commands_sent() const { return commands_sent_; }
  int64_t bytes_sent() const { return bytes_sent_; }

  // Per-command-type encoder output accumulated over everything this session transmitted,
  // indexed by CommandType (slot 0 unused) — the same shape Encoder::Accumulate produces.
  const EncodeStats* encode_stats() const { return encode_stats_; }

  // Registers the session's counters, CPU-time gauges and per-command-type encoder
  // counters (`<prefix>.codec.<type>.*`) with `registry`. Returns false if any name was
  // rejected (duplicate prefix).
  bool RegisterMetrics(MetricRegistry* registry, const std::string& prefix = "session");

  // --- Checkpointing (src/server/checkpoint.{h,cc}) ---
  // Fills `out` with what a restore keeps: framebuffer bits (with any transmitted video
  // frame mirrored first) and the pacing/accounting counters. The card id is the server's
  // knowledge and is filled in by the caller.
  // Console soft state (the tracker's shadow, pending damage, grants, staged video) is
  // deliberately not captured: the restoring server's attach rebuilds it with one full
  // repaint, and the paper's drop-stale-frames rule makes losing a staged frame correct.
  void CaptureCheckpoint(SessionCheckpoint* out) const;
  // Copies a decoded checkpoint's pixels and counters into this session and invalidates
  // its damage tracker. The session must be detached and its geometry must match the
  // checkpoint's (checked): the restoring server constructs the session from the
  // checkpoint's width/height first.
  void RestoreFromCheckpoint(const SessionCheckpoint& ckpt);

 private:
  void EncodeDamageToPending();
  void TransmitPending();

  // --- Backpressure adaptation (pacing.adapt) ---
  // True while the video flow's token bucket runs further ahead of the clock than the
  // watermark: new frames are staged (newest wins) instead of queued.
  bool ShouldStageVideo() const;
  // True while the interactive flow (or the session's txq depth) is over its watermark:
  // Flush leaves damage coalescing instead of encoding more rects into the queue.
  bool ShouldDeferFlush() const;
  // Logs and transmits a CSCS frame and keeps it as unmirrored_video_ instead of decoding
  // it; MirrorVideo brings it into fb_ and the shadow later. A staged frame reaches
  // session state only through here, so one that is dropped leaves no trace.
  void TransmitVideoFrame(CscsCommand cmd);
  // Decodes unmirrored_video_ (if any) into fb_ with the console's own ApplyCommand and
  // syncs its dst into the shadow. Runs first in every path that reads or writes fb_ or
  // the shadow. Const: mirroring does not change what the session shows.
  void MirrorVideo() const;
  // Schedules one OnPaceRetry at the earliest time any deferred concern could clear
  // (deduplicated: at most one retry in flight per session).
  void ArmPaceRetry();
  // Drops staged video and forgets grants (console detach/handoff: the next console's
  // allocator starts fresh).
  void ClearPacedState();

  SlimServer* server_;
  uint32_t id_;
  // fb_ and tracker_ are mutable for MirrorVideo, which const readers call.
  mutable Framebuffer fb_;
  Encoder encoder_;
  // Shadow-frame damage refinement (src/codec/damage_tracker.h).
  mutable DamageTracker tracker_;
  ProtocolLog log_;
  Region damage_;
  std::vector<DisplayCommand> pending_;
  NodeId console_ = kInvalidNode;
  InputHandler input_handler_;

  SimDuration render_time_ = 0;
  SimDuration encode_time_ = 0;
  SimDuration wire_time_ = 0;
  int64_t commands_sent_ = 0;
  int64_t bytes_sent_ = 0;
  EncodeStats encode_stats_[6] = {};

  // Backpressure state. The staged frame is not yet transmitted and may be dropped. It is
  // already packed (the pack cost was paid by the caller) and has touched nothing: damage
  // and log change when it is transmitted, fb_ and the shadow when it is mirrored.
  std::optional<CscsCommand> staged_video_;
  // The last transmitted frame, not yet decoded into fb_ and the shadow. Unlike
  // staged_video_ it is session truth: the console has it, and MirrorVideo decodes it the
  // first time something reads or writes the framebuffer. A newer frame at the same dst
  // replaces it undecoded, because a CSCS command rewrites its whole dst.
  mutable std::optional<CscsCommand> unmirrored_video_;
  bool pace_retry_armed_ = false;
  int64_t interactive_grant_bps_ = 0;
  int64_t video_grant_bps_ = 0;
  int64_t link_total_bps_ = 0;
  int64_t video_deferred_ = 0;
  int64_t video_dropped_ = 0;
  int64_t coalesced_flushes_ = 0;
};

}  // namespace slim

#endif  // SRC_SERVER_SESSION_H_
