#include "src/server/session.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/codec/decoder.h"
#include "src/obs/latency_audit.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/cpu_model.h"
#include "src/server/slim_server.h"
#include "src/util/check.h"
#include "src/xproto/xcost.h"

namespace slim {

namespace {

// Largest |dy| the damage tracker's scroll salvage searches when a large damage block
// might be the shadow frame shifted vertically (hint-less scrolls arriving as full
// repaints).
constexpr int32_t kScrollMaxShift = 64;

// Backpressure adaptation (pacing.adapt): a video frame is staged (newest wins) instead
// of sent while its flow's token bucket runs further than this ahead of the clock, and an
// interactive flush defers — damage keeps coalescing — while the interactive flow is
// equally far behind or the session holds more than kCoalesceWatermark queued sends.
constexpr SimDuration kPaceBacklogWatermark = 50 * kMillisecond;
constexpr int64_t kCoalesceWatermark = 8;

}  // namespace

ServerSession::ServerSession(SlimServer* server, uint32_t id, int32_t width, int32_t height)
    : server_(server), id_(id), fb_(width, height), tracker_(width, height) {
  SLIM_CHECK(server != nullptr);
}

Simulator* ServerSession::simulator() { return server_->simulator(); }

bool ServerSession::RegisterMetrics(MetricRegistry* registry, const std::string& prefix) {
  SLIM_CHECK(registry != nullptr);
  bool ok = true;
  ok = registry->BindCounter(prefix + ".commands_sent", &commands_sent_) && ok;
  ok = registry->BindCounter(prefix + ".bytes_sent", &bytes_sent_) && ok;
  ok = registry->BindGauge(prefix + ".render_ns",
                           [this] { return static_cast<double>(render_time_); }) &&
       ok;
  ok = registry->BindGauge(prefix + ".encode_ns",
                           [this] { return static_cast<double>(encode_time_); }) &&
       ok;
  ok = registry->BindGauge(prefix + ".wire_cpu_ns",
                           [this] { return static_cast<double>(wire_time_); }) &&
       ok;
  // How much of the server's shared transmit pipeline this session currently occupies.
  ok = registry->BindGauge(prefix + ".txq_depth",
                           [this] {
                             return static_cast<double>(server_->tx_queue().depth(id_));
                           }) &&
       ok;
  // Congestion-adaptation counters and the current grants (gauges so they track revisions).
  ok = registry->BindCounter(prefix + ".video_deferred", &video_deferred_) && ok;
  ok = registry->BindCounter(prefix + ".video_dropped", &video_dropped_) && ok;
  ok = registry->BindCounter(prefix + ".coalesced_flushes", &coalesced_flushes_) && ok;
  ok = registry->BindGauge(prefix + ".interactive_grant_bps",
                           [this] { return static_cast<double>(interactive_grant_bps_); }) &&
       ok;
  ok = registry->BindGauge(prefix + ".video_grant_bps",
                           [this] { return static_cast<double>(video_grant_bps_); }) &&
       ok;
  // One counter block per display command type, mirroring EncodeStats field for field.
  static constexpr const char* kTypeNames[6] = {nullptr, "set", "bitmap", "fill", "copy",
                                                "cscs"};
  for (int t = 1; t < 6; ++t) {
    const std::string base = prefix + ".codec." + kTypeNames[t] + ".";
    ok = registry->BindCounter(base + "commands", &encode_stats_[t].commands) && ok;
    ok = registry->BindCounter(base + "wire_bytes", &encode_stats_[t].wire_bytes) && ok;
    ok = registry->BindCounter(base + "uncompressed_bytes",
                               &encode_stats_[t].uncompressed_bytes) &&
         ok;
    ok = registry->BindCounter(base + "pixels", &encode_stats_[t].pixels) && ok;
  }
  return ok;
}

void ServerSession::AttachConsole(NodeId console) {
  console_ = console;
  // Grants belong to a console; whatever the previous one allowed is void here (the server
  // already released the flows, and fresh requests are in flight to the new console).
  ClearPacedState();
  // The newly attached console displays black (its framebuffer is soft state and this may
  // be a hotdesking move to a different terminal), so the repaint must not be refined
  // against whatever the previous console was showing.
  ForceRepaintAll();
  Flush();
}

void ServerSession::DetachConsole() {
  console_ = kInvalidNode;
  ClearPacedState();
}

void ServerSession::ClearPacedState() {
  // A staged frame never touched fb/shadow/damage/log, so dropping it here leaves the
  // session bit-identical to one that never saw the frame.
  if (staged_video_.has_value()) {
    staged_video_.reset();
    ++video_dropped_;
    ++server_->pacing_stats().video_dropped;
  }
  interactive_grant_bps_ = 0;
  video_grant_bps_ = 0;
  link_total_bps_ = 0;
  // pace_retry_armed_ is left alone: an already-scheduled retry will fire regardless, and
  // OnPaceRetry handles the detached (or re-attached) session it finds.
}

void ServerSession::OnBandwidthGrant(uint64_t flow_id, int64_t bits_per_second,
                                     int64_t total_bps) {
  if (flow_id == interactive_flow()) {
    interactive_grant_bps_ = bits_per_second;
  } else if (flow_id == video_flow()) {
    video_grant_bps_ = bits_per_second;
  }
  link_total_bps_ = total_bps;
  // A bigger (or smaller) share changes when staged work can go; re-evaluate.
  if (staged_video_.has_value() || !damage_.empty()) {
    ArmPaceRetry();
  }
}

void ServerSession::RequestFlowBandwidth(uint64_t flow_id, int64_t bits_per_second) {
  if (!attached() || !server_->options().pacing.enabled) {
    return;
  }
  ++server_->pacing_stats().requests_sent;
  server_->Transmit(console_, id_, BandwidthRequestMsg{flow_id, bits_per_second}, 0);
}

void ServerSession::DeliverInput(const Message& msg) {
  const SimTime now = server_->simulator()->now();
  // Sim time does not advance during synchronous dispatch, so the stage decomposition is
  // emitted as modeled-CPU-cost spans: the dispatch span ends at now + the CPU time this
  // input charged, with render/encode/wire laid back-to-back inside it. Nested transport
  // sends inherit the input_id, which is the join key against console-side decode spans
  // (via their seq args).
  Tracer* const tracer = Tracer::Global();
  LatencyAudit* const audit = LatencyAudit::Global();
  SimDuration render0 = 0;
  SimDuration encode0 = 0;
  SimDuration wire0 = 0;
  int64_t input_id = -1;
  if (tracer != nullptr) {
    input_id = tracer->NextInputId();
    tracer->set_current_input(input_id);
    tracer->Begin(now, "input.dispatch", "server", kTraceTidServer,
                  {{"session", JsonValue(int64_t{id_})}});
  }
  if (audit != nullptr) {
    // Shares the tracer's id when both are on, so trace spans and audit rows correlate.
    input_id = audit->BeginInput(id_, now, input_id);
  }
  if (tracer != nullptr || audit != nullptr) {
    render0 = render_time_;
    encode0 = encode_time_;
    wire0 = wire_time_;
  }
  if (const auto* key = std::get_if<KeyEventMsg>(&msg.body)) {
    if (key->pressed) {
      log_.RecordInput(now, /*is_key=*/true);
      // Under X the keystroke is delivered to the client as a 32-byte event.
      log_.RecordXRequest(now, XEventBytes());
    }
  } else if (const auto* mouse = std::get_if<MouseEventMsg>(&msg.body)) {
    if (!mouse->is_motion && mouse->buttons != 0) {
      log_.RecordInput(now, /*is_key=*/false);
      log_.RecordXRequest(now, XEventBytes());
    }
  }
  if (input_handler_) {
    input_handler_(msg);
  }
  if (tracer != nullptr) {
    SimTime cursor = now;
    const auto stage = [&](const char* name, SimDuration dur) {
      if (dur > 0) {
        tracer->Complete(cursor, dur, name, "server", kTraceTidServer, {});
        cursor += dur;
      }
    };
    stage("server.render", render_time_ - render0);
    stage("server.encode", encode_time_ - encode0);
    stage("server.wire_cpu", wire_time_ - wire0);
    tracer->End(cursor, kTraceTidServer);
    tracer->set_current_input(-1);
  }
  if (audit != nullptr) {
    audit->EndInput(input_id, render_time_ - render0, encode_time_ - encode0,
                    wire_time_ - wire0, now);
  }
}

void ServerSession::FillRect(const Rect& r, Pixel color) {
  const Rect clipped = Intersect(r, fb_.bounds());
  if (clipped.empty()) {
    return;
  }
  MirrorVideo();
  const SimTime now = server_->simulator()->now();
  render_time_ += ServerCpuModel::RenderCost(clipped.area());
  log_.RecordXRequest(now, XFillRectBytes());
  fb_.Fill(clipped, color);
  // Fills pass straight through the driver: the rectangle is already in protocol form.
  damage_.Subtract(clipped);
  pending_.emplace_back(std::in_place_type<FillCommand>, clipped, color);
  // The FILL bypasses the encoder (and thus refinement), so mirror it into the shadow.
  tracker_.SyncRect(fb_, clipped);
}

void ServerSession::DrawGlyphs(int32_t x, int32_t y, std::span<const GlyphBitmap* const> glyphs,
                               Pixel fg, Pixel bg) {
  MirrorVideo();
  const SimTime now = server_->simulator()->now();
  int32_t pen_x = x;
  Rect dirty{};
  for (const GlyphBitmap* glyph : glyphs) {
    SLIM_DCHECK(glyph != nullptr);
    const Rect dst{pen_x, y, glyph->width, glyph->height};
    fb_.ExpandBitmap(dst, glyph->bits, fg, bg);
    dirty = BoundingUnion(dirty, Intersect(dst, fb_.bounds()));
    pen_x += glyph->width;
  }
  if (!dirty.empty()) {
    damage_.Add(dirty);
  }
  render_time_ += ServerCpuModel::RenderCost(dirty.area(), static_cast<int>(glyphs.size()));
  log_.RecordXRequest(now, XDrawTextBytes(static_cast<int>(glyphs.size())));
}

void ServerSession::PutImage(const Rect& r, std::span<const Pixel> pixels) {
  const Rect clipped = Intersect(r, fb_.bounds());
  if (clipped.empty()) {
    return;
  }
  MirrorVideo();
  const SimTime now = server_->simulator()->now();
  fb_.SetPixels(r, pixels);
  damage_.Add(clipped);
  render_time_ += ServerCpuModel::RenderCost(clipped.area());
  log_.RecordXRequest(now, XPutImageBytes(clipped.area()));
}

void ServerSession::CopyArea(int32_t src_x, int32_t src_y, const Rect& dst) {
  const Rect clipped = Intersect(dst, fb_.bounds());
  if (clipped.empty()) {
    return;
  }
  // Clipping the destination must shift the source origin by the same amount, or the copied
  // pixels land misaligned relative to what the caller asked for.
  const int32_t shifted_src_x = src_x + (clipped.x - dst.x);
  const int32_t shifted_src_y = src_y + (clipped.y - dst.y);
  const SimTime now = server_->simulator()->now();
  // The copy reads the current screen, so a transmitted frame must be mirrored and any
  // not-yet-encoded damage encoded first, to keep the console's command stream in order.
  MirrorVideo();
  EncodeDamageToPending();
  fb_.CopyRect(shifted_src_x, shifted_src_y, clipped);
  render_time_ += ServerCpuModel::CopyCost(clipped.area());
  log_.RecordXRequest(now, XCopyAreaBytes());
  const Rect src_rect{shifted_src_x, shifted_src_y, clipped.w, clipped.h};
  if (fb_.bounds().ContainsRect(src_rect)) {
    pending_.emplace_back(std::in_place_type<CopyCommand>, shifted_src_x, shifted_src_y,
                          clipped);
    // Damage was encoded (and the shadow synced) just above, so copying the already-
    // updated fb pixels into the shadow equals applying the COPY the console will apply.
    tracker_.SyncRect(fb_, clipped);
  } else {
    // The console rejects COPYs that read out of bounds, so send the result literally:
    // CopyRect already wrote the (partially black-padded) pixels, mark them damaged and let
    // the encoder pick the representation.
    damage_.Add(clipped);
  }
}

void ServerSession::SendVideoFrame(const YuvImage& frame, const Rect& dst, CscsDepth depth) {
  CscsCommand cmd;
  cmd.src_w = frame.width();
  cmd.src_h = frame.height();
  cmd.dst = Intersect(dst, fb_.bounds());
  cmd.depth = depth;
  // The console's scaler only enlarges, so it rejects a frame clipped below its source
  // size; drop that frame here too, or the server would mirror a frame no console shows.
  if (cmd.dst.empty() || cmd.src_w > cmd.dst.w || cmd.src_h > cmd.dst.h) {
    return;
  }
  cmd.payload = PackCscsPayload(frame, depth);
  if (ShouldStageVideo()) {
    // The video flow's bucket is too far ahead of the clock: stage instead of queue, and
    // let a newer frame supersede this one — stale video is worthless by the time the
    // wire would take it, and dropping it is what frees the link (Section 7's allocator
    // assumes the video library adapts its rate to its grant).
    ++video_deferred_;
    ++server_->pacing_stats().video_deferred;
    if (staged_video_.has_value()) {
      ++video_dropped_;
      ++server_->pacing_stats().video_dropped;
    }
    staged_video_ = std::move(cmd);
    ArmPaceRetry();
    return;
  }
  TransmitVideoFrame(std::move(cmd));
}

void ServerSession::TransmitVideoFrame(CscsCommand cmd) {
  const SimTime now = server_->simulator()->now();
  const Rect dst = cmd.dst;
  // The previous frame must reach fb_ first unless this one rewrites all of its pixels.
  if (unmirrored_video_.has_value() && unmirrored_video_->dst != dst) {
    MirrorVideo();
  }
  damage_.Subtract(dst);
  log_.RecordXRequest(now, XVideoFrameBytes(dst.w, dst.h));
  // CSCS bypasses the encoder. The session keeps the frame instead of decoding it; a newer
  // frame at this dst may replace it before anything reads the framebuffer.
  unmirrored_video_ = cmd;
  pending_.push_back(std::move(cmd));
  Flush();
}

void ServerSession::MirrorVideo() const {
  if (!unmirrored_video_.has_value()) {
    return;
  }
  // The console's own decode keeps the server's true framebuffer equal to what the console
  // displays.
  const Rect dst = unmirrored_video_->dst;
  const bool applied = ApplyCommand(DisplayCommand(std::move(*unmirrored_video_)), &fb_);
  SLIM_DCHECK(applied);
  (void)applied;
  unmirrored_video_.reset();
  tracker_.SyncRect(fb_, dst);
}

void ServerSession::SendAudio(uint32_t sample_rate, std::span<const uint8_t> samples) {
  if (!attached()) {
    return;
  }
  AudioMsg msg;
  msg.sample_rate = sample_rate;
  msg.samples.assign(samples.begin(), samples.end());
  server_->Transmit(console_, id_, std::move(msg), 0);
}

void ServerSession::Flush() {
  if (ShouldDeferFlush()) {
    // Under pressure the damage region keeps absorbing updates (overlapping dirt merges
    // for free) and is encoded once, when the queue drains — against the same shadow
    // frame, so the bytes that eventually go out are exactly what an unpaced flush of the
    // final state would have sent. Anything already encoded still goes now: those
    // commands are committed to the shadow and must not be reordered around.
    damage_.Coalesce(8);
    ++coalesced_flushes_;
    ++server_->pacing_stats().coalesced_flushes;
    ArmPaceRetry();
    TransmitPending();
    return;
  }
  EncodeDamageToPending();
  TransmitPending();
}

bool ServerSession::ShouldStageVideo() const {
  const PacingOptions& p = server_->options().pacing;
  return p.enabled && p.adapt && attached() &&
         server_->tx_queue().PaceBacklog(video_flow()) > kPaceBacklogWatermark;
}

bool ServerSession::ShouldDeferFlush() const {
  const PacingOptions& p = server_->options().pacing;
  if (!p.enabled || !p.adapt || !attached() || damage_.empty()) {
    return false;
  }
  const TransmitQueue& tx = server_->tx_queue();
  return tx.depth(id_) > kCoalesceWatermark ||
         tx.PaceBacklog(interactive_flow()) > kPaceBacklogWatermark;
}

void ServerSession::ArmPaceRetry() {
  if (pace_retry_armed_) {
    return;
  }
  const TransmitQueue& tx = server_->tx_queue();
  const SimTime now = server_->simulator()->now();
  SimTime at = std::numeric_limits<SimTime>::max();
  if (staged_video_.has_value()) {
    at = std::min(at, now + std::max<SimDuration>(
                           tx.PaceBacklog(video_flow()) - kPaceBacklogWatermark, 0));
  }
  if (!damage_.empty()) {
    at = std::min(at, now + std::max<SimDuration>(
                           tx.PaceBacklog(interactive_flow()) - kPaceBacklogWatermark, 0));
  }
  if (at == std::numeric_limits<SimTime>::max()) {
    return;
  }
  // Clamped away from `now`: a depth-triggered deferral has no flow ETA, and retrying in
  // the same instant would spin. Each retry either makes progress or re-arms >= 1ms out.
  at = std::max(at, now + kMillisecond);
  pace_retry_armed_ = true;
  server_->SchedulePaceRetry(id_, at);
}

void ServerSession::OnPaceRetry() {
  pace_retry_armed_ = false;
  if (!attached()) {
    // Whatever was deferred was for a console this session no longer has; the staged
    // frame (if any) was already dropped by ClearPacedState.
    staged_video_.reset();
    return;
  }
  if (staged_video_.has_value() && !ShouldStageVideo()) {
    CscsCommand cmd = std::move(*staged_video_);
    staged_video_.reset();
    TransmitVideoFrame(std::move(cmd));
  }
  if (!damage_.empty()) {
    Flush();  // re-checks deferral and re-arms if still over the watermark
  }
  if ((staged_video_.has_value() || !damage_.empty()) && !pace_retry_armed_) {
    ArmPaceRetry();
  }
}

void ServerSession::RepaintAll() {
  damage_.Clear();
  damage_.Add(fb_.bounds());
}

void ServerSession::ForceRepaintAll() {
  tracker_.Invalidate();
  RepaintAll();
}

void ServerSession::EncodeDamageToPending() {
  if (damage_.empty()) {
    return;
  }
  // Refine reads fb_ and the shadow, the scroll detector even outside the damage.
  MirrorVideo();
  damage_.Coalesce(64);
  // Trim the damage to what actually differs from the last-transmitted frame, salvaging
  // large vertical scrolls as COPY commands. The scroll COPYs must precede the commands
  // encoded from the refined residual, which diffs against the post-copy display state.
  std::vector<DisplayCommand> scroll_cmds;
  const Region refined = tracker_.Refine(fb_, damage_, kScrollMaxShift, &scroll_cmds);
  for (auto& cmd : scroll_cmds) {
    pending_.push_back(std::move(cmd));
  }
  if (!refined.empty()) {
    std::vector<DisplayCommand> cmds = encoder_.EncodeDamage(fb_, refined);
    int64_t pixels = 0;
    for (auto& cmd : cmds) {
      pixels += AffectedPixels(cmd);
      pending_.push_back(std::move(cmd));
    }
    encode_time_ += ServerCpuModel::EncodeCost(pixels, static_cast<int>(cmds.size()));
  }
  damage_.Clear();
}

void ServerSession::TransmitPending() {
  const SimTime now = server_->simulator()->now();
  Encoder::Accumulate(pending_, encode_stats_);
  for (DisplayCommand& cmd : pending_) {
    const size_t bytes = WireSize(cmd);
    log_.RecordCommand(now, cmd);
    ++commands_sent_;
    bytes_sent_ += static_cast<int64_t>(bytes);
    const SimDuration wire_cost = ServerCpuModel::WireCost(static_cast<int64_t>(bytes));
    wire_time_ += wire_cost;
    if (attached()) {
      // CSCS frames bill the video library's flow; every other display command is the
      // display server's interactive traffic. With pacing off the transmit queue has no
      // pacer for either id and the flow tag is inert.
      const uint64_t flow =
          std::holds_alternative<CscsCommand>(cmd) ? video_flow() : interactive_flow();
      std::visit(
          [&](auto& body) {
            server_->Transmit(console_, id_, std::move(body), wire_cost, flow);
          },
          cmd);
    }
  }
  pending_.clear();
}

}  // namespace slim
