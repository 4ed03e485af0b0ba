#include "src/video/pipeline.h"

#include <algorithm>

#include "src/util/check.h"

namespace slim {

MediaPipeline::MediaPipeline(Simulator* sim, ServerSession* session,
                             MediaPipelineOptions options, FrameProducer producer)
    : sim_(sim), session_(session), options_(options), producer_(std::move(producer)) {
  SLIM_CHECK(sim != nullptr && session != nullptr);
  SLIM_CHECK(options.target_fps > 0.0);
  SLIM_CHECK(!options.dst.empty());
}

void MediaPipeline::Start() {
  started_at_ = sim_->now();
  // Section 7: applications request console bandwidth based on their needs. The library
  // knows its real offered rate (destination-sized CSCS payloads at the target fps), so it
  // replaces the server's attach-time default request with the honest number. A no-op when
  // pacing is off or the session is detached.
  const auto frame_bytes = static_cast<int64_t>(
      CscsPayloadBytes(options_.dst.w, options_.dst.h, options_.depth));
  offered_bps_ = static_cast<int64_t>(static_cast<double>(frame_bytes) * 8.0 *
                                      options_.target_fps);
  session_->RequestFlowBandwidth(session_->video_flow(), offered_bps_);
  Tick(0);
}

void MediaPipeline::Tick(int index) {
  // Frame pacing with catch-up: the player never runs ahead of the target rate, but when
  // production is slower than the frame period it produces back to back, skipping the
  // source frames whose presentation time has already passed (a real player drops frames to
  // keep audio sync rather than slipping ever further behind).
  const auto period = static_cast<SimDuration>(kSecond / options_.target_fps);
  if (sim_->now() - started_at_ >= options_.run_for) {
    return;
  }
  const SimTime due = started_at_ + static_cast<SimDuration>(index) * period;
  if (sim_->now() < due) {
    sim_->ScheduleAt(due, [this, index] { Tick(index); });
    return;
  }

  SimDuration produce_cost = 0;
  YuvImage frame = producer_(index, &produce_cost);
  const auto payload_bytes =
      static_cast<int64_t>(CscsPayloadBytes(frame.width(), frame.height(), options_.depth));
  const SimDuration send_cost = VideoCpuModel::SendCost(payload_bytes);
  cpu_busy_until_ = sim_->now() + produce_cost + send_cost;
  bytes_sent_ += payload_bytes;
  ++frames_sent_;
  sim_->ScheduleAt(cpu_busy_until_, [this, index, period, f = std::move(frame)]() {
    session_->SendVideoFrame(f, options_.dst, options_.depth);
    // Next frame: the first index whose presentation time has not passed, or the immediate
    // successor when we are keeping up.
    const auto elapsed = sim_->now() - started_at_;
    // Largest frame index whose presentation time has already passed: when we are late,
    // jump straight to it and produce immediately.
    const int latest_due = static_cast<int>(elapsed / period);
    const int next = std::max(index + 1, latest_due);
    frames_dropped_ += next - (index + 1);
    Tick(next);
  });
}

double MediaPipeline::AchievedFps() const {
  const SimDuration elapsed = sim_->now() - started_at_;
  if (elapsed <= 0) {
    return 0.0;
  }
  return frames_sent_ / ToSeconds(elapsed);
}

double MediaPipeline::AverageMbps() const {
  const SimDuration elapsed = sim_->now() - started_at_;
  if (elapsed <= 0) {
    return 0.0;
  }
  return static_cast<double>(bytes_sent_) * 8.0 / ToSeconds(elapsed) / 1e6;
}

}  // namespace slim
