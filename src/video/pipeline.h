// Media pipeline: paces frames from a producer through a ServerSession's CSCS path.
//
// Models one media application instance running on one server CPU (the paper's players are
// single-threaded): a frame timer fires at the target rate; if the CPU is still producing or
// transmitting the previous frame, the tick is dropped — exactly how the paper's players
// degrade to 16-21 Hz when the server is the bottleneck. Frame production cost comes from
// the caller (decode/translate model), transmission CPU cost from VideoCpuModel::SendCost.

#ifndef SRC_VIDEO_PIPELINE_H_
#define SRC_VIDEO_PIPELINE_H_

#include <functional>

#include "src/server/session.h"
#include "src/sim/simulator.h"
#include "src/video/video_source.h"

namespace slim {

struct MediaPipelineOptions {
  double target_fps = 30.0;
  CscsDepth depth = CscsDepth::k6;
  Rect dst;                // on-screen destination (console upscales if larger than frames)
  SimDuration run_for = Seconds(10);
};

class MediaPipeline {
 public:
  // Produces frame `index` and reports the server CPU cost of producing it.
  using FrameProducer = std::function<YuvImage(int index, SimDuration* cpu_cost)>;

  MediaPipeline(Simulator* sim, ServerSession* session, MediaPipelineOptions options,
                FrameProducer producer);

  void Start();

  int frames_sent() const { return frames_sent_; }
  int frames_dropped() const { return frames_dropped_; }
  int64_t bytes_sent() const { return bytes_sent_; }
  // The bandwidth this stream asked its console for at Start (0 before Start).
  int64_t offered_bps() const { return offered_bps_; }
  double AchievedFps() const;
  double AverageMbps() const;

 private:
  void Tick(int index);

  Simulator* sim_;
  ServerSession* session_;
  MediaPipelineOptions options_;
  FrameProducer producer_;
  SimTime started_at_ = 0;
  SimTime cpu_busy_until_ = 0;
  int frames_sent_ = 0;
  int frames_dropped_ = 0;
  int64_t bytes_sent_ = 0;
  int64_t offered_bps_ = 0;
};

}  // namespace slim

#endif  // SRC_VIDEO_PIPELINE_H_
