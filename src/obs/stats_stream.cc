#include "src/obs/stats_stream.h"

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace slim {

SnapshotStreamer::SnapshotStreamer(Simulator* sim, const MetricRegistry* registry,
                                   std::string path, SimDuration interval)
    : sim_(sim), registry_(registry), path_(std::move(path)), interval_(interval) {
  SLIM_CHECK(sim != nullptr && registry != nullptr && interval > 0);
  file_ = std::fopen(path_.c_str(), "w");
  if (file_ == nullptr) {
    std::fprintf(stderr, "[stats] cannot open %s for writing\n", path_.c_str());
    return;
  }
  Arm();
}

SnapshotStreamer::~SnapshotStreamer() { Stop(); }

void SnapshotStreamer::Arm() {
  // Daemon: a periodic sampler must never be the reason sim.Run() keeps going.
  event_ = sim_->ScheduleDaemon(interval_, [this] {
    event_ = kInvalidEventId;
    WriteSample();
    Arm();
  });
}

void SnapshotStreamer::WriteSample() {
  if (file_ == nullptr) {
    return;
  }
  JsonObject line;
  line.emplace_back("sample", JsonValue(samples_));
  line.emplace_back("t_ns", JsonValue(sim_->now()));
  line.emplace_back("snapshot", registry_->Snapshot());
  const std::string out = JsonValue(std::move(line)).Dump(0) + "\n";
  std::fwrite(out.data(), 1, out.size(), file_);
  std::fflush(file_);  // a live slimtop -f should see the sample immediately
  ++samples_;
}

void SnapshotStreamer::Stop() {
  if (event_ != kInvalidEventId) {
    sim_->Cancel(event_);
    event_ = kInvalidEventId;
  }
  if (file_ != nullptr) {
    WriteSample();  // end-of-run state
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace slim
