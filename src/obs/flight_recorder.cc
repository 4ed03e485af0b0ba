#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <map>
#include <vector>

namespace slim {

FlightRecorder::FlightRecorder(size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {
  events_.reserve(capacity_);
}

void FlightRecorder::Push(Event event) {
  Stamp(&event);
  ++total_recorded_;
  if (events_.size() < capacity_) {
    events_.push_back(std::move(event));
    return;
  }
  events_[write_] = std::move(event);
  write_ = (write_ + 1) % capacity_;
}

std::string FlightRecorder::Json() const {
  std::vector<const Event*> ordered;
  ordered.reserve(events_.size());
  for (const Event& e : events_) {
    ordered.push_back(&e);
  }
  std::stable_sort(ordered.begin(), ordered.end(), [](const Event* a, const Event* b) {
    if (a->ts != b->ts) {
      return a->ts < b->ts;
    }
    return a->seq < b->seq;
  });

  // Balance filter: walk each tid's events in order, matching E's against a stack of open
  // B's. An E with an empty stack lost its B to the ring; a B left on a stack at the end
  // lost its E (overwritten, or simply not yet recorded at dump time). Both are dropped.
  std::vector<char> keep(ordered.size(), 1);
  std::map<int, std::vector<size_t>> open;  // per-tid indices into `ordered` of open B's
  for (size_t i = 0; i < ordered.size(); ++i) {
    const Event* e = ordered[i];
    if (e->ph == 'B') {
      open[e->tid].push_back(i);
    } else if (e->ph == 'E') {
      auto& stack = open[e->tid];
      if (stack.empty()) {
        keep[i] = 0;  // orphaned end
      } else {
        stack.pop_back();
      }
    }
  }
  for (const auto& [tid, stack] : open) {
    for (const size_t i : stack) {
      keep[i] = 0;  // unclosed begin
    }
  }
  std::vector<const Event*> balanced;
  balanced.reserve(ordered.size());
  for (size_t i = 0; i < ordered.size(); ++i) {
    if (keep[i]) {
      balanced.push_back(ordered[i]);
    }
  }
  return EmitJson(balanced);
}

ScopedFlightRecorder::ScopedFlightRecorder() {
  if (Tracer::Global() != nullptr) {
    return;  // a full capture is already recording strictly more
  }
  recorder_ = std::make_unique<FlightRecorder>();
  recorder_->SetThreadName(kTraceTidInput, "input");
  recorder_->SetThreadName(kTraceTidServer, "server pipeline");
  recorder_->SetThreadName(kTraceTidConsole, "console decode");
  Tracer::SetGlobal(recorder_.get());
}

ScopedFlightRecorder::~ScopedFlightRecorder() {
  if (recorder_ != nullptr && Tracer::Global() == recorder_.get()) {
    Tracer::SetGlobal(nullptr);
  }
}

}  // namespace slim
