// Always-on, bounded-memory sibling of the Chrome-trace Tracer.
//
// A full Tracer buffers every event for the whole run, which is the right tool for a
// planned capture and the wrong one for "what happened just before the first bad
// keystroke of a two-hour soak". The FlightRecorder keeps the same event model and the same emission
// points (it IS a Tracer, installed through Tracer::SetGlobal, so every existing
// instrumentation site feeds it unchanged) but stores events in a fixed-capacity ring,
// overwriting the oldest — bounded memory, no file until someone asks. The LatencyAudit
// dumps it on an SLO breach, a transport give-up, or a forced detach, so the trace around
// the incident survives without paying for the rest of the run.
//
// Ring overwrite can orphan one half of a B/E pair (the B falls off the ring while its E
// survives, or a dump happens between B and E). Json() therefore balance-filters: per tid,
// in (ts, seq) order, an E with no surviving B is dropped and a B with no surviving E is
// dropped, so the dump always loads cleanly in Perfetto.

#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/obs/trace.h"

namespace slim {

class FlightRecorder : public Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  size_t capacity() const { return capacity_; }
  // Events ever recorded, including those since overwritten.
  uint64_t total_recorded() const { return total_recorded_; }
  // Events currently held in the ring.
  size_t size() const { return events_.size(); }

  // Balance-filtered Chrome trace JSON of the ring's current contents.
  std::string Json() const override;

 protected:
  void Push(Event event) override;

 private:
  size_t capacity_;
  size_t write_ = 0;  // next slot to overwrite once the ring is full
  uint64_t total_recorded_ = 0;
};

// Installs a FlightRecorder of kDefaultCapacity events as the process-global tracer for
// the lifetime of the object — but only when no tracer is already installed (a full
// capture outranks the ring: it records strictly more).
class ScopedFlightRecorder {
 public:
  ScopedFlightRecorder();
  ~ScopedFlightRecorder();
  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;

  // The recorder this scope installed; null when a full tracer was already global.
  FlightRecorder* recorder() { return recorder_.get(); }

 private:
  std::unique_ptr<FlightRecorder> recorder_;
};

}  // namespace slim

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
