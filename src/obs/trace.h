// Sim-time pipeline tracer emitting Chrome trace_event JSON.
//
// The output loads directly in Perfetto / chrome://tracing: every pipeline stage — input
// dispatch -> app render -> encode -> transport send/frag/replay -> console decode ->
// present — becomes a span on a named track, correlated by a per-input-event id carried in
// the span args, so one Figure-7 service time decomposes visually into its stage costs
// (including NACK/replay stalls under a chaos fabric).
//
// Events are buffered in memory, stamped with the *simulated* clock (ns, emitted as the
// trace format's microseconds), and sorted by timestamp on write — completion-style events
// are recorded when their end is known, which is after later-starting events may already
// have been recorded. Tracing is off by default and costs one null-pointer check per
// instrumentation point: the deep layers consult Tracer::Global(), which a harness
// installs (through ScopedTraceFile) only when asked for a trace file.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/util/time.h"

namespace slim {

// Conventional track (tid) assignments so traces from every harness read the same way.
// Transport endpoints add their fabric NodeId to kTraceTidTransportBase, giving each
// endpoint its own replay/stall track.
constexpr int kTraceTidInput = 1;
constexpr int kTraceTidServer = 2;
constexpr int kTraceTidConsole = 3;
constexpr int kTraceTidTransportBase = 16;

class Tracer {
 public:
  Tracer() = default;
  virtual ~Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- Event emission (ts is simulated time in ns) ---
  void Begin(SimTime ts, std::string name, std::string cat, int tid, JsonObject args = {});
  // Ends the innermost open span on `tid`. Unbalanced Ends are dropped (never emitted), so
  // the output always carries balanced B/E pairs.
  void End(SimTime ts, int tid);
  // A span whose duration is known at record time (e.g. console decode: queued-at ->
  // completion), free of B/E nesting constraints.
  void Complete(SimTime start, SimDuration dur, std::string name, std::string cat, int tid,
                JsonObject args = {});
  void Instant(SimTime ts, std::string name, std::string cat, int tid, JsonObject args = {});
  void SetThreadName(int tid, std::string name);

  // --- Input-event correlation ---
  // The id of the input event currently being dispatched; spans recorded while it is set
  // attach it as args.input_id. -1 = none.
  void set_current_input(int64_t id) { current_input_ = id; }
  int64_t current_input() const { return current_input_; }
  int64_t NextInputId() { return ++last_input_id_; }

  size_t event_count() const { return events_.size(); }
  // Number of B spans still open (for tests; a finished pipeline trace should report 0).
  size_t open_spans() const;

  // Serializes the buffered events as a Chrome trace JSON array, sorted by timestamp
  // (metadata first). Safe to call repeatedly. The FlightRecorder subclass overrides this
  // to additionally drop B/E halves whose partner was overwritten by the ring.
  virtual std::string Json() const;
  bool WriteFile(const std::string& path) const;

  // --- Process-global tracer ---
  // Deep layers (transport, console, session) consult this; null means tracing is off and
  // the instrumentation point costs one branch.
  static Tracer* Global() { return global_; }
  static void SetGlobal(Tracer* tracer) { global_ = tracer; }

 protected:
  struct Event {
    SimTime ts = 0;
    SimDuration dur = 0;
    char ph = 'i';
    int tid = 0;
    std::string name;
    std::string cat;
    JsonObject args;
    uint64_t seq = 0;  // record order; ties on ts sort by it
  };

  // Stamps record order + input-id correlation; every emission funnels through here.
  void Stamp(Event* event);
  // Storage policy: the base class appends without bound; the flight recorder overwrites
  // its ring's oldest slot.
  virtual void Push(Event event);
  // Shared serializer: metadata records then `ordered`, already sorted by (ts, seq).
  std::string EmitJson(const std::vector<const Event*>& ordered) const;

  std::vector<Event> events_;
  std::map<int, std::vector<std::string>> open_;  // per-tid stack of open B span names
  std::map<int, std::string> thread_names_;
  int64_t current_input_ = -1;
  int64_t last_input_id_ = 0;
  uint64_t next_seq_ = 0;

 private:
  static Tracer* global_;
};

// Installs a global tracer for the lifetime of the object when `path` is non-empty;
// writes the trace to `path` and uninstalls on destruction. Harness mains hold one of
// these, so runs that ask for no trace (empty path) pay zero cost.
class ScopedTraceFile {
 public:
  explicit ScopedTraceFile(std::string path);
  ~ScopedTraceFile();
  ScopedTraceFile(const ScopedTraceFile&) = delete;
  ScopedTraceFile& operator=(const ScopedTraceFile&) = delete;

  bool enabled() const { return tracer_ != nullptr; }
  Tracer* tracer() { return tracer_.get(); }

 private:
  std::string path_;
  std::unique_ptr<Tracer> tracer_;
};

}  // namespace slim

#endif  // SRC_OBS_TRACE_H_
