// Measurement machinery shared by the benchmark's workloads.
//
// Everything here is benchmark-owned: the host clock, the interleaved drift probe that
// host timings are normalized by, the in-memory span recorder of the traced run, the
// ledger that matches each op to the display commands its handling queued, and the
// percentile rule. The library is reached only through its public headers.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "src/util/time.h"

namespace perfbench {

// Monotonic host clock in nanoseconds.
int64_t HostNs();

// A fixed piece of work owned by the benchmark: one strided pass over a 32 MB buffer (one
// 8-byte read per cache line) and three passes of a per-pixel float conversion (YUV to
// RGB with clamping and rounding, the shape of the video path) over 64K pixels, about
// 7 ms on the reference host. Its duration tracks how fast the shared host runs at the
// moment, so each round's op timings are scaled by kNominalNs / (the median probe time
// during that round), and set-up times by the run's median. It runs between ops, never
// inside one, and is excluded from every timing.
//
// Why these two parts: over 9-18 rounds of one seed on the reference host, round host
// time correlated with the sum at 0.92 (desktop), 0.95 (video) and 0.80 (roaming), and
// normalizing by it cut the round-to-round spread from 6.8% to 2.7%, 7.3% to 2.4% and
// 5.5% to 3.6%. Either part alone, or an L1-resident hash loop, did worse on at least
// one workload.
class Probe {
 public:
  // Probe time on the reference host (4-core x86-64 VM); normalized timings read in that
  // host's units.
  static constexpr double kNominalNs = 7.0e6;
  // Host time between two probes.
  static constexpr int64_t kIntervalNs = 200'000'000;

  Probe();
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  // Runs the probe when kIntervalNs has passed since the previous run.
  void MaybeRun();
  void Run();

  const std::vector<int64_t>& samples() const { return samples_; }
  // Median of samples()[from..]; kNominalNs when there are none.
  double MedianNs(size_t from = 0) const;

 private:
  std::vector<uint64_t> buffer_;
  std::vector<uint8_t> planes_;  // Y, U and V planes of kProbePixels each
  std::vector<uint32_t> rgb_;
  std::vector<int64_t> samples_;
  int64_t last_ns_ = 0;
  uint64_t sink_ = 0;
};

// Every library call the benchmark wraps in a span. The name is the public function.
enum class Call : uint8_t {
  kRun,
  kRunUntil,
  kRunFor,
  kOnKey,
  kOnClick,
  kFlush,
  kSendVideoFrame,
  kFrame,
  kField,
  kSendKey,
  kSendMouse,
  kInsertCard,
  kComparePixels,
  kCount,
};

// The layer a call's self time is charged to.
enum class Layer : uint8_t {
  kApps,          // content producers: application handlers and the video source
  kServer,        // ServerSession encode/queue paths
  kConsoleInput,  // console input devices
  kSim,           // event loop, including fabric, transport and console decode
  kBench,         // the benchmark's own pixel comparisons inside a timed op
  kCount,
};

const char* CallName(Call call);
const char* LayerName(Layer layer);
Layer LayerOf(Call call);

// In-memory spans of the traced run. Disabled, Open/Close cost one branch. Spans nest
// strictly (one thread), so a span's self time is its duration minus its direct
// children's durations; self times are summed per layer as spans close.
class SpanRecorder {
 public:
  struct Span {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t op = -1;
    int32_t parent = -1;
    Call call = Call::kRun;
  };

  // At most this many spans are kept for the trace file; self times cover all of them.
  static constexpr size_t kMaxKeptSpans = 100'000;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_op(int64_t op) { op_ = op; }

  // Open returns -1 when disabled. Close ends the innermost open span (spans nest) and
  // does nothing for -1, so a span opened while disabled stays unrecorded.
  int32_t Open(Call call);
  void Close(int32_t token);

  int64_t self_ns(Layer layer) const { return self_ns_[static_cast<size_t>(layer)]; }
  int64_t root_ns() const { return root_ns_; }
  int64_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Writes the kept spans as Chrome trace JSON (host ns from the first span).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct OpenSpan {
    int32_t kept = -1;  // index into spans_, or -1 when over the cap
    int64_t start_ns = 0;
    int64_t child_ns = 0;
    Call call = Call::kRun;
  };

  bool enabled_ = false;
  int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<OpenSpan> stack_;
  std::array<int64_t, static_cast<size_t>(Layer::kCount)> self_ns_{};
  int64_t root_ns_ = 0;
  int64_t dropped_ = 0;
};

// RAII span; a no-op when the recorder is disabled.
class Scoped {
 public:
  Scoped(SpanRecorder* rec, Call call) : rec_(rec), token_(rec->Open(call)) {}
  ~Scoped() { rec_->Close(token_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t token_;
};

// Host time per op. Boundary() is called right before each op is injected: the previous
// op's time runs from its own boundary to this one. The probe runs inside the boundary,
// between the two stamps, so no op is charged for it.
class OpClock {
 public:
  explicit OpClock(Probe* probe) : probe_(probe) {}

  void Boundary();
  // Closes the last op (after the final drain).
  void End();

  const std::vector<int64_t>& op_ns() const { return op_ns_; }
  int64_t total_ns() const { return total_ns_; }

 private:
  Probe* probe_;
  bool open_ = false;
  int64_t start_ns_ = 0;
  int64_t total_ns_ = 0;
  std::vector<int64_t> op_ns_;
};

// Matches ops to the display commands their handling queued. One stream is one
// session->console display path. ServerSession::commands_sent() counts every command as
// it is queued, the transmit queue keeps them in order, and the console applies each
// once, so an op's update is complete when the console's applied count reaches the
// session's count right after the op's handler returned. Sync() must be called when the
// stream is quiescent (everything queued has been applied).
class DisplayLedger {
 public:
  static constexpr slim::SimDuration kUnresolved = -1;
  static constexpr slim::SimDuration kNoUpdate = -2;

  explicit DisplayLedger(size_t streams) : streams_(streams) {}

  void Sync(size_t stream, int64_t commands_sent);
  // The op's handler ran; `before`/`after` are commands_sent() around it.
  void Expect(size_t stream, int64_t before, int64_t after, slim::SimTime due, int64_t op);
  // Console apply callback for the stream.
  void OnApplied(size_t stream, slim::SimTime now);

  // Per-op latency in sim ns (kUnresolved / kNoUpdate otherwise); ops are numbered from 0.
  const std::vector<slim::SimDuration>& latency() const { return latency_; }
  void Reserve(size_t ops) { latency_.assign(ops, kUnresolved); }

 private:
  struct Pending {
    int64_t target = 0;
    slim::SimTime due = 0;
    int64_t op = 0;
  };
  struct Stream {
    int64_t applied = 0;
    int64_t base = 0;
    std::deque<Pending> pending;
  };
  std::vector<Stream> streams_;
  std::vector<slim::SimDuration> latency_;
};

// Nearest-rank percentile of `samples` (fraction p in (0,1)), reported only when at least
// kMinBeyond samples lie above the rank, the rule every printed percentile follows.
constexpr size_t kMinBeyond = 10;
std::optional<double> Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// Peak resident set of this process in MB (getrusage maxrss).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
