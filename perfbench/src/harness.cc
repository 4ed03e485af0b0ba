#include "perfbench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/obs/json.h"
#include "src/obs/trace.h"

namespace perfbench {

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kProbeBytes = 32u << 20;
constexpr size_t kProbeStrideWords = 8;  // one read per 64-byte line
constexpr size_t kProbePixels = 64u << 10;
constexpr int kProbeConvertPasses = 3;

}  // namespace

Probe::Probe()
    : buffer_(kProbeBytes / sizeof(uint64_t)), planes_(3 * kProbePixels), rgb_(kProbePixels) {
  for (size_t i = 0; i < buffer_.size(); ++i) {
    buffer_[i] = i * 0x9e3779b97f4a7c15ull;
  }
  for (size_t i = 0; i < planes_.size(); ++i) {
    planes_[i] = static_cast<uint8_t>(i * 131u + 7u);
  }
}

void Probe::MaybeRun() {
  if (HostNs() - last_ns_ >= kIntervalNs) {
    Run();
  }
}

void Probe::Run() {
  const int64_t start = HostNs();
  uint64_t acc = sink_;
  for (size_t i = 0; i < buffer_.size(); i += kProbeStrideWords) {
    acc += buffer_[i];
  }
  const uint8_t* y = planes_.data();
  const uint8_t* u = y + kProbePixels;
  const uint8_t* v = u + kProbePixels;
  for (int pass = 0; pass < kProbeConvertPasses; ++pass) {
    for (size_t i = 0; i < kProbePixels; ++i) {
      const double luma = y[i] + static_cast<double>(acc & 1);
      const double cb = u[i] - 128.0;
      const double cr = v[i] - 128.0;
      const long r = std::lround(std::clamp(luma + 1.402 * cr, 0.0, 255.0));
      const long g = std::lround(std::clamp(luma - 0.344 * cb - 0.714 * cr, 0.0, 255.0));
      const long b = std::lround(std::clamp(luma + 1.772 * cb, 0.0, 255.0));
      rgb_[i] = static_cast<uint32_t>((r << 16) | (g << 8) | b);
    }
    acc += rgb_[static_cast<size_t>(pass) * 7919 % kProbePixels];
  }
  sink_ = acc;
  last_ns_ = HostNs();
  samples_.push_back(last_ns_ - start);
}

double Probe::MedianNs(size_t from) const {
  if (from >= samples_.size()) {
    return kNominalNs;
  }
  return Median(std::vector<double>(samples_.begin() + static_cast<std::ptrdiff_t>(from),
                                    samples_.end()));
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

const char* CallName(Call call) {
  switch (call) {
    case Call::kRun:
      return "Simulator::Run";
    case Call::kRunUntil:
      return "Simulator::RunUntil";
    case Call::kRunFor:
      return "Simulator::RunFor";
    case Call::kOnKey:
      return "Application::OnKey";
    case Call::kOnClick:
      return "Application::OnClick";
    case Call::kFlush:
      return "ServerSession::Flush";
    case Call::kSendVideoFrame:
      return "ServerSession::SendVideoFrame";
    case Call::kFrame:
      return "SyntheticVideoSource::Frame";
    case Call::kField:
      return "SyntheticVideoSource::Field";
    case Call::kSendKey:
      return "Console::SendKey";
    case Call::kSendMouse:
      return "Console::SendMouse";
    case Call::kInsertCard:
      return "Console::InsertCard";
    case Call::kComparePixels:
      return "bench::ComparePixels";
    case Call::kCount:
      break;
  }
  return "unknown";
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kApps:
      return "apps";
    case Layer::kServer:
      return "server";
    case Layer::kConsoleInput:
      return "console.input";
    case Layer::kSim:
      return "sim";
    case Layer::kBench:
      return "bench";
    case Layer::kCount:
      break;
  }
  return "unknown";
}

Layer LayerOf(Call call) {
  switch (call) {
    case Call::kOnKey:
    case Call::kOnClick:
    case Call::kFrame:
    case Call::kField:
      return Layer::kApps;
    case Call::kFlush:
    case Call::kSendVideoFrame:
      return Layer::kServer;
    case Call::kSendKey:
    case Call::kSendMouse:
    case Call::kInsertCard:
      return Layer::kConsoleInput;
    case Call::kComparePixels:
      return Layer::kBench;
    case Call::kRun:
    case Call::kRunUntil:
    case Call::kRunFor:
    case Call::kCount:
      break;
  }
  return Layer::kSim;
}

int32_t SpanRecorder::Open(Call call) {
  if (!enabled_) {
    return -1;
  }
  OpenSpan open;
  open.call = call;
  if (spans_.size() < kMaxKeptSpans) {
    open.kept = static_cast<int32_t>(spans_.size());
    Span span;
    span.op = op_;
    span.call = call;
    span.parent = stack_.empty() ? -1 : stack_.back().kept;
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
  stack_.push_back(open);
  // Stamp last, so the bookkeeping above is not inside the span.
  stack_.back().start_ns = HostNs();
  return static_cast<int32_t>(stack_.size() - 1);
}

void SpanRecorder::Close(int32_t token) {
  if (token < 0) {
    return;
  }
  const int64_t end = HostNs();
  const OpenSpan open = stack_.back();
  stack_.pop_back();
  const int64_t dur = end - open.start_ns;
  self_ns_[static_cast<size_t>(LayerOf(open.call))] += dur - open.child_ns;
  if (stack_.empty()) {
    root_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  if (open.kept >= 0) {
    spans_[static_cast<size_t>(open.kept)].start_ns = open.start_ns;
    spans_[static_cast<size_t>(open.kept)].end_ns = end;
  }
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  // slim::Tracer serializes Complete events; it is used here as a plain writer with host
  // nanoseconds for timestamps and is never installed as Tracer::Global, so the
  // library's own simulated-time spans stay off.
  slim::Tracer tracer;
  tracer.SetThreadName(1, "benchmark (host time)");
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    tracer.Complete(s.start_ns - origin, s.end_ns - s.start_ns, CallName(s.call),
                    LayerName(LayerOf(s.call)), 1,
                    {{"op", slim::JsonValue(s.op)},
                     {"span", slim::JsonValue(static_cast<int64_t>(i))},
                     {"parent", slim::JsonValue(static_cast<int64_t>(s.parent))}});
  }
  return tracer.WriteFile(path);
}

// ---------------------------------------------------------------------------
// OpClock
// ---------------------------------------------------------------------------

void OpClock::Boundary() {
  End();
  probe_->MaybeRun();
  open_ = true;
  start_ns_ = HostNs();
}

void OpClock::End() {
  if (!open_) {
    return;
  }
  const int64_t ns = HostNs() - start_ns_;
  op_ns_.push_back(ns);
  total_ns_ += ns;
  open_ = false;
}

// ---------------------------------------------------------------------------
// DisplayLedger
// ---------------------------------------------------------------------------

void DisplayLedger::Sync(size_t stream, int64_t commands_sent) {
  Stream& s = streams_[stream];
  s.base = commands_sent - s.applied;
  s.pending.clear();
}

void DisplayLedger::Expect(size_t stream, int64_t before, int64_t after, slim::SimTime due,
                           int64_t op) {
  if (after == before) {
    latency_[static_cast<size_t>(op)] = kNoUpdate;
    return;
  }
  Stream& s = streams_[stream];
  s.pending.push_back(Pending{after - s.base, due, op});
}

void DisplayLedger::OnApplied(size_t stream, slim::SimTime now) {
  Stream& s = streams_[stream];
  ++s.applied;
  while (!s.pending.empty() && s.pending.front().target <= s.applied) {
    latency_[static_cast<size_t>(s.pending.front().op)] = now - s.pending.front().due;
    s.pending.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

std::optional<double> Percentile(std::vector<double> samples, double p) {
  const size_t n = samples.size();
  if (n == 0) {
    return std::nullopt;
  }
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  const size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < kMinBeyond) {
    return std::nullopt;
  }
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
