#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace slim {

Tracer* Tracer::global_ = nullptr;

void Tracer::Stamp(Event* event) {
  event->seq = next_seq_++;
  if (current_input_ >= 0) {
    // Attach the correlation id unless the caller already did.
    bool present = false;
    for (const auto& [k, v] : event->args) {
      if (k == "input_id") {
        present = true;
        break;
      }
    }
    if (!present) {
      event->args.emplace_back("input_id", JsonValue(current_input_));
    }
  }
}

void Tracer::Push(Event event) {
  Stamp(&event);
  events_.push_back(std::move(event));
}

void Tracer::Begin(SimTime ts, std::string name, std::string cat, int tid, JsonObject args) {
  open_[tid].push_back(name);
  Event e;
  e.ts = ts;
  e.ph = 'B';
  e.tid = tid;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.args = std::move(args);
  Push(std::move(e));
}

void Tracer::End(SimTime ts, int tid) {
  auto it = open_.find(tid);
  if (it == open_.end() || it->second.empty()) {
    return;  // unbalanced End: drop rather than corrupt the trace
  }
  Event e;
  e.ts = ts;
  e.ph = 'E';
  e.tid = tid;
  e.name = std::move(it->second.back());
  it->second.pop_back();
  Push(std::move(e));
}

void Tracer::Complete(SimTime start, SimDuration dur, std::string name, std::string cat,
                      int tid, JsonObject args) {
  Event e;
  e.ts = start;
  e.dur = dur < 0 ? 0 : dur;
  e.ph = 'X';
  e.tid = tid;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.args = std::move(args);
  Push(std::move(e));
}

void Tracer::Instant(SimTime ts, std::string name, std::string cat, int tid, JsonObject args) {
  Event e;
  e.ts = ts;
  e.ph = 'i';
  e.tid = tid;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.args = std::move(args);
  Push(std::move(e));
}

void Tracer::SetThreadName(int tid, std::string name) {
  thread_names_[tid] = std::move(name);
}

size_t Tracer::open_spans() const {
  size_t open = 0;
  for (const auto& [tid, stack] : open_) {
    open += stack.size();
  }
  return open;
}

namespace {

// Chrome trace timestamps are microseconds; the sim clock is nanoseconds. Emitting
// fractional microseconds keeps sub-us events (transport fragments) distinguishable.
void AppendTs(std::string* out, const char* key, SimTime ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.3f", key, static_cast<double>(ns) / 1000.0);
  *out += buf;
}

}  // namespace

std::string Tracer::Json() const {
  // Sort by (ts, record order). B/E pairs stay balanced under the sort because an E is
  // recorded after its B with ts >= the B's ts.
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
  return EmitJson(ordered);
}

std::string Tracer::EmitJson(const std::vector<const Event*>& ordered) const {
  std::string out = "[\n";
  bool first = true;
  const auto comma = [&] {
    if (!first) {
      out += ",\n";
    }
    first = false;
  };
  for (const auto& [tid, name] : thread_names_) {
    comma();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":" + JsonQuote(name) + "}}";
  }
  for (const Event* e : ordered) {
    comma();
    out += "{\"ph\":\"";
    out.push_back(e->ph);
    out += "\",\"pid\":1,\"tid\":" + std::to_string(e->tid) + ",";
    AppendTs(&out, "ts", e->ts);
    if (e->ph == 'X') {
      out += ",";
      AppendTs(&out, "dur", e->dur);
    }
    if (e->ph == 'i') {
      out += ",\"s\":\"t\"";  // thread-scoped instant
    }
    out += ",\"name\":" + JsonQuote(e->name);
    if (!e->cat.empty()) {
      out += ",\"cat\":" + JsonQuote(e->cat);
    }
    if (!e->args.empty()) {
      out += ",\"args\":" + JsonValue(e->args).Dump();
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

bool Tracer::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[trace] cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string json = Json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

TraceSpan::TraceSpan(Simulator* sim, std::string name, std::string cat, int tid,
                     JsonObject args)
    : sim_(sim), tracer_(Tracer::Global()), tid_(tid) {
  if (tracer_ != nullptr) {
    tracer_->Begin(sim_->now(), std::move(name), std::move(cat), tid_, std::move(args));
  }
}

TraceSpan::~TraceSpan() {
  if (tracer_ != nullptr) {
    tracer_->End(sim_->now(), tid_);
  }
}

ScopedTraceFile::ScopedTraceFile(std::string path) : path_(std::move(path)) {
  if (path_.empty()) {
    return;
  }
  tracer_ = std::make_unique<Tracer>();
  tracer_->SetThreadName(kTraceTidInput, "input");
  tracer_->SetThreadName(kTraceTidServer, "server pipeline");
  tracer_->SetThreadName(kTraceTidConsole, "console decode");
  Tracer::SetGlobal(tracer_.get());
  std::fprintf(stderr, "[trace] recording sim-time trace to %s\n", path_.c_str());
}

ScopedTraceFile::~ScopedTraceFile() {
  if (tracer_ == nullptr) {
    return;
  }
  Tracer::SetGlobal(nullptr);
  if (tracer_->WriteFile(path_)) {
    std::fprintf(stderr, "[trace] wrote %zu events to %s\n", tracer_->event_count(),
                 path_.c_str());
  }
}

}  // namespace slim
