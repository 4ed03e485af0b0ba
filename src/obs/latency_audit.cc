#include "src/obs/latency_audit.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace slim {

LatencyAudit* LatencyAudit::global_ = nullptr;

const char* LatencyStageName(int stage) {
  switch (stage) {
    case kStageRender:
      return "render";
    case kStageEncode:
      return "encode";
    case kStageWireCpu:
      return "wire_cpu";
    case kStageTxq:
      return "txq";
    case kStagePace:
      return "pace";
    case kStageNetwork:
      return "network";
    case kStageReplay:
      return "replay";
    case kStageDecode:
      return "decode";
    default:
      return "none";
  }
}

LatencyAudit::LatencyAudit(LatencyAuditOptions options) : options_(std::move(options)) {}

LatencyAudit::~LatencyAudit() {
  if (global_ == this) {
    global_ = nullptr;
  }
}

bool LatencyAudit::RegisterMetrics(MetricRegistry* registry, const std::string& prefix) {
  if (registry == nullptr) {
    return false;
  }
  registry_ = registry;
  prefix_ = prefix;
  bool ok = true;
  ok = registry->BindCounter(prefix + ".events", &events_completed_) && ok;
  ok = registry->BindCounter(prefix + ".incomplete", &events_incomplete_) && ok;
  ok = registry->BindCounter(prefix + ".breaches", &breaches_) && ok;
  ok = registry->BindCounter(prefix + ".gave_up", &gave_up_) && ok;
  ok = registry->BindCounter(prefix + ".flight_dumps", &flight_dumps_) && ok;
  ok = registry->BindCounter(prefix + ".migrations", &migrations_observed_) && ok;
  migration_blackout_hist_ = registry->Histogram(prefix + ".migration_blackout_ns");
  ok = ok && migration_blackout_hist_ != nullptr;
  e2e_hist_ = registry->Histogram(prefix + ".e2e_ns");
  ok = ok && e2e_hist_ != nullptr;
  for (int s = 0; s < kStageCount; ++s) {
    const std::string stage = LatencyStageName(s);
    ok = registry->BindCounter(prefix + ".breach_by." + stage, &breach_by_stage_[s]) && ok;
    stage_hist_[s] = registry->Histogram(prefix + "." + stage + "_ns");
    ok = ok && stage_hist_[s] != nullptr;
  }
  return ok;
}

ExpHistogram* LatencyAudit::SessionHistogram(uint32_t session_id) {
  const auto it = session_hist_.find(session_id);
  if (it != session_hist_.end()) {
    return it->second;
  }
  ExpHistogram* hist = nullptr;
  if (registry_ != nullptr) {
    hist = registry_->Histogram(prefix_ + ".s" + std::to_string(session_id) + ".e2e_ns");
  }
  session_hist_.emplace(session_id, hist);
  return hist;
}

int64_t LatencyAudit::BeginInput(uint32_t session_id, SimTime now, int64_t tracer_id) {
  // Share the tracer's id space when both are on, so a breach dump's input_id matches the
  // audit row; keep the audit's own counter ahead of anything it has seen.
  const int64_t id = tracer_id >= 0 ? tracer_id : ++next_input_id_;
  next_input_id_ = std::max(next_input_id_, id);
  OpenEvent ev;
  ev.session = session_id;
  ev.t_dispatch = now;
  ev.dispatch_done = now;
  open_[id] = ev;
  current_input_ = id;
  if (open_.size() > kMaxOpenEvents) {
    // Bounded ledger: fold the oldest still-open event as incomplete.
    auto oldest = open_.begin();
    Finalize(oldest->first, oldest->second, /*complete=*/false);
    open_.erase(oldest);
  }
  return id;
}

void LatencyAudit::EndInput(int64_t input_id, SimDuration render, SimDuration encode,
                            SimDuration wire_cpu, SimTime now) {
  current_input_ = -1;
  const auto it = open_.find(input_id);
  if (it == open_.end()) {
    return;
  }
  OpenEvent& ev = it->second;
  ev.dispatched = true;
  ev.stage_cpu[kStageRender] = std::max<SimDuration>(render, 0);
  ev.stage_cpu[kStageEncode] = std::max<SimDuration>(encode, 0);
  ev.stage_cpu[kStageWireCpu] = std::max<SimDuration>(wire_cpu, 0);
  // Sim time does not advance during synchronous dispatch; the modeled CPU the input
  // charged is when the server is "done" with it.
  ev.dispatch_done =
      now + ev.stage_cpu[kStageRender] + ev.stage_cpu[kStageEncode] + ev.stage_cpu[kStageWireCpu];
  MaybeFinalize(input_id, ev);
}

void LatencyAudit::NoteEnqueued(int64_t input_id) {
  const auto it = open_.find(input_id);
  if (it == open_.end()) {
    return;
  }
  // Counted at enqueue, not departure: a send deferred behind the busy transmit pipeline
  // fires *after* EndInput, and without this the entry would fold before its tail.
  ++it->second.outstanding;
}

void LatencyAudit::NoteDeparture(int64_t input_id, NodeId console, uint64_t seq,
                                 SimTime departed, SimDuration pace_delay) {
  const auto it = open_.find(input_id);
  if (it == open_.end()) {
    return;
  }
  OpenEvent& ev = it->second;
  if (departed >= ev.last_departure) {
    // The critical-path (latest-departing) command's pacing stall is the one the stage
    // decomposition attributes; earlier siblings' stalls overlap it.
    ev.last_departure = departed;
    ev.pace_stall = std::max<SimDuration>(pace_delay, 0);
  }
  in_flight_[{console, seq}] = {input_id, 0};
}

void LatencyAudit::NotePurged(int64_t input_id) {
  const auto it = open_.find(input_id);
  if (it == open_.end()) {
    return;
  }
  OpenEvent& ev = it->second;
  if (ev.outstanding > 0) {
    --ev.outstanding;
  }
  MaybeFinalize(input_id, ev);
}

void LatencyAudit::NoteReplayResolved(NodeId self, uint64_t seq, SimTime since, SimTime now,
                                      const char* reason) {
  const auto flight = in_flight_.find({self, seq});
  if (flight == in_flight_.end()) {
    return;  // not one of ours (input-event traffic, repaints, other peers)
  }
  const int64_t input_id = flight->second.first;
  const auto it = open_.find(input_id);
  if (std::strncmp(reason, "gave_up", 7) != 0) {
    // Replayed: the stall is part of this event's network time; the command itself is
    // still inbound and will present normally.
    if (it != open_.end()) {
      it->second.replay_stall += std::max<SimDuration>(now - since, 0);
    }
    return;
  }
  // The transport abandoned this seq: the pixels will never arrive (until some later
  // repaint). That is the worst interactive outcome there is — breach immediately and
  // attribute it to the replay stage.
  in_flight_.erase(flight);
  if (it == open_.end()) {
    return;
  }
  OpenEvent& ev = it->second;
  ev.replay_stall += std::max<SimDuration>(now - since, 0);
  ev.gave_up = true;
  ev.last_completion = std::max(ev.last_completion, now);
  ++gave_up_;
  if (ev.outstanding > 0) {
    --ev.outstanding;
  }
  Finalize(input_id, ev, /*complete=*/true);
  open_.erase(it);
}

void LatencyAudit::NoteDecodeStart(NodeId self, uint64_t seq, SimTime arrival) {
  const auto flight = in_flight_.find({self, seq});
  if (flight != in_flight_.end()) {
    flight->second.second = arrival;
  }
}

void LatencyAudit::NotePresent(NodeId self, uint64_t seq, SimTime completion) {
  const auto flight = in_flight_.find({self, seq});
  if (flight == in_flight_.end()) {
    return;
  }
  const int64_t input_id = flight->second.first;
  const SimTime arrival = flight->second.second;
  in_flight_.erase(flight);
  const auto it = open_.find(input_id);
  if (it == open_.end()) {
    return;  // already folded (give-up on a sibling seq, ledger bound)
  }
  OpenEvent& ev = it->second;
  if (completion >= ev.last_completion) {
    ev.last_completion = completion;
    ev.final_arrival = arrival;
  }
  if (ev.outstanding > 0) {
    --ev.outstanding;
  }
  MaybeFinalize(input_id, ev);
}

void LatencyAudit::NoteConsoleDrop(NodeId self, uint64_t seq) {
  const auto flight = in_flight_.find({self, seq});
  if (flight == in_flight_.end()) {
    return;
  }
  const int64_t input_id = flight->second.first;
  in_flight_.erase(flight);
  const auto it = open_.find(input_id);
  if (it == open_.end()) {
    return;
  }
  OpenEvent& ev = it->second;
  if (ev.outstanding > 0) {
    --ev.outstanding;
  }
  MaybeFinalize(input_id, ev);
}

void LatencyAudit::NoteForcedDetach(uint32_t session_id, int reason, SimTime now) {
  if (Tracer* tracer = Tracer::Global()) {
    tracer->Instant(now, "audit.forced_detach", "audit", kTraceTidServer,
                    {{"session", JsonValue(int64_t{session_id})},
                     {"reason", JsonValue(int64_t{reason})}});
  }
  DumpFlight(/*input_id=*/-1, kStageCount, "forced_detach", now, 0);
}

void LatencyAudit::NoteMigrationBlackout(uint32_t session_id, SimDuration blackout,
                                         SimTime now) {
  ++migrations_observed_;
  if (migration_blackout_hist_ != nullptr) {
    migration_blackout_hist_->Record(blackout);
  }
  if (Tracer* tracer = Tracer::Global()) {
    tracer->Instant(now, "audit.migration_blackout", "audit", kTraceTidServer,
                    {{"session", JsonValue(int64_t{session_id})},
                     {"blackout_ns", JsonValue(int64_t{blackout})}});
  }
}

void LatencyAudit::MaybeFinalize(int64_t input_id, OpenEvent& ev) {
  if (!ev.dispatched || ev.outstanding > 0) {
    return;
  }
  Finalize(input_id, ev, /*complete=*/true);
  open_.erase(input_id);
}

void LatencyAudit::Finalize(int64_t input_id, OpenEvent& ev, bool complete) {
  if (!complete) {
    ++events_incomplete_;
    return;
  }
  // An input with no display output completes when its modeled CPU drains; one with
  // output completes when its last command presents.
  const SimTime end = std::max(ev.last_completion, ev.dispatch_done);
  const SimDuration e2e = std::max<SimDuration>(end - ev.t_dispatch, 0);

  SimDuration stages[kStageCount] = {};
  stages[kStageRender] = ev.stage_cpu[kStageRender];
  stages[kStageEncode] = ev.stage_cpu[kStageEncode];
  stages[kStageWireCpu] = ev.stage_cpu[kStageWireCpu];
  if (ev.last_departure > 0) {
    // The wait between dispatch-done and departure splits into the token-bucket stall
    // (pace) and whatever the shared CPU pipeline imposed on top (txq).
    stages[kStagePace] = ev.pace_stall;
    stages[kStageTxq] =
        std::max<SimDuration>(ev.last_departure - ev.dispatch_done - ev.pace_stall, 0);
  }
  stages[kStageReplay] = ev.replay_stall;
  if (ev.final_arrival > 0 && ev.last_departure > 0) {
    // Fabric flight time of the critical-path (latest-completing) command, minus the
    // explicitly accounted replay stalls.
    stages[kStageNetwork] =
        std::max<SimDuration>(ev.final_arrival - ev.last_departure - ev.replay_stall, 0);
    stages[kStageDecode] = std::max<SimDuration>(ev.last_completion - ev.final_arrival, 0);
  }

  ++events_completed_;
  if (e2e_hist_ != nullptr) {
    e2e_hist_->Record(e2e);
    for (int s = 0; s < kStageCount; ++s) {
      stage_hist_[s]->Record(stages[s]);
    }
  }
  if (ExpHistogram* hist = SessionHistogram(ev.session)) {
    hist->Record(e2e);
  }

  const bool breach = ev.gave_up || e2e > options_.slo;
  if (!breach) {
    return;
  }
  int dominant = kStageRender;
  for (int s = 1; s < kStageCount; ++s) {
    if (stages[s] > stages[dominant]) {
      dominant = s;
    }
  }
  if (ev.gave_up) {
    dominant = kStageReplay;  // the lost pixels are the breach, whatever else cost time
  }
  RecordBreach(input_id, ev, dominant, ev.gave_up ? "transport_gave_up" : "slo_breach");
  if (Tracer* tracer = Tracer::Global()) {
    tracer->Instant(end, "audit.breach", "audit", kTraceTidServer,
                    {{"input_id", JsonValue(input_id)},
                     {"session", JsonValue(int64_t{ev.session})},
                     {"e2e_ns", JsonValue(e2e)},
                     {"slo_ns", JsonValue(options_.slo)},
                     {"stage", JsonValue(LatencyStageName(dominant))},
                     {"reason",
                      JsonValue(ev.gave_up ? "transport_gave_up" : "slo_breach")}});
  }
  DumpFlight(input_id, dominant, ev.gave_up ? "transport_gave_up" : "slo_breach", end, e2e);
}

void LatencyAudit::RecordBreach(int64_t input_id, const OpenEvent& ev, int stage,
                                const char* reason) {
  (void)ev;
  (void)reason;
  ++breaches_;
  ++breach_by_stage_[stage];
  last_breach_input_ = input_id;
  last_breach_stage_ = stage;
}

void LatencyAudit::DumpFlight(int64_t input_id, int stage, const char* reason, SimTime now,
                              SimDuration e2e) {
  (void)now;
  (void)e2e;
  if (options_.flight_dir.empty() || flight_dumps_ >= kMaxFlightDumps) {
    return;
  }
  Tracer* tracer = Tracer::Global();
  if (tracer == nullptr) {
    return;  // nothing recorded, nothing to dump
  }
  char name[128];
  std::snprintf(name, sizeof(name), "flight_%03d_%s_input%lld.json",
                static_cast<int>(flight_dumps_), reason,
                static_cast<long long>(input_id));
  const std::string path = options_.flight_dir + "/" + name;
  if (tracer->WriteFile(path)) {
    ++flight_dumps_;
    last_flight_path_ = path;
    std::fprintf(stderr, "[audit] %s (input %lld, stage %s): flight dump -> %s\n", reason,
                 static_cast<long long>(input_id), LatencyStageName(stage), path.c_str());
  }
}

void LatencyAudit::FinalizeAll() {
  for (auto& [id, ev] : open_) {
    // Events whose tail never happened (commands still in flight at shutdown) are counted
    // as incomplete; events that were fully dispatched with nothing outstanding would
    // already have folded.
    Finalize(id, ev, /*complete=*/ev.dispatched && ev.outstanding == 0);
  }
  open_.clear();
  in_flight_.clear();
  current_input_ = -1;
}

}  // namespace slim
