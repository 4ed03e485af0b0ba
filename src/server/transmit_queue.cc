#include "src/server/transmit_queue.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <variant>

#include "src/obs/latency_audit.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace slim {

namespace {

// Only display commands are latency-audited: they are the messages whose console-side
// present closes an input event's end-to-end path (audio/pongs/control never present).
bool IsAuditedDisplayCommand(const MessageBody& body) {
  return std::holds_alternative<SetCommand>(body) ||
         std::holds_alternative<BitmapCommand>(body) ||
         std::holds_alternative<FillCommand>(body) ||
         std::holds_alternative<CopyCommand>(body) ||
         std::holds_alternative<CscsCommand>(body);
}

}  // namespace

TransmitQueue::TransmitQueue(Simulator* sim, SlimEndpoint* endpoint, bool model_cpu_delay)
    : sim_(sim), endpoint_(endpoint), model_cpu_delay_(model_cpu_delay) {
  SLIM_CHECK(sim != nullptr && endpoint != nullptr);
}

SimTime TransmitQueue::Send(NodeId console, uint32_t session_id, MessageBody body,
                            SimDuration cpu_cost, uint64_t flow_id) {
  ++sends_;
  const SimTime now = sim_->now();
  // Latency-audit correlation, captured at enqueue time: the input event being dispatched
  // right now is the one this display command belongs to, even if the actual endpoint
  // send is deferred behind the busy pipeline.
  LatencyAudit* const enqueue_audit = LatencyAudit::Global();
  const int64_t input_id =
      enqueue_audit != nullptr && IsAuditedDisplayCommand(body) ? enqueue_audit->current_input()
                                                                : -1;
  if (input_id >= 0) {
    // Hold the audit entry open now: the send below may be deferred past EndInput.
    enqueue_audit->NoteEnqueued(input_id);
  }
  SimTime release = now;
  if (model_cpu_delay_) {
    const SimTime start = std::max(now, busy_until_);
    release = start + std::max<SimDuration>(cpu_cost, 0);
    busy_until_ = release;
  }
  SimDuration pace_delay = 0;
  if (flow_id != 0) {
    if (const auto it = pacers_.find(flow_id); it != pacers_.end()) {
      FlowPacer& p = it->second;
      if (p.rate_bps > 0) {
        ++paced_;
        const auto bytes = static_cast<int64_t>(BodyWireSize(body));
        const SimDuration wire_time = TransmissionDelay(bytes, p.rate_bps);
        // GCRA: admit once the bucket's virtual finish time is within `burst` of the
        // CPU-release time; an idle flow earns at most `burst` of credit.
        const SimTime ready = std::max(release, p.wire_until - p.burst);
        p.wire_until = std::max(p.wire_until, ready) + wire_time;
        pace_delay = ready - release;
        release = ready;
        if (pace_delay > 0) {
          ++pace_delayed_;
        }
      }
      // Per-flow FIFO floor: a send may never depart before an earlier one of the same
      // flow, even if a grant change (or withdrawal) shrank its own pacing delay.
      release = std::max(release, p.last_release);
      p.last_release = release;
    }
  }
  if (release <= now && total_depth_ == 0) {
    // Pipeline idle and nothing in flight ahead of us: the fast path stays a direct send.
    const uint64_t seq = endpoint_->Send(console, session_id, std::move(body));
    if (input_id >= 0) {
      enqueue_audit->NoteDeparture(input_id, console, seq, now, pace_delay);
    }
    return now;
  }
  // Everything else — including zero-cost messages behind a busy pipeline, and sends at
  // the exact instant an earlier send is due (equal-time events run in scheduling order,
  // so FIFO is preserved) — goes through the simulator.
  ++deferred_;
  ++depth_[session_id];
  ++total_depth_;
  max_depth_ = std::max(max_depth_, total_depth_);
  // The lambda needs its own event id to unregister from the purge index; the id is only
  // known after scheduling, so it travels through a shared slot (filled in synchronously
  // below — the event cannot fire before this call returns).
  auto id_slot = std::make_shared<EventId>(kInvalidEventId);
  const EventId event_id = sim_->ScheduleAt(
      release, [this, console, session_id, input_id, release, pace_delay, id_slot,
                b = std::move(body)]() mutable {
        if (const auto pending = pending_by_session_.find(session_id);
            pending != pending_by_session_.end()) {
          pending->second.erase(*id_slot);
          if (pending->second.empty()) {
            pending_by_session_.erase(pending);
          }
        }
        const auto it = depth_.find(session_id);
        if (it != depth_.end() && --it->second <= 0) {
          depth_.erase(it);
        }
        --total_depth_;
        const uint64_t seq = endpoint_->Send(console, session_id, std::move(b));
        if (LatencyAudit* audit = LatencyAudit::Global(); audit != nullptr && input_id >= 0) {
          audit->NoteDeparture(input_id, console, seq, release, pace_delay);
        }
      });
  *id_slot = event_id;
  pending_by_session_[session_id][event_id] = input_id;
  return release;
}

void TransmitQueue::SetFlowRate(uint64_t flow_id, int64_t bits_per_second,
                                SimDuration burst) {
  SLIM_CHECK(flow_id != 0);
  FlowPacer& p = pacers_[flow_id];
  p.rate_bps = bits_per_second;
  p.burst = std::max<SimDuration>(burst, 0);
}

void TransmitQueue::ReleaseFlow(uint64_t flow_id) { pacers_.erase(flow_id); }

int64_t TransmitQueue::flow_rate(uint64_t flow_id) const {
  const auto it = pacers_.find(flow_id);
  return it == pacers_.end() ? 0 : it->second.rate_bps;
}

SimDuration TransmitQueue::PaceBacklog(uint64_t flow_id) const {
  const auto it = pacers_.find(flow_id);
  if (it == pacers_.end()) {
    return 0;
  }
  return std::max<SimDuration>(it->second.wire_until - sim_->now(), 0);
}

int64_t TransmitQueue::PurgeSession(uint32_t session_id) {
  const auto pending = pending_by_session_.find(session_id);
  if (pending == pending_by_session_.end()) {
    return 0;
  }
  LatencyAudit* const audit = LatencyAudit::Global();
  int64_t dropped = 0;
  for (const auto& [event_id, input_id] : pending->second) {
    sim_->Cancel(event_id);
    ++dropped;
    if (audit != nullptr && input_id >= 0) {
      // The command will never depart; close its slot in the ledger so the input event
      // does not linger as incomplete.
      audit->NotePurged(input_id);
    }
  }
  pending_by_session_.erase(pending);
  if (const auto it = depth_.find(session_id); it != depth_.end()) {
    total_depth_ -= it->second;
    depth_.erase(it);
  }
  purged_ += dropped;
  return dropped;
}

int64_t TransmitQueue::depth(uint32_t session_id) const {
  const auto it = depth_.find(session_id);
  return it == depth_.end() ? 0 : it->second;
}

bool TransmitQueue::RegisterMetrics(MetricRegistry* registry, const std::string& prefix) {
  SLIM_CHECK(registry != nullptr);
  bool ok = registry->BindCounter(prefix + ".sends", &sends_);
  ok = registry->BindCounter(prefix + ".deferred", &deferred_) && ok;
  ok = registry->BindCounter(prefix + ".paced", &paced_) && ok;
  ok = registry->BindCounter(prefix + ".pace_delayed", &pace_delayed_) && ok;
  ok = registry->BindCounter(prefix + ".purged", &purged_) && ok;
  ok = registry->BindGauge(prefix + ".depth",
                           [this] { return static_cast<double>(total_depth_); }) &&
       ok;
  ok = registry->BindGauge(prefix + ".max_depth",
                           [this] { return static_cast<double>(max_depth_); }) &&
       ok;
  return ok;
}

}  // namespace slim
