// The server's single ordering point for everything it sends to consoles.
//
// The response-time experiments model the server's render/encode/wire CPU as one busy
// pipeline: a display command costed at `cpu_cost` leaves the machine only when the
// pipeline has drained down to it. Before this queue existed, zero-cost traffic (audio,
// pongs, session control) bypassed the pipeline and could overtake display commands that
// were still "being processed" — the console would hear an audio sample for a frame it had
// not been sent yet. TransmitQueue routes every server->console send through the same
// FIFO: zero-cost messages add no busy time but still queue behind whatever the modeled
// CPU has already committed to, so no send can overtake an earlier one to any console.
//
// Wire pacing (paper Section 7): on top of the modeled CPU, each send may name a *flow*
// (an application-level traffic class: a session's interactive display server, its video
// library). A flow with a bandwidth grant owns a token bucket — GCRA-style: the bucket
// tracks the virtual time at which everything accepted so far would have finished at
// exactly the granted bits/s, and a send may not depart while that time runs more than
// `burst` ahead of the clock. Departures within one flow stay FIFO (a floor carries each
// flow's last release forward, even across grant changes); *across* flows of one session
// the FIFO is intentionally relaxed — a keystroke's glyphs must not wait behind a paced
// video backlog. That is the one deliberate departure from the PR 5 "no send overtakes an
// earlier one" invariant, and it is safe for the same reason the paper's allocator is:
// flows own disjoint screen real estate, and the console applies commands idempotently in
// arrival order. Flow 0 is never paced (control traffic).
//
// Per-session depth is tracked so the telemetry registry can expose how much of the
// pipeline each session currently occupies (`server.txq.depth`, per-session
// `<session>.txq_depth`). Entries erase when they drain; PurgeSession cancels a released
// session's still-queued sends outright so eviction leaves nothing behind.

#ifndef SRC_SERVER_TRANSMIT_QUEUE_H_
#define SRC_SERVER_TRANSMIT_QUEUE_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/net/transport.h"
#include "src/sim/simulator.h"

namespace slim {

class MetricRegistry;

class TransmitQueue {
 public:
  // When `model_cpu_delay` is false sends skip the CPU pipeline (call order is wire order
  // unless a flow's token bucket defers) and only the counters are maintained.
  TransmitQueue(Simulator* sim, SlimEndpoint* endpoint, bool model_cpu_delay);

  // Queues one message behind the modeled CPU pipeline, accounts `cpu_cost` of busy time
  // (clamped to >= 0), and — when `flow_id` names a flow with a positive rate — charges
  // the message's wire bytes to that flow's token bucket, deferring the departure until
  // the bucket admits it. Returns the simulated time at which the message leaves.
  SimTime Send(NodeId console, uint32_t session_id, MessageBody body, SimDuration cpu_cost,
               uint64_t flow_id = 0);

  // --- Flow pacing (driven by BandwidthGrantMsg) ---
  // Installs or updates a flow's granted rate. A non-positive rate stops pacing the flow
  // but keeps its FIFO floor so in-flight backlog cannot be overtaken.
  void SetFlowRate(uint64_t flow_id, int64_t bits_per_second, SimDuration burst);
  // Forgets the flow entirely (session gone).
  void ReleaseFlow(uint64_t flow_id);
  int64_t flow_rate(uint64_t flow_id) const;
  // How far the flow's accepted bytes run ahead of the clock (0 when idle/unpaced).
  SimDuration PaceBacklog(uint64_t flow_id) const;

  // Cancels every still-queued send of one session (released/evicted: the console will
  // blank, the bytes are worthless) and clears its depth. Returns how many were dropped.
  int64_t PurgeSession(uint32_t session_id);

  // Messages accepted / messages that had to wait for the pipeline.
  int64_t sends() const { return sends_; }
  int64_t deferred() const { return deferred_; }
  // Messages charged to a token bucket / of those, messages the bucket actually delayed /
  // messages cancelled by PurgeSession.
  int64_t paced() const { return paced_; }
  int64_t pace_delayed() const { return pace_delayed_; }
  int64_t purged() const { return purged_; }

  // Messages currently queued behind the pipeline (total and for one session).
  int64_t total_depth() const { return total_depth_; }
  int64_t depth(uint32_t session_id) const;
  // High-water mark of total_depth over the queue's lifetime.
  int64_t max_depth() const { return max_depth_; }
  // Sessions with a live depth entry (eviction hygiene: must drop to zero on drain/purge).
  size_t tracked_sessions() const { return depth_.size(); }

  SimTime busy_until() const { return busy_until_; }

  // Registers `<prefix>.sends`, `<prefix>.deferred`, `<prefix>.paced`,
  // `<prefix>.pace_delayed`, `<prefix>.purged` counters and `<prefix>.depth`,
  // `<prefix>.max_depth` gauges.
  bool RegisterMetrics(MetricRegistry* registry, const std::string& prefix);

 private:
  // GCRA state for one granted flow. `wire_until` is the virtual time at which every
  // byte accepted so far would have finished at exactly `rate_bps`; a send is admitted
  // once `wire_until` runs no more than `burst` ahead of its CPU-release time.
  struct FlowPacer {
    int64_t rate_bps = 0;
    SimDuration burst = 0;
    SimTime wire_until = 0;
    SimTime last_release = 0;  // per-flow FIFO floor, kept across grant changes
  };

  Simulator* sim_;
  SlimEndpoint* endpoint_;
  bool model_cpu_delay_;

  SimTime busy_until_ = 0;
  int64_t sends_ = 0;
  int64_t deferred_ = 0;
  int64_t paced_ = 0;
  int64_t pace_delayed_ = 0;
  int64_t purged_ = 0;
  int64_t total_depth_ = 0;
  int64_t max_depth_ = 0;
  // Entries are erased when they drain to zero so evicted sessions leave nothing behind.
  std::map<uint32_t, int64_t> depth_;
  std::map<uint64_t, FlowPacer> pacers_;
  // Still-scheduled sends per session: event id -> latency-audit input id (-1 when the
  // send is not audited). PurgeSession cancels these and tells the audit.
  std::map<uint32_t, std::map<EventId, int64_t>> pending_by_session_;
};

}  // namespace slim

#endif  // SRC_SERVER_TRANSMIT_QUEUE_H_
