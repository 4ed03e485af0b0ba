// The SLIM server: transport endpoint plus the three system daemons the architecture adds
// (Section 2.4) — authentication manager, session manager, and remote device manager.
//
// The session manager is a full lifecycle layer (src/server/lifecycle.h): a session
// directory keyed by card, an attach/detach state machine with an explicit hotdesk
// handoff (the old console is released — told to blank — before the new console gets its
// repaint), console liveness via keepalive probes with timeout->detach, idle-session
// eviction, and a per-session ordered transmit queue (src/server/transmit_queue.h) that
// every server->console send goes through.

#ifndef SRC_SERVER_SLIM_SERVER_H_
#define SRC_SERVER_SLIM_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/fabric.h"
#include "src/net/transport.h"
#include "src/server/cpu_model.h"
#include "src/server/lifecycle.h"
#include "src/server/session.h"
#include "src/server/transmit_queue.h"
#include "src/sim/simulator.h"

namespace slim {

class MetricRegistry;
class MigrationManager;
class ServerPool;
struct MigrationOptions;
struct SessionCheckpoint;

// Verifies smart-card identities. Cards must be registered before they authenticate; the
// check is a keyed hash so that forged ids are rejected (a stand-in for the product's
// challenge-response, enough to exercise the accept/reject paths).
class AuthenticationManager {
 public:
  explicit AuthenticationManager(uint64_t site_key);

  // Registers a user's card and returns its id.
  uint64_t IssueCard(uint32_t user_number);
  bool Verify(uint64_t card_id) const;

  int64_t accepted() const { return accepted_; }
  int64_t rejected() const { return rejected_; }

  // Registers the accept/reject counters (`<prefix>.accepted`, `<prefix>.rejected`).
  bool RegisterMetrics(MetricRegistry* registry, const std::string& prefix = "auth");

 private:
  uint64_t Sign(uint32_t user_number) const;

  uint64_t site_key_;
  std::map<uint64_t, uint32_t> issued_;
  mutable int64_t accepted_ = 0;
  mutable int64_t rejected_ = 0;
};

// Tracks peripherals attached through consoles' USB ports.
class RemoteDeviceManager {
 public:
  void DeviceAttached(NodeId console, uint32_t device_class);
  void DeviceDetached(NodeId console, uint32_t device_class);
  int DevicesAt(NodeId console) const;
  int total_devices() const;

 private:
  std::map<NodeId, std::vector<uint32_t>> devices_;
};

// Section 7 congestion control. When enabled, every session that attaches asks its
// console's bandwidth allocator for two flows — 2 Mbps for the interactive display server
// and 40 Mbps for the video library. The console's grants come back as BandwidthGrantMsg
// and are enforced as per-flow token buckets (50 ms deep) in the TransmitQueue. The
// interactive request is small on purpose: the ascending allocator satisfies small
// requests first, which is exactly the paper's guarantee that a saturating video stream
// cannot starve interactive windows. `adapt` additionally makes the session back off
// under pressure (newest-frame-wins video staging, damage coalescing) instead of letting
// the paced backlog grow without bound.
struct PacingOptions {
  bool enabled = false;
  // Backpressure adaptation. Off leaves grants enforced but the session naive — the
  // configuration the contended-desktop bench uses to show unbounded queue growth.
  bool adapt = true;
};

// Counters for the congestion-control loop, readable directly and through the registry
// (`server.pacing.*`).
struct PacingStats {
  int64_t requests_sent = 0;      // BandwidthRequestMsg sent to consoles
  int64_t grants_applied = 0;     // BandwidthGrantMsg applied to the transmit queue
  int64_t video_deferred = 0;     // video frames staged instead of sent immediately
  int64_t video_dropped = 0;      // staged frames superseded by a newer one (never sent)
  int64_t coalesced_flushes = 0;  // flushes deferred with damage left coalescing
};

struct ServerOptions {
  int32_t session_width = 1280;
  int32_t session_height = 1024;
  EncoderOptions encoder;
  ServerCpuModel cpu;
  // When true, Flush() defers transmission by the simulated render/encode/wire CPU time on
  // a single busy-server pipeline (used by the response-time experiments). When false,
  // transmission is immediate and CPU time is only accounted (used for trace generation).
  bool model_cpu_delay = false;
  // Attach/detach state machine, keepalive liveness and eviction policy.
  SessionLifecycleOptions lifecycle;
  // Bandwidth-grant enforcement and backpressure adaptation (off by default: runs that
  // never request bandwidth are byte-for-byte identical to the pre-pacing behavior).
  PacingOptions pacing;
};

// Counters for every lifecycle transition; readable directly and through the registry
// (`server.lifecycle.*`).
struct LifecycleStats {
  int64_t attaches = 0;           // sessions bound to a console (incl. hotdesk re-binds)
  int64_t detaches = 0;           // any attached -> detached transition
  int64_t hotdesk_handoffs = 0;   // attaches that pulled the session from another console
  int64_t releases_sent = 0;      // SessionReleaseMsg copies sent (incl. re-sends)
  int64_t keepalive_timeouts = 0; // detaches caused by a silent console
  int64_t probes_sent = 0;        // keepalive pings sent
  int64_t evictions = 0;          // idle sessions destroyed and card mappings reclaimed
};

class SlimServer {
 public:
  SlimServer(Simulator* sim, Fabric* fabric, ServerOptions options = {});
  ~SlimServer();

  NodeId node() const { return endpoint_->node(); }
  Simulator* simulator() { return sim_; }
  SlimEndpoint& endpoint() { return *endpoint_; }
  const ServerOptions& options() const { return options_; }
  AuthenticationManager& auth() { return auth_; }
  RemoteDeviceManager& devices() { return devices_; }
  const TransmitQueue& tx_queue() const { return *tx_; }
  const LifecycleStats& lifecycle_stats() const { return lifecycle_stats_; }
  const PacingStats& pacing_stats() const { return pacing_stats_; }
  // Sessions update the adaptation counters (video drops, coalesced flushes) directly.
  PacingStats& pacing_stats() { return pacing_stats_; }

  // Creates a session bound to a card id (the session manager resumes it on card insert).
  // If the card was already bound to a live session, that session is evicted first so the
  // directory never holds two sessions for one card.
  ServerSession& CreateSession(uint64_t card_id);
  ServerSession* FindSession(uint32_t session_id);
  ServerSession* SessionForCard(uint64_t card_id);
  size_t session_count() const { return sessions_.size(); }
  size_t card_count() const { return card_to_session_.size(); }

  // The lifecycle state of a session (kDetached for unknown ids, which is what an evicted
  // session reads as).
  SessionState session_state(uint32_t session_id) const;

  // Detaches `session` from its console (no-op when already detached): the console is sent
  // a release notice telling it to blank, liveness probing stops, and — when eviction is
  // configured — the idle timer starts. Exposed so harnesses can force a server-side
  // detach without a console round trip.
  void DetachSession(ServerSession& session, ReleaseReason reason);

  // Used by ServerSession to push messages to a console; accounts wire CPU time and applies
  // the optional busy-pipeline delay. Returns the simulated time at which the message left.
  // Every send — display commands, audio, pongs, session control — funnels through the
  // ordered transmit queue, so zero-cost messages cannot overtake CPU-delayed ones.
  // `flow_id` charges the send to a granted flow's token bucket (0 = unpaced control).
  SimTime Transmit(NodeId console, uint32_t session_id, MessageBody body,
                   SimDuration cpu_cost, uint64_t flow_id = 0);

  // Arms a one-shot callback into ServerSession::OnPaceRetry (session looked up by id at
  // fire time, so a retry can never dangle past an eviction).
  void SchedulePaceRetry(uint32_t session_id, SimTime at);

  // --- Server pool / migration (src/server/migration.h, DESIGN.md §9) ---
  // Joins `pool` and enables the migration protocol on this server. Call at most once.
  MigrationManager& EnableMigration(ServerPool& pool, const MigrationOptions& options);
  MigrationManager* migration() { return migration_.get(); }

  // Constructs an unregistered session restored from `ckpt` (fresh local id, checkpoint
  // geometry). It joins the directory only via InstallSession — the single-owner
  // invariant's staging step.
  std::unique_ptr<ServerSession> BuildStagedSession(const SessionCheckpoint& ckpt);
  // Registers a staged session under `card_id` (directory entry, card mapping, idle
  // eviction armed). Any session the card was previously bound to is reclaimed first.
  ServerSession& InstallSession(uint64_t card_id, std::unique_ptr<ServerSession> session);
  // Destroys a detached session after its ownership moved to another server: directory
  // entry, card mapping and session object go, but — unlike EvictSession — it is not
  // counted as an eviction (the session lives on elsewhere).
  void DiscardSession(uint32_t session_id);

  // Crash fault injection (ServerPool::KillServer): the endpoint goes deaf and mute.
  void Kill();

  // Registers the server's daemons and transport endpoint with `registry`:
  // `<prefix>.auth.*`, `<prefix>.sessions` / `<prefix>.cards` / `<prefix>.devices` gauges,
  // `<prefix>.lifecycle.*` counters, `<prefix>.txq.*`, and `<prefix>.transport.*`.
  // Sessions register themselves (per-session prefixes) via ServerSession::RegisterMetrics.
  bool RegisterMetrics(MetricRegistry* registry, const std::string& prefix = "server");

 private:
  // The migration manager reaches into the attach machinery (AttachSessionToConsole for
  // installed sessions' waiting consoles, the transmit queue for bulk-transfer pacing).
  friend class MigrationManager;

  // Per-session lifecycle record: the directory entry tying a session to its card, its
  // state-machine state, and the liveness/eviction timers.
  struct Lifecycle {
    uint64_t card_id = 0;
    SessionState state = SessionState::kDetached;
    SimTime last_heard = 0;          // last message from the attached console
    int missed_probes = 0;
    SimDuration probe_gap = 0;       // current (possibly backed-off) re-probe gap
    EventId probe_event = kInvalidEventId;
    EventId evict_event = kInvalidEventId;
  };

  void OnMessage(const Message& msg, NodeId from);
  void HandleAttach(uint64_t card_id, NodeId from);
  void HandleDetach(uint64_t card_id, NodeId from);

  // A console's allocator answered (or revised) a flow's share: enforce it in the
  // transmit queue and tell the owning session its budget.
  void ApplyGrant(const BandwidthGrantMsg& grant);
  // Sends the attach-time bandwidth requests for a session's flows to its console.
  void RequestSessionBandwidth(ServerSession& session, NodeId console);
  // Drops a session's queued sends and forgets its flows (release/handoff/eviction).
  void ResetSessionPacing(uint32_t session_id);

  // Binds `session` to `console`: updates the directory, cancels eviction, repaints, and
  // arms the keepalive probe.
  void AttachSessionToConsole(ServerSession& session, NodeId console);
  // Sends the release notice (plus bounded idempotent re-sends) to `console`.
  void ReleaseConsole(NodeId console, uint32_t session_id, ReleaseReason reason);
  void CancelPendingReleases(NodeId console);

  // Any inbound message from a console counts as liveness for the session shown there.
  void NoteConsoleAlive(NodeId from);
  void ArmProbe(uint32_t session_id, SimDuration gap);
  void OnProbeTimer(uint32_t session_id);

  void ScheduleEviction(uint32_t session_id);
  // Destroys a (detached) session: directory entry, card mapping and session object.
  void EvictSession(uint32_t session_id);

  Simulator* sim_;
  ServerOptions options_;
  std::unique_ptr<SlimEndpoint> endpoint_;
  std::unique_ptr<TransmitQueue> tx_;
  AuthenticationManager auth_;
  RemoteDeviceManager devices_;
  std::map<uint32_t, std::unique_ptr<ServerSession>> sessions_;
  std::map<uint64_t, uint32_t> card_to_session_;
  std::map<uint32_t, Lifecycle> lifecycle_;
  // Which session each console is currently showing (inverse of session->console()); at
  // most one session per console, which is the state-machine invariant the handoff keeps.
  std::map<NodeId, uint32_t> console_to_session_;
  // Pending release re-send events per console, cancelled when the console re-attaches so
  // a stale blank notice cannot chase a fresh repaint.
  std::map<NodeId, std::vector<EventId>> pending_releases_;
  LifecycleStats lifecycle_stats_;
  PacingStats pacing_stats_;
  // Present only after EnableMigration; every migration code path is behind a null check,
  // so a pool-less server is byte-for-byte the pre-migration behavior.
  std::unique_ptr<MigrationManager> migration_;
  uint32_t next_session_id_ = 1;
};

}  // namespace slim

#endif  // SRC_SERVER_SLIM_SERVER_H_
