#include "src/server/slim_server.h"

#include <algorithm>

#include "src/codec/kernels/kernels.h"
#include "src/obs/latency_audit.h"
#include "src/obs/metrics.h"
#include "src/server/checkpoint.h"
#include "src/server/migration.h"
#include "src/util/check.h"

namespace slim {

AuthenticationManager::AuthenticationManager(uint64_t site_key) : site_key_(site_key) {}

uint64_t AuthenticationManager::Sign(uint32_t user_number) const {
  // A keyed mix (SplitMix64-style) standing in for the product's challenge-response.
  uint64_t x = site_key_ ^ (static_cast<uint64_t>(user_number) * 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t AuthenticationManager::IssueCard(uint32_t user_number) {
  const uint64_t card_id = Sign(user_number);
  issued_[card_id] = user_number;
  return card_id;
}

bool AuthenticationManager::Verify(uint64_t card_id) const {
  const auto it = issued_.find(card_id);
  if (it == issued_.end() || Sign(it->second) != card_id) {
    ++rejected_;
    return false;
  }
  ++accepted_;
  return true;
}

bool AuthenticationManager::RegisterMetrics(MetricRegistry* registry,
                                            const std::string& prefix) {
  SLIM_CHECK(registry != nullptr);
  bool ok = registry->BindCounter(prefix + ".accepted", &accepted_);
  ok = registry->BindCounter(prefix + ".rejected", &rejected_) && ok;
  return ok;
}

void RemoteDeviceManager::DeviceAttached(NodeId console, uint32_t device_class) {
  devices_[console].push_back(device_class);
}

void RemoteDeviceManager::DeviceDetached(NodeId console, uint32_t device_class) {
  auto it = devices_.find(console);
  if (it == devices_.end()) {
    return;
  }
  auto& list = it->second;
  for (auto d = list.begin(); d != list.end(); ++d) {
    if (*d == device_class) {
      list.erase(d);
      break;
    }
  }
  if (list.empty()) {
    devices_.erase(it);
  }
}

int RemoteDeviceManager::DevicesAt(NodeId console) const {
  const auto it = devices_.find(console);
  return it == devices_.end() ? 0 : static_cast<int>(it->second.size());
}

int RemoteDeviceManager::total_devices() const {
  int total = 0;
  for (const auto& [node, list] : devices_) {
    total += static_cast<int>(list.size());
  }
  return total;
}

SlimServer::SlimServer(Simulator* sim, Fabric* fabric, ServerOptions options)
    : sim_(sim), options_(options), auth_(0x51e7e5c4e7u) {
  SLIM_CHECK(sim != nullptr && fabric != nullptr);
  endpoint_ = std::make_unique<SlimEndpoint>(fabric, fabric->AddNode());
  endpoint_->set_handler([this](const Message& msg, NodeId from) { OnMessage(msg, from); });
  tx_ = std::make_unique<TransmitQueue>(sim_, endpoint_.get(), options_.model_cpu_delay);
}

SlimServer::~SlimServer() = default;

MigrationManager& SlimServer::EnableMigration(ServerPool& pool, const MigrationOptions&) {
  SLIM_CHECK(migration_ == nullptr);
  migration_ = std::make_unique<MigrationManager>(this, &pool);
  pool.Register(this, migration_.get());
  return *migration_;
}

std::unique_ptr<ServerSession> SlimServer::BuildStagedSession(const SessionCheckpoint& ckpt) {
  const uint32_t id = next_session_id_++;
  auto session = std::make_unique<ServerSession>(this, id, ckpt.width, ckpt.height);
  session->RestoreFromCheckpoint(ckpt);
  return session;
}

ServerSession& SlimServer::InstallSession(uint64_t card_id,
                                          std::unique_ptr<ServerSession> session) {
  SLIM_CHECK(session != nullptr && !session->attached());
  const auto existing = card_to_session_.find(card_id);
  if (existing != card_to_session_.end()) {
    // Same rule as CreateSession: one card, one session. (Reaching here means a local
    // session raced the migration — the installed copy is the owning one.)
    const uint32_t old_id = existing->second;
    if (ServerSession* old = FindSession(old_id)) {
      DetachSession(*old, ReleaseReason::kEvicted);
      EvictSession(old_id);
    } else {
      card_to_session_.erase(existing);
    }
  }
  const uint32_t id = session->id();
  ServerSession& ref = *session;
  sessions_[id] = std::move(session);
  card_to_session_[card_id] = id;
  Lifecycle lc;
  lc.card_id = card_id;
  lc.last_heard = sim_->now();
  lifecycle_[id] = lc;
  ScheduleEviction(id);
  return ref;
}

void SlimServer::DiscardSession(uint32_t session_id) {
  const auto it = lifecycle_.find(session_id);
  if (it == lifecycle_.end()) {
    return;
  }
  Lifecycle& lc = it->second;
  SLIM_CHECK(lc.state == SessionState::kDetached);
  if (lc.probe_event != kInvalidEventId) {
    sim_->Cancel(lc.probe_event);
  }
  if (lc.evict_event != kInvalidEventId) {
    sim_->Cancel(lc.evict_event);
  }
  const auto card = card_to_session_.find(lc.card_id);
  if (card != card_to_session_.end() && card->second == session_id) {
    card_to_session_.erase(card);
  }
  if (options_.pacing.enabled) {
    ResetSessionPacing(session_id);
  }
  lifecycle_.erase(it);
  sessions_.erase(session_id);
}

void SlimServer::Kill() { endpoint_->set_dead(true); }

ServerSession& SlimServer::CreateSession(uint64_t card_id) {
  const auto existing = card_to_session_.find(card_id);
  if (existing != card_to_session_.end()) {
    // The card is being re-bound (re-issued, or a caller asked for a fresh session): the
    // directory must never hold two sessions for one card, so the old one is reclaimed —
    // not left dangling in sessions_ behind an overwritten mapping.
    const uint32_t old_id = existing->second;
    if (ServerSession* old = FindSession(old_id)) {
      DetachSession(*old, ReleaseReason::kEvicted);
      EvictSession(old_id);
    } else {
      card_to_session_.erase(existing);
    }
  }
  const uint32_t id = next_session_id_++;
  auto session = std::make_unique<ServerSession>(this, id, options_.session_width,
                                                 options_.session_height);
  ServerSession& ref = *session;
  sessions_[id] = std::move(session);
  card_to_session_[card_id] = id;
  Lifecycle lc;
  lc.card_id = card_id;
  lc.last_heard = sim_->now();
  lifecycle_[id] = lc;
  // A freshly created session is detached; if eviction is on, its idle clock starts now so
  // a session whose attach never arrives (lost on the fabric) does not live forever.
  ScheduleEviction(id);
  return ref;
}

ServerSession* SlimServer::FindSession(uint32_t session_id) {
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

ServerSession* SlimServer::SessionForCard(uint64_t card_id) {
  const auto it = card_to_session_.find(card_id);
  return it == card_to_session_.end() ? nullptr : FindSession(it->second);
}

SessionState SlimServer::session_state(uint32_t session_id) const {
  const auto it = lifecycle_.find(session_id);
  return it == lifecycle_.end() ? SessionState::kDetached : it->second.state;
}

SimTime SlimServer::Transmit(NodeId console, uint32_t session_id, MessageBody body,
                             SimDuration cpu_cost, uint64_t flow_id) {
  return tx_->Send(console, session_id, std::move(body), cpu_cost, flow_id);
}

void SlimServer::SchedulePaceRetry(uint32_t session_id, SimTime at) {
  sim_->ScheduleAt(std::max(at, sim_->now()), [this, session_id] {
    if (ServerSession* session = FindSession(session_id)) {
      session->OnPaceRetry();
    }
  });
}

void SlimServer::ApplyGrant(const BandwidthGrantMsg& grant) {
  if (!options_.pacing.enabled || grant.flow_id == 0) {
    return;
  }
  ServerSession* session = FindSession(ServerSession::SessionOfFlow(grant.flow_id));
  if (session == nullptr || !session->attached()) {
    return;  // stale grant for a session that moved on; the new console will re-grant
  }
  // Token-bucket depth, expressed as time at the granted rate (the paper's Section 7
  // allocator averages over windows of this order).
  constexpr SimDuration kGrantBurstWindow = 50 * kMillisecond;
  tx_->SetFlowRate(grant.flow_id, grant.bits_per_second, kGrantBurstWindow);
  ++pacing_stats_.grants_applied;
  session->OnBandwidthGrant(grant.flow_id, grant.bits_per_second, grant.total_bps);
}

void SlimServer::RequestSessionBandwidth(ServerSession& session, NodeId console) {
  // Each session's attach-time asks. The video pipeline re-requests its actual offered
  // rate when it starts; the interactive ask stays small so the ascending allocator
  // satisfies it first.
  constexpr int64_t kInteractiveRequestBps = 2'000'000;
  constexpr int64_t kVideoRequestBps = 40'000'000;
  const auto request = [&](uint64_t flow, int64_t bps) {
    ++pacing_stats_.requests_sent;
    Transmit(console, session.id(), BandwidthRequestMsg{flow, bps}, 0);
  };
  request(ServerSession::InteractiveFlow(session.id()), kInteractiveRequestBps);
  request(ServerSession::VideoFlow(session.id()), kVideoRequestBps);
}

void SlimServer::ResetSessionPacing(uint32_t session_id) {
  tx_->PurgeSession(session_id);
  tx_->ReleaseFlow(ServerSession::InteractiveFlow(session_id));
  tx_->ReleaseFlow(ServerSession::VideoFlow(session_id));
}

bool SlimServer::RegisterMetrics(MetricRegistry* registry, const std::string& prefix) {
  SLIM_CHECK(registry != nullptr);
  bool ok = auth_.RegisterMetrics(registry, prefix + ".auth");
  // Which kernel tier the encode path resolved at startup (KernelTier numeric value:
  // 0=scalar 1=sse2). A gauge so dashboards snapshotting a server can tell whether its
  // pixel loops are running vectorized without shell access. The tier is process-wide,
  // so only the first server registered into a shared registry binds it.
  if (!registry->Contains("codec.kernels.tier")) {
    ok = registry->BindGauge("codec.kernels.tier",
                             [] { return static_cast<double>(Kernels().tier); }) &&
         ok;
  }
  ok = registry->BindGauge(prefix + ".sessions",
                           [this] { return static_cast<double>(sessions_.size()); }) &&
       ok;
  ok = registry->BindGauge(prefix + ".cards",
                           [this] { return static_cast<double>(card_to_session_.size()); }) &&
       ok;
  ok = registry->BindGauge(prefix + ".devices",
                           [this] { return static_cast<double>(devices_.total_devices()); }) &&
       ok;
  const std::string lp = prefix + ".lifecycle";
  ok = registry->BindCounter(lp + ".attaches", &lifecycle_stats_.attaches) && ok;
  ok = registry->BindCounter(lp + ".detaches", &lifecycle_stats_.detaches) && ok;
  ok = registry->BindCounter(lp + ".hotdesk_handoffs", &lifecycle_stats_.hotdesk_handoffs) &&
       ok;
  ok = registry->BindCounter(lp + ".releases_sent", &lifecycle_stats_.releases_sent) && ok;
  ok = registry->BindCounter(lp + ".keepalive_timeouts",
                             &lifecycle_stats_.keepalive_timeouts) &&
       ok;
  ok = registry->BindCounter(lp + ".probes_sent", &lifecycle_stats_.probes_sent) && ok;
  ok = registry->BindCounter(lp + ".evictions", &lifecycle_stats_.evictions) && ok;
  const std::string pp = prefix + ".pacing";
  ok = registry->BindCounter(pp + ".requests_sent", &pacing_stats_.requests_sent) && ok;
  ok = registry->BindCounter(pp + ".grants_applied", &pacing_stats_.grants_applied) && ok;
  ok = registry->BindCounter(pp + ".video_deferred", &pacing_stats_.video_deferred) && ok;
  ok = registry->BindCounter(pp + ".video_dropped", &pacing_stats_.video_dropped) && ok;
  ok = registry->BindCounter(pp + ".coalesced_flushes", &pacing_stats_.coalesced_flushes) &&
       ok;
  ok = tx_->RegisterMetrics(registry, prefix + ".txq") && ok;
  if (migration_ != nullptr) {
    ok = migration_->RegisterMetrics(registry, prefix) && ok;
  }
  return endpoint_->RegisterMetrics(registry, prefix + ".transport") && ok;
}

void SlimServer::OnMessage(const Message& msg, NodeId from) {
  // Anything a console says proves it is alive; this is what the keepalive pong (and every
  // input event) feeds.
  NoteConsoleAlive(from);
  if (const auto* attach = std::get_if<SessionAttachMsg>(&msg.body)) {
    HandleAttach(attach->card_id, from);
    return;
  }
  if (const auto* detach = std::get_if<SessionDetachMsg>(&msg.body)) {
    HandleDetach(detach->card_id, from);
    return;
  }
  if (std::holds_alternative<KeyEventMsg>(msg.body) ||
      std::holds_alternative<MouseEventMsg>(msg.body)) {
    ServerSession* session = FindSession(msg.session_id);
    if (session != nullptr) {
      session->DeliverInput(msg);
    }
    return;
  }
  if (const auto* ping = std::get_if<PingMsg>(&msg.body)) {
    // Through the ordered queue: a pong must not overtake display commands still queued
    // behind the modeled CPU (it would report a state the console has not seen).
    Transmit(from, msg.session_id, PongMsg{ping->payload}, 0);
    return;
  }
  if (const auto* grant = std::get_if<BandwidthGrantMsg>(&msg.body)) {
    // The console's allocator answered (or revised a surviving flow's share after some
    // other flow came or went): close the Section 7 loop by enforcing it on the send path.
    ApplyGrant(*grant);
    return;
  }
  if (migration_ != nullptr) {
    // Server <-> server traffic (DESIGN.md §9); ignored entirely by pool-less servers.
    if (const auto* begin = std::get_if<MigrateBeginMsg>(&msg.body)) {
      migration_->OnMigrateBegin(*begin, from);
      return;
    }
    if (const auto* chunk = std::get_if<CheckpointChunkMsg>(&msg.body)) {
      migration_->OnCheckpointChunk(*chunk, from);
      return;
    }
    if (const auto* commit = std::get_if<MigrateCommitMsg>(&msg.body)) {
      migration_->OnMigrateCommit(*commit, from);
      return;
    }
    if (const auto* abort = std::get_if<MigrateAbortMsg>(&msg.body)) {
      migration_->OnMigrateAbort(*abort, from);
      return;
    }
  }
  // Status / audio / pongs from consoles need no further action (the pong's job —
  // liveness — was done by NoteConsoleAlive above).
}

void SlimServer::HandleAttach(uint64_t card_id, NodeId from) {
  if (!auth_.Verify(card_id)) {
    return;  // Unknown card: the screen stays dark.
  }
  ServerSession* session = SessionForCard(card_id);
  if (session == nullptr && migration_ != nullptr) {
    // The card may live on another server in the pool: pull it (attach completes when the
    // migrated session installs) or restore it from the warm store if the owner is dead.
    MigrationManager::AdoptResult adopted = migration_->AdoptCard(card_id, from);
    if (adopted.pending) {
      return;
    }
    session = adopted.session;
  }
  if (session == nullptr) {
    session = &CreateSession(card_id);
    if (migration_ != nullptr) {
      migration_->NoteLocalSession(card_id);
    }
  }
  Lifecycle& lc = lifecycle_.at(session->id());
  if (lc.state == SessionState::kAttached && session->console() != from) {
    // Hotdesking: the card surfaced at another console. Release the old console first —
    // the blank notice enters the ordered pipeline ahead of the new console's repaint, so
    // the old console is told to stop before the new one starts.
    ++lifecycle_stats_.hotdesk_handoffs;
    console_to_session_.erase(session->console());
    ReleaseConsole(session->console(), session->id(), ReleaseReason::kHotdesk);
  }
  AttachSessionToConsole(*session, from);
}

void SlimServer::HandleDetach(uint64_t card_id, NodeId from) {
  ServerSession* session = SessionForCard(card_id);
  if (session != nullptr && session->attached() && session->console() == from) {
    DetachSession(*session, ReleaseReason::kCardRemoved);
  }
}

void SlimServer::AttachSessionToConsole(ServerSession& session, NodeId console) {
  // A console shows one session: if another session was on this screen, it loses it (its
  // user's card is gone — a new card was inserted over it).
  const auto shown = console_to_session_.find(console);
  if (shown != console_to_session_.end() && shown->second != session.id()) {
    if (ServerSession* old = FindSession(shown->second)) {
      DetachSession(*old, ReleaseReason::kReplaced);
    } else {
      console_to_session_.erase(shown);
    }
  }
  // A re-attach supersedes any in-flight blank notice for this console: without this, a
  // delayed release re-send could blank the screen right after the repaint below.
  CancelPendingReleases(console);

  Lifecycle& lc = lifecycle_.at(session.id());
  lc.state = SessionState::kAttached;
  lc.last_heard = sim_->now();
  lc.missed_probes = 0;
  lc.probe_gap = options_.lifecycle.keepalive_interval;
  if (lc.evict_event != kInvalidEventId) {
    sim_->Cancel(lc.evict_event);
    lc.evict_event = kInvalidEventId;
  }
  console_to_session_[console] = session.id();
  ++lifecycle_stats_.attaches;
  if (options_.pacing.enabled) {
    // Ask the console's allocator for this session's flows before the repaint enters the
    // pipeline, so the grants are usually in force by the time steady-state traffic flows.
    RequestSessionBandwidth(session, console);
  }
  if (migration_ != nullptr) {
    // Close the blackout clock if one is running for this card.
    migration_->OnSessionAttached(lc.card_id, session.id());
  }
  // ForceRepaintAll + Flush: the console's framebuffer is soft state and starts black.
  session.AttachConsole(console);
  ArmProbe(session.id(), lc.probe_gap);
}

void SlimServer::DetachSession(ServerSession& session, ReleaseReason reason) {
  const auto it = lifecycle_.find(session.id());
  if (it == lifecycle_.end() || it->second.state == SessionState::kDetached) {
    return;
  }
  Lifecycle& lc = it->second;
  lc.state = SessionState::kDetached;
  if (lc.probe_event != kInvalidEventId) {
    sim_->Cancel(lc.probe_event);
    lc.probe_event = kInvalidEventId;
  }
  const NodeId console = session.console();
  const auto shown = console_to_session_.find(console);
  if (shown != console_to_session_.end() && shown->second == session.id()) {
    console_to_session_.erase(shown);
  }
  ReleaseConsole(console, session.id(), reason);
  session.DetachConsole();
  ++lifecycle_stats_.detaches;
  if (LatencyAudit* audit = LatencyAudit::Global();
      audit != nullptr && (reason == ReleaseReason::kLivenessTimeout ||
                           reason == ReleaseReason::kEvicted)) {
    // A silent console or a forced eviction is an incident, not a hotdesk move: capture
    // the flight ring while the events leading up to it are still in it.
    audit->NoteForcedDetach(session.id(), static_cast<int>(reason), sim_->now());
  }
  ScheduleEviction(session.id());
}

void SlimServer::ReleaseConsole(NodeId console, uint32_t session_id, ReleaseReason reason) {
  if (options_.pacing.enabled) {
    // The queued backlog is for a console about to blank: cancel it so the release notice
    // is neither stuck behind nor overtaken by worthless bytes, and forget the old
    // console's grants — the next console's allocator starts fresh.
    ResetSessionPacing(session_id);
  }
  ++lifecycle_stats_.releases_sent;
  Transmit(console, session_id, SessionReleaseMsg{reason}, 0);
  // Bounded idempotent re-sends: a lost notice would otherwise leave the console showing
  // the dead session forever, since nothing else flows there to expose the loss. A newer
  // release for the same console supersedes the pending copies.
  CancelPendingReleases(console);
  // The extra copies also give the transport's gap detection fresh traffic to NACK a lost
  // one against.
  constexpr int kReleaseResends = 2;
  constexpr SimDuration kReleaseResendGap = 25 * kMillisecond;
  auto& pending = pending_releases_[console];
  for (int i = 1; i <= kReleaseResends; ++i) {
    pending.push_back(sim_->Schedule(
        i * kReleaseResendGap, [this, console, session_id, reason] {
          ++lifecycle_stats_.releases_sent;
          Transmit(console, session_id, SessionReleaseMsg{reason}, 0);
        }));
  }
}

void SlimServer::CancelPendingReleases(NodeId console) {
  const auto it = pending_releases_.find(console);
  if (it == pending_releases_.end()) {
    return;
  }
  for (const EventId id : it->second) {
    sim_->Cancel(id);  // no-op for copies that already went out
  }
  pending_releases_.erase(it);
}

void SlimServer::NoteConsoleAlive(NodeId from) {
  const auto it = console_to_session_.find(from);
  if (it == console_to_session_.end()) {
    return;
  }
  const auto lc = lifecycle_.find(it->second);
  if (lc == lifecycle_.end() || lc->second.state != SessionState::kAttached) {
    return;
  }
  lc->second.last_heard = sim_->now();
  lc->second.missed_probes = 0;
  lc->second.probe_gap = options_.lifecycle.keepalive_interval;
}

void SlimServer::ArmProbe(uint32_t session_id, SimDuration gap) {
  if (options_.lifecycle.keepalive_interval <= 0) {
    return;
  }
  Lifecycle& lc = lifecycle_.at(session_id);
  if (lc.probe_event != kInvalidEventId) {
    sim_->Cancel(lc.probe_event);
  }
  lc.probe_event = sim_->Schedule(gap, [this, session_id] { OnProbeTimer(session_id); });
}

void SlimServer::OnProbeTimer(uint32_t session_id) {
  const auto it = lifecycle_.find(session_id);
  if (it == lifecycle_.end() || it->second.state != SessionState::kAttached) {
    return;
  }
  Lifecycle& lc = it->second;
  lc.probe_event = kInvalidEventId;
  ServerSession* session = FindSession(session_id);
  if (session == nullptr || !session->attached()) {
    return;
  }
  const SimTime now = sim_->now();
  if (now - lc.last_heard > options_.lifecycle.keepalive_timeout) {
    // The console has been silent across a whole probe window: count the miss and back
    // off the re-probe gap (bounded) so a dead console is not ping-hammered.
    ++lc.missed_probes;
    constexpr SimDuration kProbeBackoffMax = 2 * kSecond;
    lc.probe_gap = std::min<SimDuration>(lc.probe_gap * 2, kProbeBackoffMax);
    if (lc.missed_probes >= options_.lifecycle.max_missed_probes) {
      ++lifecycle_stats_.keepalive_timeouts;
      DetachSession(*session, ReleaseReason::kLivenessTimeout);
      return;
    }
  } else {
    lc.missed_probes = 0;
    lc.probe_gap = options_.lifecycle.keepalive_interval;
  }
  ++lifecycle_stats_.probes_sent;
  Transmit(session->console(), session_id, PingMsg{static_cast<uint64_t>(now)}, 0);
  ArmProbe(session_id, lc.probe_gap);
}

void SlimServer::ScheduleEviction(uint32_t session_id) {
  if (options_.lifecycle.evict_after <= 0) {
    return;
  }
  Lifecycle& lc = lifecycle_.at(session_id);
  if (lc.evict_event != kInvalidEventId) {
    sim_->Cancel(lc.evict_event);
  }
  lc.evict_event = sim_->Schedule(options_.lifecycle.evict_after,
                                  [this, session_id] { EvictSession(session_id); });
}

void SlimServer::EvictSession(uint32_t session_id) {
  const auto it = lifecycle_.find(session_id);
  if (it == lifecycle_.end() || it->second.state == SessionState::kAttached) {
    return;  // reattached (or already gone): the idle clock no longer applies
  }
  Lifecycle& lc = it->second;
  if (lc.probe_event != kInvalidEventId) {
    sim_->Cancel(lc.probe_event);
  }
  if (lc.evict_event != kInvalidEventId) {
    sim_->Cancel(lc.evict_event);
  }
  // Reclaim the card mapping only if it still points here (the card may have been re-bound
  // to a fresh session by CreateSession).
  const auto card = card_to_session_.find(lc.card_id);
  if (card != card_to_session_.end() && card->second == session_id) {
    card_to_session_.erase(card);
  }
  if (options_.pacing.enabled) {
    // Eviction hygiene: no cancelled session may leave queued sends, depth, or a flow
    // pacer behind in the transmit queue.
    ResetSessionPacing(session_id);
  }
  lifecycle_.erase(it);
  sessions_.erase(session_id);
  ++lifecycle_stats_.evictions;
}

}  // namespace slim
