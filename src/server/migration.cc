#include "src/server/migration.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/obs/latency_audit.h"
#include "src/obs/metrics.h"
#include "src/server/slim_server.h"
#include "src/util/check.h"

namespace slim {

namespace {

// Migration bulk-transfer flows live far above the session flow id space
// (session_id * 2 + {1,2}), so a pacer for a checkpoint transfer can never collide with a
// session's interactive or video flow.
constexpr uint64_t kMigrationFlowBit = 1ull << 62;

}  // namespace

// --- ServerPool ---

void ServerPool::Register(SlimServer* server, MigrationManager* manager) {
  SLIM_CHECK(server != nullptr && manager != nullptr);
  for (const Entry& e : entries_) {
    SLIM_CHECK(e.server != server);
  }
  entries_.push_back(Entry{server, manager, /*alive=*/true});
  servers_.push_back(server);
}

SlimServer* ServerPool::owner(uint64_t card_id) const {
  const auto it = owner_.find(card_id);
  return it == owner_.end() ? nullptr : it->second;
}

void ServerPool::SetOwner(uint64_t card_id, SlimServer* server) {
  owner_[card_id] = server;
}

void ServerPool::ClearOwnerIf(uint64_t card_id, SlimServer* server) {
  const auto it = owner_.find(card_id);
  if (it != owner_.end() && it->second == server) {
    owner_.erase(it);
  }
}

bool ServerPool::alive(const SlimServer* server) const {
  for (const Entry& e : entries_) {
    if (e.server == server) {
      return e.alive;
    }
  }
  return false;
}

void ServerPool::KillServer(SlimServer* server) {
  for (Entry& e : entries_) {
    if (e.server == server) {
      e.alive = false;
      server->Kill();
      return;
    }
  }
}

uint64_t ServerPool::IssueCard(uint32_t user_number) {
  SLIM_CHECK(!entries_.empty());
  uint64_t card_id = 0;
  for (const Entry& e : entries_) {
    const uint64_t issued = e.server->auth().IssueCard(user_number);
    SLIM_CHECK(card_id == 0 || issued == card_id);  // shared site key: one id everywhere
    card_id = issued;
  }
  return card_id;
}

bool ServerPool::RequestMigration(uint64_t card_id, SlimServer* dest) {
  SlimServer* src = owner(card_id);
  if (src == nullptr || src == dest || !alive(src)) {
    return false;
  }
  MigrationManager* manager = ManagerFor(src);
  if (manager == nullptr || !manager->StartMigration(card_id, dest)) {
    ClearOwnerIf(card_id, src);  // stale directory entry: the owner has nothing to move
    return false;
  }
  return true;
}

SlimServer* ServerPool::ServerForNode(NodeId node) const {
  for (const Entry& e : entries_) {
    if (e.server->node() == node) {
      return e.server;
    }
  }
  return nullptr;
}

MigrationManager* ServerPool::ManagerFor(const SlimServer* server) const {
  for (const Entry& e : entries_) {
    if (e.server == server) {
      return e.manager;
    }
  }
  return nullptr;
}

SimTime ServerPool::TakeBlackoutStart(uint64_t card_id) {
  const auto it = blackout_start_.find(card_id);
  if (it == blackout_start_.end()) {
    return -1;
  }
  const SimTime t = it->second;
  blackout_start_.erase(it);
  return t;
}

// --- MigrationManager ---

MigrationManager::MigrationManager(SlimServer* server, ServerPool* pool)
    : server_(server), pool_(pool) {
  SLIM_CHECK(server != nullptr && pool != nullptr);
}

uint64_t MigrationManager::NewEpoch() {
  // Globally unique without coordination: the server's node id in the high bits, a local
  // counter in the low. Stays clear of kMigrationFlowBit so epoch ^ flow-bit is reversible.
  return (static_cast<uint64_t>(server_->node()) << 40) | ++epoch_counter_;
}

SessionCheckpoint MigrationManager::Capture(uint64_t card_id, ServerSession& session) {
  SessionCheckpoint ckpt;
  session.CaptureCheckpoint(&ckpt);
  ckpt.card_id = card_id;
  ++checkpoint_stats_.captures;
  return ckpt;
}

void MigrationManager::SendRound(Outgoing& out, MigratePurpose purpose) {
  constexpr size_t kChunkBytes = MigrationOptions::kChunkBytes;
  const uint32_t chunk_count =
      static_cast<uint32_t>((out.blob.size() + kChunkBytes - 1) / kChunkBytes);
  MigrateBeginMsg begin;
  begin.epoch = out.epoch;
  begin.card_id = out.card_id;
  begin.origin_session = out.origin_session;
  begin.round = out.round;
  begin.purpose = purpose;
  begin.chunk_count = chunk_count;
  begin.total_bytes = out.blob.size();
  // session_id 0 on every migration message: control-plane traffic must never be caught
  // by a PurgeSession for the migrating session.
  server_->Transmit(out.peer, 0, begin, 0, out.flow);
  ++stats_.begins_sent;
  for (uint32_t i = 0; i < chunk_count; ++i) {
    const size_t offset = static_cast<size_t>(i) * kChunkBytes;
    const size_t len = std::min(kChunkBytes, out.blob.size() - offset);
    CheckpointChunkMsg chunk;
    chunk.epoch = out.epoch;
    chunk.round = out.round;
    chunk.index = i;
    chunk.count = chunk_count;
    chunk.offset = offset;
    chunk.data.assign(out.blob.begin() + static_cast<ptrdiff_t>(offset),
                      out.blob.begin() + static_cast<ptrdiff_t>(offset + len));
    server_->Transmit(out.peer, 0, std::move(chunk), 0, out.flow);
    ++stats_.chunks_sent;
    stats_.chunk_bytes_sent += static_cast<int64_t>(len);
  }
}

bool MigrationManager::StartMigration(uint64_t card_id, SlimServer* dest) {
  SLIM_CHECK(dest != nullptr && dest != server_);
  ServerSession* session = server_->SessionForCard(card_id);
  if (session == nullptr) {
    return false;
  }
  // One outgoing attempt per card: a newer request supersedes an older one.
  for (const auto& [epoch, out] : outgoing_) {
    if (out.card_id == card_id) {
      AbortOutgoing(epoch, MigrateAbortReason::kSuperseded, /*notify_peer=*/true);
      ++stats_.superseded;
      break;
    }
  }

  Outgoing out;
  out.epoch = NewEpoch();
  out.card_id = card_id;
  out.origin_session = session->id();
  out.dest = dest;
  out.peer = dest->node();
  out.round = 0;
  out.blob = EncodeCheckpoint(Capture(card_id, *session));
  checkpoint_stats_.capture_bytes += static_cast<int64_t>(out.blob.size());
  out.flow = kMigrationFlowBit ^ out.epoch;
  server_->tx_->SetFlowRate(out.flow, MigrationOptions::kRateBps, MigrationOptions::kBurstWindow);
  const uint64_t epoch = out.epoch;
  outgoing_[epoch] = std::move(out);
  SendRound(outgoing_[epoch], MigratePurpose::kHandoff);
  ArmSourceTimer(epoch);
  ++stats_.started;
  return true;
}

void MigrationManager::ArmSourceTimer(uint64_t epoch) {
  const auto it = outgoing_.find(epoch);
  if (it == outgoing_.end()) {
    return;
  }
  if (it->second.timer != kInvalidEventId) {
    server_->simulator()->Cancel(it->second.timer);
  }
  // The ack cannot arrive before the paced blob has even drained: budget the transfer
  // time at kRateBps on top of the ack window, or a multi-megabyte checkpoint would be
  // re-sent (and eventually aborted) mid-flight.
  const SimDuration timeout =
      MigrationOptions::kAckTimeout +
      static_cast<SimDuration>(static_cast<double>(it->second.blob.size()) * 8.0 /
                               MigrationOptions::kRateBps * kSecond);
  it->second.timer = server_->simulator()->Schedule(
      timeout, [this, epoch] { OnSourceTimeout(epoch); });
}

void MigrationManager::OnSourceTimeout(uint64_t epoch) {
  const auto it = outgoing_.find(epoch);
  if (it == outgoing_.end()) {
    return;
  }
  Outgoing& out = it->second;
  out.timer = kInvalidEventId;
  ++out.retries;
  ++stats_.retries;
  if (!pool_->alive(out.dest) || out.retries > MigrationOptions::kMaxRetries) {
    // The destination is gone or unreachable: keep the session here. If it was frozen the
    // console was already released — it stays detached on this (still-owning) server until
    // the card shows up somewhere again.
    AbortOutgoing(epoch, MigrateAbortReason::kTimeout, /*notify_peer=*/true);
    return;
  }
  // Re-send the whole round. Each copy travels with fresh transport seqs, so beyond being
  // the retry it also feeds the receiver's NACK gap-detection new evidence.
  SendRound(out, MigratePurpose::kHandoff);
  ArmSourceTimer(epoch);
}

void MigrationManager::AbortOutgoing(uint64_t epoch, MigrateAbortReason reason,
                                     bool notify_peer) {
  const auto it = outgoing_.find(epoch);
  if (it == outgoing_.end()) {
    return;
  }
  Outgoing& out = it->second;
  if (out.timer != kInvalidEventId) {
    server_->simulator()->Cancel(out.timer);
  }
  server_->tx_->ReleaseFlow(out.flow);
  if (notify_peer) {
    server_->Transmit(out.peer, 0, MigrateAbortMsg{epoch, reason}, 0);
  }
  ++stats_.aborted;
  outgoing_.erase(it);
}

void MigrationManager::CommitOutgoing(uint64_t epoch) {
  const auto it = outgoing_.find(epoch);
  if (it == outgoing_.end()) {
    return;
  }
  Outgoing out = std::move(it->second);
  outgoing_.erase(it);
  if (out.timer != kInvalidEventId) {
    server_->simulator()->Cancel(out.timer);
  }
  server_->tx_->ReleaseFlow(out.flow);
  // The commit point: ownership changes hands exactly here.
  committed_.insert(epoch);
  pool_->SetOwner(out.card_id, out.dest);
  server_->DiscardSession(out.origin_session);
  server_->Transmit(out.peer, 0, MigrateCommitMsg{epoch, out.round, /*phase=*/2}, 0);
  ++stats_.phase2_sent;
  ++stats_.committed;
}

// --- Destination side ---

void MigrationManager::ResetIncomingRound(Incoming& in, const MigrateBeginMsg& msg,
                                          NodeId from) {
  in.from = from;
  in.card_id = msg.card_id;
  in.origin_session = msg.origin_session;
  in.purpose = msg.purpose;
  in.round = msg.round;
  in.begin_seen = true;
  in.chunk_count = msg.chunk_count;
  in.total_bytes = msg.total_bytes;
  in.blob.assign(msg.total_bytes, 0);
  in.got.assign(msg.chunk_count, false);
  in.received = 0;
  in.staged.reset();
  in.retries = 0;
  if (in.timer != kInvalidEventId) {
    server_->simulator()->Cancel(in.timer);
    in.timer = kInvalidEventId;
  }
}

void MigrationManager::OnMigrateBegin(const MigrateBeginMsg& msg, NodeId from) {
  if (done_.contains(msg.epoch)) {
    return;
  }
  Incoming& in = incoming_[msg.epoch];
  if (in.begin_seen && msg.round < in.round) {
    return;  // a stale round's retry
  }
  if (!in.begin_seen || msg.round > in.round) {
    // First Begin for this round: (re)size the reassembly buffer, then drain any chunks
    // that raced ahead of it.
    std::map<uint32_t, CheckpointChunkMsg> early = std::move(in.early_chunks);
    ResetIncomingRound(in, msg, from);
    for (auto& [index, chunk] : early) {
      if (chunk.round == in.round) {
        ApplyChunk(in, chunk);
      }
    }
  }
  if (in.begin_seen && in.chunk_count > 0 && in.received == in.chunk_count) {
    // Re-announced round whose chunks all arrived already (a retry after our phase-1 was
    // lost): re-complete, which re-sends phase-1.
    CompleteIncoming(msg.epoch);
  }
  if (in.begin_seen && in.chunk_count == 0) {
    CompleteIncoming(msg.epoch);  // degenerate empty blob (never produced, but total)
  }
  const auto it = incoming_.find(msg.epoch);
  if (it != incoming_.end() && it->second.staged == nullptr &&
      it->second.purpose == MigratePurpose::kStandby) {
    // Fire-and-forget rounds have no source retry driving them: arm the quiet-period GC
    // so a chunk-lossy round is reclaimed instead of leaking per tick.
    ArmDestTimer(msg.epoch);
  }
}

void MigrationManager::ApplyChunk(Incoming& in, const CheckpointChunkMsg& msg) {
  if (msg.count != in.chunk_count || msg.index >= in.chunk_count ||
      msg.offset + msg.data.size() > in.total_bytes) {
    return;  // inconsistent with this round's Begin: drop, the blob decode would reject it
  }
  if (in.got[msg.index]) {
    return;  // duplicate
  }
  std::memcpy(in.blob.data() + msg.offset, msg.data.data(), msg.data.size());
  in.got[msg.index] = true;
  ++in.received;
  ++stats_.chunks_received;
}

void MigrationManager::OnCheckpointChunk(const CheckpointChunkMsg& msg, NodeId from) {
  if (done_.contains(msg.epoch)) {
    return;
  }
  Incoming& in = incoming_[msg.epoch];
  if (in.begin_seen && msg.round < in.round) {
    return;
  }
  if (!in.begin_seen || msg.round > in.round) {
    // No Begin for this round yet (delivery raced around a replayed gap): hold the chunk
    // until the Begin supplies the buffer dimensions.
    if (in.from == kInvalidNode) {
      in.from = from;
    }
    auto& early = in.early_chunks;
    // Drop stashed chunks of older rounds the moment a newer round's chunk appears.
    for (auto it = early.begin(); it != early.end();) {
      it = it->second.round < msg.round ? early.erase(it) : std::next(it);
    }
    early[msg.index] = msg;
    if (!in.begin_seen) {
      // No Begin yet: if one never arrives (lost and never retried — a standby round),
      // the quiet-period GC reclaims this orphan.
      ArmDestTimer(msg.epoch);
    }
    return;
  }
  ApplyChunk(in, msg);
  if (in.chunk_count > 0 && in.received == in.chunk_count) {
    CompleteIncoming(msg.epoch);
  }
}

void MigrationManager::CompleteIncoming(uint64_t epoch) {
  const auto it = incoming_.find(epoch);
  if (it == incoming_.end()) {
    return;
  }
  Incoming& in = it->second;
  if (in.purpose == MigratePurpose::kStandby) {
    // Warm replication: store the blob, no handshake. Decode up front so a corrupt blob
    // is counted now, not at the worst possible moment (failover).
    if (DecodeCheckpoint(in.blob).has_value()) {
      warm_[in.card_id] = std::move(in.blob);
      ++stats_.standby_stored;
    } else {
      ++checkpoint_stats_.decode_failures;
    }
    done_.insert(epoch);
    incoming_.erase(it);
    return;
  }
  if (in.staged == nullptr) {
    std::optional<SessionCheckpoint> ckpt = DecodeCheckpoint(in.blob);
    if (!ckpt.has_value()) {
      ++checkpoint_stats_.decode_failures;
      server_->Transmit(in.from, 0,
                        MigrateAbortMsg{epoch, MigrateAbortReason::kBadCheckpoint}, 0);
      ++stats_.aborted;
      done_.insert(epoch);
      incoming_.erase(it);
      return;
    }
    in.staged = server_->BuildStagedSession(*ckpt);
    ++checkpoint_stats_.restores;
    ++stats_.staged;
  }
  SendPhase1(epoch);
  ArmDestTimer(epoch);
}

void MigrationManager::SendPhase1(uint64_t epoch) {
  const auto it = incoming_.find(epoch);
  if (it == incoming_.end()) {
    return;
  }
  server_->Transmit(it->second.from, 0,
                    MigrateCommitMsg{epoch, it->second.round, /*phase=*/1}, 0);
  ++stats_.phase1_sent;
}

void MigrationManager::ArmDestTimer(uint64_t epoch) {
  const auto it = incoming_.find(epoch);
  if (it == incoming_.end()) {
    return;
  }
  if (it->second.timer != kInvalidEventId) {
    server_->simulator()->Cancel(it->second.timer);
  }
  // Mirror of the source timer's budget: while a round is still reassembling, its chunks
  // are draining through the source's paced flow, so a flat ack window would garbage-
  // collect a perfectly healthy multi-megabyte transfer mid-flight. Both servers run the
  // same MigrationOptions, so the source's rate prices the wait here too.
  SimDuration timeout = MigrationOptions::kAckTimeout;
  if (it->second.received < it->second.chunk_count) {
    timeout += static_cast<SimDuration>(static_cast<double>(it->second.total_bytes) * 8.0 /
                                        MigrationOptions::kRateBps * kSecond);
  }
  it->second.timer = server_->simulator()->Schedule(
      timeout, [this, epoch] { OnDestTimeout(epoch); });
}

void MigrationManager::OnDestTimeout(uint64_t epoch) {
  const auto it = incoming_.find(epoch);
  if (it == incoming_.end()) {
    return;
  }
  Incoming& in = it->second;
  in.timer = kInvalidEventId;
  if (in.staged == nullptr) {
    // An incomplete reassembly went quiet. Handoffs are driven by the source's own retry
    // timer, so keep waiting while the source lives; everything else — standby rounds
    // (the next tick re-replicates from scratch), chunk-only orphans whose Begin died,
    // and any transfer from a dead source — is dropped so it cannot leak or read as
    // in-flight forever.
    SlimServer* src = pool_->ServerForNode(in.from);
    if (src == nullptr || !pool_->alive(src) || !in.begin_seen ||
        in.purpose == MigratePurpose::kStandby) {
      // A chunk-only orphan from a live source is dropped WITHOUT a tombstone: its Begin
      // was lost but the source is still retrying it, and the retry must be able to
      // restart the round under the same epoch.
      const bool live_orphan = src != nullptr && pool_->alive(src) && !in.begin_seen;
      DropIncoming(epoch, /*tombstone=*/!live_orphan);
    }
    return;
  }
  ++in.retries;
  ++stats_.retries;
  SlimServer* source = pool_->ServerForNode(in.from);
  if (in.retries > MigrationOptions::kMaxRetries && (source == nullptr || !pool_->alive(source))) {
    // The source died after we staged (maybe after it committed — its phase-2 will never
    // come). Nobody else can own the session, and our staged copy is the freshest state
    // in the pool: adopt it. If the source had NOT committed this would double-own — but
    // a live source either answers or aborts, so adoption only triggers on a dead one.
    if (source != nullptr) {
      pool_->ClearOwnerIf(in.card_id, source);
    }
    ++stats_.adoptions;
    InstallIncoming(epoch);
    return;
  }
  // Keep asking. The destination never unilaterally drops a staged handoff while the
  // source lives: the source's phase-2 or abort is the only resolution (see migration.h).
  SendPhase1(epoch);
  ArmDestTimer(epoch);
}

void MigrationManager::InstallIncoming(uint64_t epoch) {
  const auto it = incoming_.find(epoch);
  if (it == incoming_.end() || it->second.staged == nullptr) {
    return;
  }
  Incoming in = std::move(it->second);
  incoming_.erase(it);
  done_.insert(epoch);
  if (in.timer != kInvalidEventId) {
    server_->simulator()->Cancel(in.timer);
  }
  ServerSession& session = server_->InstallSession(in.card_id, std::move(in.staged));
  pool_->SetOwner(in.card_id, server_);
  ++stats_.installs;
  const auto waiting = pending_attach_.find(in.card_id);
  if (waiting != pending_attach_.end()) {
    const NodeId console = waiting->second;
    pending_attach_.erase(waiting);
    server_->AttachSessionToConsole(session, console);
  }
}

void MigrationManager::DropIncoming(uint64_t epoch, bool tombstone) {
  const auto it = incoming_.find(epoch);
  if (it == incoming_.end()) {
    return;
  }
  if (it->second.timer != kInvalidEventId) {
    server_->simulator()->Cancel(it->second.timer);
  }
  pending_attach_.erase(it->second.card_id);
  if (tombstone) {
    done_.insert(epoch);
  }
  incoming_.erase(it);
}

// --- Commit / abort dispatch ---

void MigrationManager::OnMigrateCommit(const MigrateCommitMsg& msg, NodeId from) {
  if (msg.phase == 2) {
    // Destination: the source released its copy — go live.
    InstallIncoming(msg.epoch);
    return;
  }
  // Source: destination staged round `msg.round`.
  if (committed_.contains(msg.epoch)) {
    // Our phase-2 was lost; the tombstone re-acks forever.
    server_->Transmit(from, 0, MigrateCommitMsg{msg.epoch, msg.round, /*phase=*/2}, 0);
    ++stats_.phase2_sent;
    return;
  }
  const auto it = outgoing_.find(msg.epoch);
  if (it == outgoing_.end() || msg.round != it->second.round) {
    return;  // unknown epoch or an earlier round's ack: the current round is still in flight
  }
  Outgoing& out = it->second;
  out.retries = 0;
  if (!out.frozen) {
    ServerSession* session = server_->FindSession(out.origin_session);
    if (session == nullptr) {
      // Evicted from under the migration: nothing left to move.
      AbortOutgoing(msg.epoch, MigrateAbortReason::kShutdown, /*notify_peer=*/true);
      return;
    }
    // Pre-copy loop: while the session keeps changing and the round budget lasts, send
    // another delta-as-full-copy round with the source still serving.
    std::vector<uint8_t> blob = EncodeCheckpoint(Capture(out.card_id, *session));
    checkpoint_stats_.capture_bytes += static_cast<int64_t>(blob.size());
    if (blob != out.blob && out.round + 1 < MigrationOptions::kMaxPrecopyRounds) {
      out.blob = std::move(blob);
      ++out.round;
      ++stats_.rounds_sent;
      SendRound(out, MigratePurpose::kHandoff);
      ArmSourceTimer(msg.epoch);
      return;
    }
    // Freeze: stop serving (the old console gets its blank notice through the ordinary
    // release path) and ship the final state. The blackout clock starts here.
    if (session->attached()) {
      pool_->NoteBlackoutStart(out.card_id, server_->simulator()->now());
    }
    server_->DetachSession(*session, ReleaseReason::kMigrated);
    std::vector<uint8_t> final_blob = EncodeCheckpoint(Capture(out.card_id, *session));
    checkpoint_stats_.capture_bytes += static_cast<int64_t>(final_blob.size());
    out.frozen = true;
    if (final_blob != out.blob) {
      out.blob = std::move(final_blob);
      ++out.round;
      ++stats_.rounds_sent;
      SendRound(out, MigratePurpose::kHandoff);
      ArmSourceTimer(msg.epoch);
      return;
    }
    // The staged round already IS the final state (the session was idle and detached
    // cleanly): commit against it.
  }
  CommitOutgoing(msg.epoch);
}

void MigrationManager::OnMigrateAbort(const MigrateAbortMsg& msg, NodeId /*from*/) {
  if (committed_.contains(msg.epoch)) {
    return;  // too late to abort: ownership moved, the tombstone answers phase-1 retries
  }
  if (outgoing_.contains(msg.epoch)) {
    AbortOutgoing(msg.epoch, msg.reason, /*notify_peer=*/false);
    return;
  }
  if (incoming_.contains(msg.epoch)) {
    DropIncoming(msg.epoch);
    ++stats_.aborted;
  }
}

// --- Attach-path hooks ---

MigrationManager::AdoptResult MigrationManager::AdoptCard(uint64_t card_id,
                                                          NodeId console) {
  AdoptResult result;
  // A dead server's half-finished transfers (standby rounds the crash cut off mid-flight)
  // can never complete: drop them so they neither read as in-flight forever nor leak.
  // Staged handoffs are kept — the adoption timeout is their resolution.
  for (auto it = incoming_.begin(); it != incoming_.end();) {
    const uint64_t epoch = it->first;
    const Incoming& in = it->second;
    ++it;
    SlimServer* src = pool_->ServerForNode(in.from);
    if (in.staged == nullptr && src != nullptr && !pool_->alive(src)) {
      DropIncoming(epoch);
    }
  }
  SlimServer* card_owner = pool_->owner(card_id);
  const auto waiting = pending_attach_.find(card_id);
  if (waiting != pending_attach_.end()) {
    bool staged_here = false;
    for (const auto& [epoch, in] : incoming_) {
      staged_here = staged_here || (in.card_id == card_id && in.staged != nullptr);
    }
    if (staged_here ||
        (card_owner != nullptr && card_owner != server_ && pool_->alive(card_owner))) {
      // A pull for this card is already in flight (or staged, pending the source's
      // phase-2 / the adoption timeout): re-inserting the card must not supersede the
      // transfer, just retarget which console gets the session when it installs.
      waiting->second = console;
      result.pending = true;
      return result;
    }
    // The pull's source died (or ownership collapsed onto us) before the install: the
    // transfer can never finish. Drop its remains and fall through to failover/fresh.
    pending_attach_.erase(waiting);
    for (auto it = incoming_.begin(); it != incoming_.end();) {
      const uint64_t epoch = it->first;
      ++it;
      if (incoming_.at(epoch).card_id == card_id) {
        DropIncoming(epoch);
      }
    }
  }
  if (card_owner == server_) {
    // We are listed as owner but hold no session (it was evicted): stale entry.
    pool_->ClearOwnerIf(card_id, server_);
    card_owner = nullptr;
  }
  if (card_owner != nullptr && pool_->alive(card_owner)) {
    if (pool_->RequestMigration(card_id, server_)) {
      pending_attach_[card_id] = console;
      ++stats_.pulls_requested;
      result.pending = true;
      return result;
    }
    // RequestMigration cleared the stale entry; fall through to a fresh session.
    card_owner = pool_->owner(card_id);
  }
  const bool owner_dead = card_owner != nullptr && !pool_->alive(card_owner);
  const auto warm = warm_.find(card_id);
  if (warm != warm_.end()) {
    std::optional<SessionCheckpoint> ckpt = DecodeCheckpoint(warm->second);
    if (ckpt.has_value()) {
      // Crash failover: restore the warm copy and take ownership. The forced full
      // repaint on attach repairs whatever the standby lag cost the console.
      if (card_owner != nullptr) {
        pool_->ClearOwnerIf(card_id, card_owner);
      }
      result.session = &server_->InstallSession(card_id, server_->BuildStagedSession(*ckpt));
      pool_->SetOwner(card_id, server_);
      ++checkpoint_stats_.restores;
      ++stats_.failover_restores;
      return result;
    }
    ++checkpoint_stats_.decode_failures;
    warm_.erase(warm);
  }
  if (owner_dead) {
    // The owner died and no warm copy exists: the session is lost. Reclaim the card for a
    // fresh session rather than leaving the user locked out.
    pool_->ClearOwnerIf(card_id, card_owner);
    ++stats_.cold_starts;
  }
  return result;  // caller creates a fresh session
}

void MigrationManager::NoteLocalSession(uint64_t card_id) {
  pool_->SetOwner(card_id, server_);
}

void MigrationManager::OnSessionAttached(uint64_t card_id, uint32_t session_id) {
  const SimTime start = pool_->TakeBlackoutStart(card_id);
  if (start >= 0) {
    const SimDuration blackout = server_->simulator()->now() - start;
    stats_.blackout_last_ns = blackout;
    stats_.blackout_total_ns += blackout;
    if (LatencyAudit* audit = LatencyAudit::Global()) {
      audit->NoteMigrationBlackout(session_id, blackout, server_->simulator()->now());
    }
  }
}

bool MigrationManager::MigrationInFlight() const {
  return !outgoing_.empty() || !incoming_.empty() || !pending_attach_.empty();
}

// --- Standby replication ---

void MigrationManager::EnableStandby(SlimServer* standby, SimDuration interval) {
  SLIM_CHECK(standby != nullptr && standby != server_ && interval > 0);
  standby_ = standby;
  standby_interval_ = interval;
  standby_flow_ = kMigrationFlowBit | 1;
  server_->tx_->SetFlowRate(standby_flow_, MigrationOptions::kRateBps,
                            MigrationOptions::kBurstWindow);
  server_->simulator()->ScheduleDaemon(standby_interval_, [this] { StandbyTick(); });
}

void MigrationManager::StandbyTick() {
  if (!pool_->alive(server_)) {
    return;  // killed servers stop replicating (and stop re-arming the tick)
  }
  for (const auto& [card_id, session_id] : server_->card_to_session_) {
    if (ServerSession* session = server_->FindSession(session_id)) {
      SendStandbyCheckpoint(card_id, *session);
    }
  }
  server_->simulator()->ScheduleDaemon(standby_interval_, [this] { StandbyTick(); });
}

void MigrationManager::SendStandbyCheckpoint(uint64_t card_id, ServerSession& session) {
  // Reuses the Outgoing chunking machinery for the send, but keeps no state: standby
  // replication is fire-and-forget, refreshed wholesale on the next tick.
  Outgoing out;
  out.epoch = NewEpoch();
  out.card_id = card_id;
  out.origin_session = session.id();
  out.peer = standby_->node();
  out.round = 0;
  out.blob = EncodeCheckpoint(Capture(card_id, session));
  checkpoint_stats_.capture_bytes += static_cast<int64_t>(out.blob.size());
  out.flow = standby_flow_;
  SendRound(out, MigratePurpose::kStandby);
  ++stats_.standby_sent;
}

bool MigrationManager::RegisterMetrics(MetricRegistry* registry,
                                       const std::string& prefix) {
  SLIM_CHECK(registry != nullptr);
  const std::string mp = prefix + ".migration";
  bool ok = registry->BindCounter(mp + ".started", &stats_.started);
  ok = registry->BindCounter(mp + ".committed", &stats_.committed) && ok;
  ok = registry->BindCounter(mp + ".aborted", &stats_.aborted) && ok;
  ok = registry->BindCounter(mp + ".superseded", &stats_.superseded) && ok;
  ok = registry->BindCounter(mp + ".rounds_sent", &stats_.rounds_sent) && ok;
  ok = registry->BindCounter(mp + ".begins_sent", &stats_.begins_sent) && ok;
  ok = registry->BindCounter(mp + ".chunks_sent", &stats_.chunks_sent) && ok;
  ok = registry->BindCounter(mp + ".chunk_bytes_sent", &stats_.chunk_bytes_sent) && ok;
  ok = registry->BindCounter(mp + ".phase2_sent", &stats_.phase2_sent) && ok;
  ok = registry->BindCounter(mp + ".retries", &stats_.retries) && ok;
  ok = registry->BindCounter(mp + ".chunks_received", &stats_.chunks_received) && ok;
  ok = registry->BindCounter(mp + ".staged", &stats_.staged) && ok;
  ok = registry->BindCounter(mp + ".phase1_sent", &stats_.phase1_sent) && ok;
  ok = registry->BindCounter(mp + ".installs", &stats_.installs) && ok;
  ok = registry->BindCounter(mp + ".pulls_requested", &stats_.pulls_requested) && ok;
  ok = registry->BindCounter(mp + ".adoptions", &stats_.adoptions) && ok;
  ok = registry->BindCounter(mp + ".standby_sent", &stats_.standby_sent) && ok;
  ok = registry->BindCounter(mp + ".standby_stored", &stats_.standby_stored) && ok;
  ok = registry->BindCounter(mp + ".failover_restores", &stats_.failover_restores) && ok;
  ok = registry->BindCounter(mp + ".cold_starts", &stats_.cold_starts) && ok;
  ok = registry->BindCounter(mp + ".blackout_last_ns", &stats_.blackout_last_ns) && ok;
  ok = registry->BindCounter(mp + ".blackout_total_ns", &stats_.blackout_total_ns) && ok;
  const std::string cp = prefix + ".checkpoint";
  ok = registry->BindCounter(cp + ".captures", &checkpoint_stats_.captures) && ok;
  ok = registry->BindCounter(cp + ".capture_bytes", &checkpoint_stats_.capture_bytes) && ok;
  ok = registry->BindCounter(cp + ".restores", &checkpoint_stats_.restores) && ok;
  ok = registry->BindCounter(cp + ".decode_failures", &checkpoint_stats_.decode_failures) &&
       ok;
  return ok;
}

}  // namespace slim
