// Cross-server session migration and crash failover (DESIGN.md §9).
//
// The paper's hotdesking story (Section 5.4) holds within one server because a session is
// pure server state. This layer makes it hold across a *pool* of servers: a ServerPool is
// the control-plane directory (who owns which card, who is alive), and each server's
// MigrationManager moves serialized session checkpoints (src/server/checkpoint.h) between
// servers over the ordinary SLIM transport.
//
// Handoff protocol (two-phase commit with pre-copy, all messages idempotent):
//
//   source                                destination
//     StartMigration: capture blob
//     MigrateBegin + CheckpointChunk* ──▶  reassemble, decode, stage session (unregistered)
//                                   ◀──  MigrateCommit(phase=1)   "restored, ready to own"
//     blob changed? another pre-copy round (source still serving); else FREEZE:
//     detach console (SessionRelease kMigrated) and capture again; only if the frozen
//     blob differs from the staged one, send it as a final round and wait for its
//     phase-1. Then COMMIT: transfer ownership in the pool, discard the local session,
//     tombstone the epoch
//     MigrateCommit(phase=2) ──────────▶  install staged session, attach the waiting
//                                         console (forced full repaint)
//
// A checkpoint holds only pixels and counters (src/server/checkpoint.h), so detaching
// an idle session changes nothing in it: the staged round already is the final state,
// and an idle hotdesk ships exactly one blob.
//
// Single-owner invariant: ownership changes hands exactly once, at the source's commit
// point — before it the source serves and the destination's copy is an unregistered
// staging object; after it the source has discarded its copy and only re-acks phase-2
// from the tombstone. Lost messages are healed by bounded re-sends (each with a fresh
// transport seq, so the receiver's NACK machinery repairs chunk gaps) and by the
// destination re-sending phase-1 until phase-2 or an abort arrives. Abort is only legal
// before the source commits, which is exactly when the source still owns the session —
// so no abort can strand a session nowhere, and no commit can leave it in two places.
//
// The same checkpoint path powers crash failover: EnableStandby replicates periodic
// checkpoints (purpose kStandby, fire-and-forget) to a warm standby; when a card shows up
// at the standby and the pool says the owner is dead, the warm blob is restored locally
// and the forced full repaint on attach repairs the console.

#ifndef SRC_SERVER_MIGRATION_H_
#define SRC_SERVER_MIGRATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/net/fabric.h"
#include "src/protocol/messages.h"
#include "src/server/checkpoint.h"
#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace slim {

class MetricRegistry;
class MigrationManager;
class ServerSession;
class SlimServer;

struct MigrationOptions {
  // Checkpoint blobs travel in slices of at most this many bytes per CheckpointChunkMsg
  // (the transport further fragments to the MTU underneath).
  size_t chunk_bytes = 16 * 1024;
  // Token-bucket rate for the bulk transfer so a multi-megabyte checkpoint cannot starve
  // interactive traffic sharing the transmit queue; <= 0 sends unpaced.
  int64_t rate_bps = 20'000'000;
  SimDuration burst_window = 50 * kMillisecond;
  // Source: re-send the current round (Begin + chunks) when no phase-1 ack arrives within
  // this; give up and abort after max_retries re-sends. Destination: re-send phase-1 on
  // the same cadence (it never gives up while the source is alive — the source's abort is
  // the only thing that can kill a staged handoff, see the header comment).
  SimDuration ack_timeout = 100 * kMillisecond;
  int max_retries = 10;
  // Pre-copy rounds before the source freezes regardless of dirtiness. Round 0 is the
  // initial full copy; at most this many total rounds precede the freeze.
  uint32_t max_precopy_rounds = 4;
};

// Counters for the migration protocol, readable directly and through the registry
// (`server.migration.*`).
struct MigrationStats {
  // Source side.
  int64_t started = 0;           // StartMigration accepted
  int64_t committed = 0;         // ownership transferred (phase-2 sent)
  int64_t aborted = 0;           // epochs that died (either side)
  int64_t superseded = 0;        // outgoing attempts replaced by a newer one
  int64_t rounds_sent = 0;       // pre-copy/final rounds beyond round 0
  int64_t begins_sent = 0;       // MigrateBegin copies (retries included)
  int64_t chunks_sent = 0;
  int64_t chunk_bytes_sent = 0;
  int64_t phase2_sent = 0;       // commit acks (tombstone re-acks included)
  int64_t retries = 0;           // timer-driven re-sends (both sides)
  // Destination side.
  int64_t chunks_received = 0;   // chunks accepted into a reassembly buffer
  int64_t staged = 0;            // blobs decoded into a staged session
  int64_t phase1_sent = 0;       // restored-acks (re-sends included)
  int64_t installs = 0;          // staged sessions that went live (phase-2)
  int64_t pulls_requested = 0;   // cross-server attaches that asked the owner to migrate
  int64_t adoptions = 0;         // staged sessions adopted after the source died mid-commit
  // Standby / failover.
  int64_t standby_sent = 0;      // checkpoints replicated to the standby
  int64_t standby_stored = 0;    // complete blobs stored in the warm map
  int64_t failover_restores = 0; // warm blobs restored on attach after owner death
  int64_t cold_starts = 0;       // owner dead and no warm blob: session lost, fresh start
  // Blackout (freeze -> destination re-attach), mirrored into the latency audit.
  int64_t blackout_last_ns = 0;
  int64_t blackout_total_ns = 0;
};

// Counters for checkpoint capture/restore (`server.checkpoint.*`).
struct CheckpointStats {
  int64_t captures = 0;
  int64_t capture_bytes = 0;   // serialized blob bytes across all captures
  int64_t restores = 0;        // blobs decoded and restored into a session
  int64_t decode_failures = 0; // blobs rejected by DecodeCheckpoint
};

// The server-pool directory: which servers exist, which are alive, and which server owns
// each card's session. This is control-plane state (the product would keep it in the
// authentication/session-manager service); in the sim it is a plain shared object that
// every SlimServer in the pool points at. It is also where KillServer-style fault
// injection lives, and where the migration blackout clock is parked between the source's
// freeze and the destination's re-attach.
class ServerPool {
 public:
  // Called by SlimServer::EnableMigration. A server registers exactly once.
  void Register(SlimServer* server, MigrationManager* manager);

  SlimServer* owner(uint64_t card_id) const;
  void SetOwner(uint64_t card_id, SlimServer* server);
  // Clears the mapping only if it still points at `server` (a newer owner wins).
  void ClearOwnerIf(uint64_t card_id, SlimServer* server);

  bool alive(const SlimServer* server) const;
  // Crash fault injection: the server's endpoint goes deaf and mute (it neither sends nor
  // receives), its pool entry is marked dead, and it stops standby replication. Nothing
  // reboots it.
  void KillServer(SlimServer* server);

  // Issues `user_number`'s card on every registered server's authentication manager, so
  // the card verifies wherever it is inserted. All servers share a site key, so every
  // server derives the same card id.
  uint64_t IssueCard(uint32_t user_number);

  // Asks `card_id`'s current owner to migrate the session to `dest`. False when there is
  // no live owner, the owner is `dest` itself, or the owner has no session for the card
  // (a stale directory entry, which is cleared).
  bool RequestMigration(uint64_t card_id, SlimServer* dest);

  SlimServer* ServerForNode(NodeId node) const;
  MigrationManager* ManagerFor(const SlimServer* server) const;

  // --- Blackout clock (set at the source's freeze, consumed at the destination's
  // re-attach; -1 when no blackout is in progress for the card) ---
  void NoteBlackoutStart(uint64_t card_id, SimTime t) { blackout_start_[card_id] = t; }
  SimTime TakeBlackoutStart(uint64_t card_id);

  size_t server_count() const { return entries_.size(); }
  const std::vector<SlimServer*>& servers() const { return servers_; }
  size_t owned_cards() const { return owner_.size(); }

 private:
  struct Entry {
    SlimServer* server = nullptr;
    MigrationManager* manager = nullptr;
    bool alive = true;
  };

  std::vector<Entry> entries_;
  std::vector<SlimServer*> servers_;  // same order as entries_, for iteration
  std::map<uint64_t, SlimServer*> owner_;
  std::map<uint64_t, SimTime> blackout_start_;
};

// One server's half of the migration protocol. Owned by its SlimServer (EnableMigration);
// receives the four migration message types from SlimServer::OnMessage and hooks the
// attach path for cross-server pulls and failover restores.
class MigrationManager {
 public:
  MigrationManager(SlimServer* server, ServerPool* pool, MigrationOptions options);

  const MigrationOptions& options() const { return options_; }
  const MigrationStats& stats() const { return stats_; }
  const CheckpointStats& checkpoint_stats() const { return checkpoint_stats_; }

  // Source side: begin migrating `card_id`'s session to `dest`. False when the card has
  // no local session. An in-flight attempt for the same card is superseded (aborted).
  bool StartMigration(uint64_t card_id, SlimServer* dest);

  // Periodically checkpoint every local session to `standby` (purpose kStandby,
  // fire-and-forget). The tick is a daemon event, so it never keeps Run() alive.
  void EnableStandby(SlimServer* standby, SimDuration interval);

  // --- Message entry points (dispatched by SlimServer::OnMessage) ---
  void OnMigrateBegin(const MigrateBeginMsg& msg, NodeId from);
  void OnCheckpointChunk(const CheckpointChunkMsg& msg, NodeId from);
  void OnMigrateCommit(const MigrateCommitMsg& msg, NodeId from);
  void OnMigrateAbort(const MigrateAbortMsg& msg, NodeId from);

  // --- Attach-path hooks (called by SlimServer) ---
  // An authenticated card with no local session arrived at `console`. Outcomes: `pending`
  // (a pull from the live owner started; the attach completes when the session installs),
  // a restored session (failover from the warm map), or neither — the caller creates a
  // fresh session.
  struct AdoptResult {
    ServerSession* session = nullptr;
    bool pending = false;
  };
  AdoptResult AdoptCard(uint64_t card_id, NodeId console);
  // A fresh session was created locally for the card: record ownership in the pool.
  void NoteLocalSession(uint64_t card_id);
  // A session is about to (re-)attach: close the blackout clock if one is running for
  // the card.
  void OnSessionAttached(uint64_t card_id, uint32_t session_id);

  // True while any migration state is unresolved on this server (outgoing attempt,
  // incomplete or staged incoming transfer, or a console waiting on a pull). Tests use
  // this to check convergence.
  bool MigrationInFlight() const;

  bool HasWarmCheckpoint(uint64_t card_id) const { return warm_.contains(card_id); }

  // Registers `<prefix>.migration.*` and `<prefix>.checkpoint.*`.
  bool RegisterMetrics(MetricRegistry* registry, const std::string& prefix = "server");

 private:
  struct Outgoing {
    uint64_t epoch = 0;
    uint64_t card_id = 0;
    uint32_t origin_session = 0;
    SlimServer* dest = nullptr;
    NodeId peer = kInvalidNode;
    uint32_t round = 0;
    bool frozen = false;  // console released, final round in flight (or committed next)
    std::vector<uint8_t> blob;
    uint64_t flow = 0;
    int retries = 0;
    EventId timer = kInvalidEventId;
  };

  struct Incoming {
    NodeId from = kInvalidNode;
    uint64_t card_id = 0;
    uint32_t origin_session = 0;
    MigratePurpose purpose = MigratePurpose::kHandoff;
    uint32_t round = 0;
    bool begin_seen = false;
    uint32_t chunk_count = 0;
    uint64_t total_bytes = 0;
    std::vector<uint8_t> blob;
    std::vector<bool> got;
    uint32_t received = 0;
    // Chunks that arrived before their round's Begin (the transport can deliver out of
    // order around a replayed gap); applied once the Begin lands.
    std::map<uint32_t, CheckpointChunkMsg> early_chunks;
    std::unique_ptr<ServerSession> staged;  // handoff only, after a successful decode
    int retries = 0;
    EventId timer = kInvalidEventId;
  };

  uint64_t NewEpoch();
  // Fills a checkpoint from the session plus its card id.
  SessionCheckpoint Capture(uint64_t card_id, ServerSession& session);
  // Sends the current round: one MigrateBegin plus every chunk of out.blob.
  void SendRound(Outgoing& out, MigratePurpose purpose);
  void ArmSourceTimer(uint64_t epoch);
  void OnSourceTimeout(uint64_t epoch);
  void AbortOutgoing(uint64_t epoch, MigrateAbortReason reason, bool notify_peer);
  void CommitOutgoing(uint64_t epoch);

  void ResetIncomingRound(Incoming& in, const MigrateBeginMsg& msg, NodeId from);
  void ApplyChunk(Incoming& in, const CheckpointChunkMsg& msg);
  // All chunks present: decode, then store (standby) or stage + phase-1 (handoff).
  void CompleteIncoming(uint64_t epoch);
  void SendPhase1(uint64_t epoch);
  void ArmDestTimer(uint64_t epoch);
  void OnDestTimeout(uint64_t epoch);
  // Phase-2 (or adoption after source death): register the staged session and attach any
  // waiting console.
  void InstallIncoming(uint64_t epoch);
  // Discards an incoming transfer. `tombstone` additionally marks the epoch done so
  // stragglers (late chunks, a replayed Begin) are ignored — correct for aborted or
  // superseded epochs, but NOT for a chunk-only orphan whose Begin was lost in flight:
  // the source is still retrying that Begin, and a tombstone would make every retry a
  // no-op, wedging the handoff until the source gives up and aborts.
  void DropIncoming(uint64_t epoch, bool tombstone = true);

  void StandbyTick();
  void SendStandbyCheckpoint(uint64_t card_id, ServerSession& session);

  SlimServer* server_;
  ServerPool* pool_;
  MigrationOptions options_;
  MigrationStats stats_;
  CheckpointStats checkpoint_stats_;

  uint64_t epoch_counter_ = 0;
  std::map<uint64_t, Outgoing> outgoing_;
  std::map<uint64_t, Incoming> incoming_;
  // Source-side commit tombstones: epochs whose ownership already transferred. A re-sent
  // phase-1 for one of these is answered with a fresh phase-2 and nothing else.
  std::set<uint64_t> committed_;
  // Destination-side terminal epochs (installed or aborted): late/duplicate traffic for
  // them is ignored.
  std::set<uint64_t> done_;
  // Consoles waiting for a pulled session to install, by card.
  std::map<uint64_t, NodeId> pending_attach_;
  // Warm standby store: the latest complete checkpoint blob per card.
  std::map<uint64_t, std::vector<uint8_t>> warm_;

  SlimServer* standby_ = nullptr;
  SimDuration standby_interval_ = 0;
  uint64_t standby_flow_ = 0;
};

}  // namespace slim

#endif  // SRC_SERVER_MIGRATION_H_
