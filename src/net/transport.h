// SLIM message transport over the unreliable datagram fabric.
//
// Mirrors the Sun Ray 1's UDP/IP transport (Section 2.2): no reliable stream, no
// stop-and-wait. Messages are fragmented to the MTU, reassembled by (source, sequence), and
// sequence gaps trigger a NACK asking the sender to replay from its bounded history —
// application-specific recovery that works because every SLIM message is idempotent.
//
// Every datagram carries a framing checksum (FrameChecksum32, src/protocol/wire.h) over its
// magic byte and everything after the checksum field, so a fabric that corrupts or
// truncates bytes (see FaultProfile) produces counted drops — which the NACK path then
// repairs — rather than garbage pixels. A single-byte error anywhere in a datagram, the
// magic included, is caught with certainty; wider errors and truncations slip through
// with probability about 2^-32. Partial reassembly contexts expire on a timeout, duplicate
// suppression extends below its window via an eviction floor, and NACKs for a range that
// keeps failing back off exponentially.

#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/net/fabric.h"
#include "src/protocol/messages.h"

namespace slim {

class MetricRegistry;

struct TransportStats {
  int64_t messages_sent = 0;
  int64_t messages_batched = 0;
  int64_t batches_sent = 0;
  int64_t messages_received = 0;
  int64_t duplicate_messages = 0;
  int64_t bytes_sent = 0;  // serialized message bytes, before datagram framing
  int64_t fragments_sent = 0;
  int64_t fragments_received = 0;
  int64_t reassembly_failures = 0;
  int64_t nacks_sent = 0;
  int64_t replays_sent = 0;
  // Inbound datagrams rejected by the framing checksum (or carrying an unknown magic):
  // corruption and truncation, including a flip that turns one known magic into the
  // other, land here instead of being parsed as protocol bytes.
  int64_t datagrams_corrupted = 0;
  // Partial reassembly contexts abandoned because no fragment arrived within
  // reassembly_timeout (the rest of the message was lost; NACK replay re-sends it whole).
  int64_t reassembly_timeouts = 0;
  // Times the NACK gate widened because a re-NACK for the same missing range was needed
  // (the previous NACK or its replay was itself lost).
  int64_t nack_backoffs = 0;
};

// The stats one SlimEndpoint exposes; alias kept distinct from the struct name so call
// sites read as what they are (per-endpoint counters, not global transport totals).
using EndpointStats = TransportStats;

struct EndpointOptions {
  // Reassembly contexts kept live before the oldest (by last fragment arrival) is evicted.
  // Sized so a full-screen repaint burst over a lossy fabric (hundreds of messages, a third
  // of them waiting on one replayed fragment) does not thrash the table.
  size_t max_reassembly = 256;
  // A partial reassembly context that has not seen a fragment for this long is abandoned
  // and counted in reassembly_timeouts; without it, a single lost fragment would pin its
  // context (and its memory) forever.
  SimDuration reassembly_timeout = Milliseconds(250);
  // Sequence tracking / NACK generation on gaps (can be disabled for ablation).
  bool enable_nack = true;

  // Section 5.4's proposed low-bandwidth optimizations, off by default (the Sun Ray 1 did
  // not ship them): small messages bound for the same peer are held for up to batch_delay
  // and coalesced into one datagram with compressed 11-byte per-message headers, instead of
  // one 20-byte header plus ~59 bytes of datagram/fragment framing each.
  bool enable_batching = false;
  SimDuration batch_delay = Milliseconds(5);
};

class SlimEndpoint {
 public:
  // The handler receives fully reassembled, parsed messages, and owns each one: a handler
  // may move a command's payload out instead of copying it. `from` is the fabric node that
  // sent them.
  using MessageHandler = std::function<void(Message&&, NodeId from)>;

  SlimEndpoint(Fabric* fabric, NodeId self, EndpointOptions options = {});

  NodeId node() const { return self_; }
  void set_handler(MessageHandler handler) { handler_ = std::move(handler); }

  // Serializes, fragments and sends. Assigns the next sequence number for (peer) unless the
  // body is itself a NACK (control traffic is unsequenced: seq 0). Returns the seq used.
  uint64_t Send(NodeId peer, uint32_t session_id, MessageBody body);

  const TransportStats& stats() const { return stats_; }

  // Crash-failover fault injection: a dead endpoint drops every outbound send and ignores
  // every inbound datagram, exactly as a powered-off server would. ServerPool::KillServer
  // sets this; nothing un-sets it (a SLIM server does not reboot mid-run).
  void set_dead(bool dead) { dead_ = dead; }
  bool dead() const { return dead_; }

  // Registers every TransportStats counter with `registry` as `<prefix>.<field>` (e.g.
  // "transport.nacks_sent"). The registry reads the same cells stats() exposes, so the two
  // views can never disagree. Returns false if any name was rejected (duplicate prefix).
  bool RegisterMetrics(MetricRegistry* registry, const std::string& prefix = "transport");

 private:
  struct Reassembly {
    uint16_t frag_count = 0;
    std::vector<std::optional<std::vector<uint8_t>>> fragments;
    size_t received = 0;
    SimTime last_update = 0;  // last fragment arrival; drives timeout + eviction order
  };

  void OnDatagram(Datagram dgram);
  void OnFragmentDatagram(const Datagram& dgram, std::span<const uint8_t> body);
  void DeliverMessage(std::vector<uint8_t> bytes, NodeId from);
  void SendSerialized(NodeId peer, uint64_t msg_seq, const std::vector<uint8_t>& bytes);
  void HandleNack(const NackMsg& nack, NodeId from);

  // --- Reassembly-context hygiene ---
  // Evicts the context with the oldest last_update when reasm_ exceeds max_reassembly.
  void EvictOldestReassembly();
  // Drops every context idle for reassembly_timeout or longer, then re-arms the sweep
  // timer for the oldest survivor (partial contexts expire even if traffic goes quiet).
  void SweepReassembly();
  void ArmReassemblySweep();
  // Marks an abandoned (timed-out or evicted) partial message as missing and NACKs it, so
  // recovery restarts even when no further deliveries would expose the gap.
  void NackAbandonedMessage(NodeId src, uint64_t msg_seq);

  // --- Batching (Section 5.4 optimizations) ---
  struct BatchItem {
    MessageType type = MessageType::kPing;
    uint64_t seq = 0;
    std::vector<uint8_t> payload;
  };
  struct Batch {
    uint32_t session_id = 0;
    std::vector<BatchItem> items;
    size_t bytes = 0;
    EventId flush_event = kInvalidEventId;
  };
  void AppendToBatch(NodeId peer, uint32_t session_id, uint64_t seq, const MessageBody& body);
  void FlushBatch(NodeId peer);
  void OnBatchDatagram(const Datagram& dgram, std::span<const uint8_t> body);

  Fabric* fabric_;
  NodeId self_;
  EndpointOptions options_;
  MessageHandler handler_;
  TransportStats stats_;
  bool dead_ = false;

  // Per-peer receive-side gap tracking: highest seq seen plus the set of missing seqs below
  // it. Missing ranges are re-NACKed (back-off-gated) on later deliveries, so a lost NACK or
  // a lost replay gets another chance — the paper's "application-specific error recovery".
  struct PeerRecvState {
    uint64_t max_seq = 0;
    std::set<uint64_t> missing;
    SimTime last_nack_at = -kSecond;
    SimDuration nack_gate = 0;        // current back-off gate; 0 = not yet initialized
    uint64_t last_nack_first = 0;     // start of the last range NACKed (0 = none yet)
    int nack_strikes = 0;             // consecutive NACKs of the same range without progress
    EventId nack_retry_event = kInvalidEventId;  // pending gate-expiry retry, if any
    // When the sim-time tracer is active: when each missing seq was first noticed, so its
    // resolution (replay arrival or give-up) can be emitted as a replay-stall span. Empty
    // whenever tracing is off.
    std::map<uint64_t, SimTime> missing_since;
  };

  // Per-peer duplicate suppression: the window of recently delivered seqs plus the floor —
  // the highest seq ever evicted from the window. A replay at or below the floor was
  // necessarily delivered once already (it entered and aged out of the window), so it is a
  // duplicate even though the window itself no longer remembers it.
  struct DedupWindow {
    std::set<uint64_t> seen;
    uint64_t floor = 0;
  };

  // --- Sim-time tracing of the replay path (no-ops when Tracer::Global() is null) ---
  // Records when `seq` entered the missing set, so ResolveMissing can emit a span.
  void NoteMissing(PeerRecvState& state, uint64_t seq);
  // Emits a "transport.replay_stall" span covering first-noticed -> now. `reason` is
  // "replayed" (the gap was filled) or a give-up cause.
  void ResolveMissing(PeerRecvState& state, uint64_t seq, const char* reason);

  void MaybeSendNack(NodeId peer, uint32_t session_id, PeerRecvState& state);
  // Schedules a MaybeSendNack retry for when the back-off gate reopens (single pending
  // event per peer), so a lost NACK/replay is retried even with no further inbound traffic.
  void ArmNackRetry(NodeId peer, PeerRecvState& state);

  std::map<NodeId, uint64_t> next_seq_;  // per-peer send sequence
  std::map<NodeId, PeerRecvState> recv_state_;
  std::map<std::pair<NodeId, uint64_t>, Reassembly> reasm_;
  EventId reasm_sweep_event_ = kInvalidEventId;
  // Replay history is PER PEER: seqs are only unique per (peer, direction), so a shared
  // pool would let one peer's NACK range replay another peer's bytes — and the bogus
  // replay's seq would poison the requester's dedup window, permanently masking the real
  // message. Each peer gets its own window of the last kReplayHistory messages.
  std::map<NodeId, std::deque<std::pair<uint64_t, std::vector<uint8_t>>>> history_;
  std::map<NodeId, DedupWindow> recent_delivered_;
  std::map<NodeId, Batch> batches_;  // pending per-peer batches when batching is enabled
};

}  // namespace slim

#endif  // SRC_NET_TRANSPORT_H_
