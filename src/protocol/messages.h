// Complete SLIM protocol message set.
//
// Besides the five display commands, the protocol carries keyboard/mouse state, audio,
// console status, bandwidth allocation requests (Section 7), session control for the
// smart-card hotdesking model, and NACK-based replay requests for the unreliable transport
// (Section 2.2: all messages carry unique identifiers and can be replayed with no ill
// effects).

#ifndef SRC_PROTOCOL_MESSAGES_H_
#define SRC_PROTOCOL_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "src/protocol/commands.h"

namespace slim {

enum class MessageType : uint8_t {
  // Display commands reuse the CommandType values 1..5.
  kSet = 1,
  kBitmap = 2,
  kFill = 3,
  kCopy = 4,
  kCscs = 5,
  // Console -> server.
  kKeyEvent = 16,
  kMouseEvent = 17,
  kStatus = 18,
  kNack = 19,
  kSessionAttach = 20,   // smart card inserted
  kSessionDetach = 21,   // smart card removed
  kBandwidthRequest = 22,  // server -> console: ask the console's allocator for a share
  // Server -> console (non-display).
  kAudio = 32,
  kBandwidthGrant = 33,  // console -> server: the allocator's answer (Section 7)
  kPing = 34,
  kPong = 35,
  kSessionRelease = 36,  // session left this console: blank and stop displaying
  // Server <-> server (session checkpointing / migration, DESIGN.md §9).
  kCheckpointChunk = 37,  // one bounded slice of a serialized session checkpoint
  kMigrateBegin = 38,     // source -> destination: a checkpoint transfer is starting
  kMigrateCommit = 39,    // two-phase commit handshake (phase 1 dest->src, phase 2 src->dest)
  kMigrateAbort = 40,     // either side: this migration epoch is dead
};

// Why a session's console binding ended; carried on SessionReleaseMsg so consoles and
// logs can distinguish a hotdesk pull from an operator-visible failure.
enum class ReleaseReason : uint8_t {
  kHotdesk = 1,          // the card appeared at another console
  kCardRemoved = 2,      // the user pulled the card at this console
  kLivenessTimeout = 3,  // the console stopped answering keepalive probes
  kEvicted = 4,          // idle-session eviction reclaimed the session
  kReplaced = 5,         // a different card was inserted at this console
  kMigrated = 6,         // the session moved to another server in the pool
};

struct KeyEventMsg {
  uint32_t keycode = 0;
  bool pressed = true;
  bool operator==(const KeyEventMsg&) const = default;
};

struct MouseEventMsg {
  int32_t x = 0;
  int32_t y = 0;
  uint8_t buttons = 0;  // bitmask of pressed buttons
  bool is_motion = false;
  bool operator==(const MouseEventMsg&) const = default;
};

struct StatusMsg {
  uint32_t code = 0;
  uint64_t last_seq_seen = 0;
  bool operator==(const StatusMsg&) const = default;
};

// Request replay of messages in [first_seq, last_seq]; idempotent application makes replay
// safe even if some of them did arrive.
struct NackMsg {
  uint64_t first_seq = 0;
  uint64_t last_seq = 0;
  bool operator==(const NackMsg&) const = default;
};

struct SessionAttachMsg {
  uint64_t card_id = 0;  // smart card identity presented at the console
  bool operator==(const SessionAttachMsg&) const = default;
};

struct SessionDetachMsg {
  uint64_t card_id = 0;
  bool operator==(const SessionDetachMsg&) const = default;
};

// Server -> console: a flow (our flows are sessions) asking the console's allocator for
// `bits_per_second` of the last-mile link. A non-positive rate withdraws the flow's
// reservation — the console removes it and redistributes to the surviving flows.
struct BandwidthRequestMsg {
  uint64_t flow_id = 0;
  int64_t bits_per_second = 0;
  bool operator==(const BandwidthRequestMsg&) const = default;
};

// Console -> server: the allocator's decision for one flow. Sent to the requester and —
// whenever a recompute changes other flows' shares — to every flow whose grant moved, so
// freed bandwidth is reabsorbed without a stale-grant window. `total_bps` is the console's
// whole allocatable link, letting the server judge headroom, not just its own share.
struct BandwidthGrantMsg {
  uint64_t flow_id = 0;
  int64_t bits_per_second = 0;
  int64_t total_bps = 0;
  bool operator==(const BandwidthGrantMsg&) const = default;
};

struct AudioMsg {
  uint32_t sample_rate = 8000;
  std::vector<uint8_t> samples;
  bool operator==(const AudioMsg&) const = default;
};

struct PingMsg {
  uint64_t payload = 0;
  bool operator==(const PingMsg&) const = default;
};

struct PongMsg {
  uint64_t payload = 0;
  bool operator==(const PongMsg&) const = default;
};

// Server -> console: the hotdesk handoff's "blank notice". The console that receives this
// no longer shows the session — it blanks its soft-state framebuffer and (via the seq
// guards in Console) ignores any stale display traffic for the session still in flight.
// Idempotent: the server re-sends it a bounded number of times so a lossy fabric cannot
// leave a released console displaying a dead session's last frame.
struct SessionReleaseMsg {
  ReleaseReason reason = ReleaseReason::kHotdesk;
  bool operator==(const SessionReleaseMsg&) const = default;
};

// --- Server <-> server migration messages (DESIGN.md §9) ---
// A migration attempt is identified by an epoch (globally unique: the source node id in
// the high bits). The bulk state travels as CheckpointChunk slices; Begin/Commit/Abort
// carry the two-phase-commit control flow. All four are idempotent and safe to replay,
// like every other SLIM message.

// Why a checkpoint transfer is happening; carried on MigrateBeginMsg.
enum class MigratePurpose : uint8_t {
  kHandoff = 1,  // cross-server hotdesk pull: two-phase commit transfers ownership
  kStandby = 2,  // periodic warm-standby replication: stored, never acked or committed
};

// Why a migration epoch died; carried on MigrateAbortMsg.
enum class MigrateAbortReason : uint8_t {
  kTimeout = 1,        // the other side went silent past the retry budget
  kBadCheckpoint = 2,  // the reassembled blob failed to decode
  kSuperseded = 3,     // a newer epoch/round for the same session replaced this one
  kShutdown = 4,       // the sending server is going away
};

// Source -> destination: announces (or, on retry, refreshes) one round of a checkpoint
// transfer. Re-sending it is the source's liveness poke: the fresh transport seq exposes
// any chunk gaps to the receiver's NACK machinery.
struct MigrateBeginMsg {
  uint64_t epoch = 0;
  uint64_t card_id = 0;        // the smart card whose session is moving
  uint32_t origin_session = 0; // the session id on the source server (audit only)
  uint32_t round = 0;          // pre-copy round; a higher round supersedes a lower one
  MigratePurpose purpose = MigratePurpose::kHandoff;
  uint32_t chunk_count = 0;
  uint64_t total_bytes = 0;    // size of the serialized checkpoint blob
  bool operator==(const MigrateBeginMsg&) const = default;
};

// One bounded slice of the checkpoint blob for (epoch, round).
struct CheckpointChunkMsg {
  uint64_t epoch = 0;
  uint32_t round = 0;
  uint32_t index = 0;   // 0-based chunk number
  uint32_t count = 0;   // total chunks in this round
  uint64_t offset = 0;  // byte offset of `data` within the blob
  std::vector<uint8_t> data;
  bool operator==(const CheckpointChunkMsg&) const = default;
};

// The commit handshake. Phase 1 (destination -> source): the blob decoded and the session
// is staged, ready to own. Phase 2 (source -> destination): the source released its copy;
// the destination is now the single owner and may go live.
struct MigrateCommitMsg {
  uint64_t epoch = 0;
  uint32_t round = 0;
  uint8_t phase = 1;  // 1 = restored, 2 = committed
  bool operator==(const MigrateCommitMsg&) const = default;
};

struct MigrateAbortMsg {
  uint64_t epoch = 0;
  MigrateAbortReason reason = MigrateAbortReason::kTimeout;
  bool operator==(const MigrateAbortMsg&) const = default;
};

using MessageBody =
    std::variant<SetCommand, BitmapCommand, FillCommand, CopyCommand, CscsCommand, KeyEventMsg,
                 MouseEventMsg, StatusMsg, NackMsg, SessionAttachMsg, SessionDetachMsg,
                 BandwidthRequestMsg, BandwidthGrantMsg, AudioMsg, PingMsg, PongMsg,
                 SessionReleaseMsg, CheckpointChunkMsg, MigrateBeginMsg, MigrateCommitMsg,
                 MigrateAbortMsg>;

struct Message {
  uint32_t session_id = 0;
  uint64_t seq = 0;  // unique, monotonically increasing per peer and direction
  MessageBody body;
};

MessageType TypeOfMessage(const Message& msg);

// Wire format: u8 magic, u8 type, u16 reserved, u32 session, u64 seq, u32 payload length,
// payload. Total header size is kMessageHeaderBytes.
constexpr size_t kMessageHeaderBytes = 20;
constexpr uint8_t kMessageMagic = 0xA5;

std::vector<uint8_t> SerializeMessage(const Message& msg);
std::optional<Message> ParseMessage(std::span<const uint8_t> data);

// Serialized size without actually serializing (used by traffic accounting hot paths).
size_t MessageWireSize(const Message& msg);
// Same, header included, for a body that has not been wrapped in a Message yet (used by
// the transmit queue's wire pacing to charge a send against its session's token bucket).
size_t BodyWireSize(const MessageBody& body);

// Body-level (de)serialization without the 20-byte message header; used by the transport's
// batching mode (Section 5.4's "header compression and batching of command packets").
std::vector<uint8_t> SerializeMessageBody(const MessageBody& body);
std::optional<MessageBody> ParseMessageBody(MessageType type,
                                            std::span<const uint8_t> payload);
MessageType TypeOfBody(const MessageBody& body);

}  // namespace slim

#endif  // SRC_PROTOCOL_MESSAGES_H_
