#include "src/net/transport.h"

#include <algorithm>

#include "src/obs/latency_audit.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/protocol/wire.h"
#include "src/util/check.h"

namespace slim {

namespace {

constexpr uint8_t kFragmentMagic = 0x5f;
constexpr uint8_t kBatchMagic = 0x5e;
// Every datagram: magic, then the u32 FrameChecksum32 of the magic and of everything after
// the checksum field.
constexpr size_t kChecksumBytes = 4;
// Fragment datagram: magic, checksum, index, count, msg_seq.
constexpr size_t kFragmentHeaderBytes = 1 + kChecksumBytes + 2 + 2 + 8;
constexpr size_t kMaxFragmentPayload =
    static_cast<size_t>(kMtuBytes) - kFragmentHeaderBytes;
// Batch datagram: magic, checksum, session, item count; per item: type, payload length, seq.
constexpr size_t kBatchHeaderBytes = 1 + kChecksumBytes + 4 + 2;
constexpr size_t kBatchItemHeaderBytes = 1 + 2 + 8;
// Only messages small enough to share a datagram with at least one sibling are batched.
constexpr size_t kMaxBatchableBody = 500;
// Delivered seqs remembered per peer for duplicate suppression; older seqs fall below the
// dedup floor and are rejected wholesale.
constexpr size_t kDedupWindow = 1024;
// Consecutive no-progress NACKs of one range before the receiver gives it up entirely.
constexpr int kNackMaxStrikes = 6;
// How many recent messages the sender retains per peer for NACK replay.
constexpr size_t kReplayHistory = 512;
// NACK pacing: the first NACK for a missing range waits kNackBackoffMin since the last
// NACK; every re-NACK of the same range doubles the gate up to kNackBackoffMax, so a peer
// that cannot replay (history evicted, path black-holed) is not NACK-hammered.
constexpr SimDuration kNackBackoffMin = Milliseconds(5);
constexpr SimDuration kNackBackoffMax = Milliseconds(40);

// Stamps the checksum into a fully assembled datagram whose layout is
// [magic][checksum placeholder][covered bytes...].
std::vector<uint8_t> SealDatagram(ByteWriter w) {
  std::vector<uint8_t> bytes = w.Take();
  const uint32_t sum =
      FrameChecksum32(bytes[0], std::span<const uint8_t>(bytes).subspan(1 + kChecksumBytes));
  for (size_t i = 0; i < kChecksumBytes; ++i) {
    bytes[1 + i] = static_cast<uint8_t>(sum >> (8 * i));
  }
  return bytes;
}

}  // namespace

SlimEndpoint::SlimEndpoint(Fabric* fabric, NodeId self, EndpointOptions options)
    : fabric_(fabric), self_(self), options_(options) {
  SLIM_CHECK(fabric != nullptr);
  fabric_->SetReceiver(self_, [this](Datagram dgram) { OnDatagram(std::move(dgram)); });
}

bool SlimEndpoint::RegisterMetrics(MetricRegistry* registry, const std::string& prefix) {
  SLIM_CHECK(registry != nullptr);
  bool ok = true;
  const auto bind = [&](const char* name, const int64_t* cell) {
    ok = registry->BindCounter(prefix + "." + name, cell) && ok;
  };
  bind("messages_sent", &stats_.messages_sent);
  bind("messages_batched", &stats_.messages_batched);
  bind("batches_sent", &stats_.batches_sent);
  bind("messages_received", &stats_.messages_received);
  bind("duplicate_messages", &stats_.duplicate_messages);
  bind("bytes_sent", &stats_.bytes_sent);
  bind("fragments_sent", &stats_.fragments_sent);
  bind("fragments_received", &stats_.fragments_received);
  bind("reassembly_failures", &stats_.reassembly_failures);
  bind("nacks_sent", &stats_.nacks_sent);
  bind("replays_sent", &stats_.replays_sent);
  bind("datagrams_corrupted", &stats_.datagrams_corrupted);
  bind("reassembly_timeouts", &stats_.reassembly_timeouts);
  bind("nack_backoffs", &stats_.nack_backoffs);
  return ok;
}

void SlimEndpoint::NoteMissing(PeerRecvState& state, uint64_t seq) {
  // First-noticed times feed both the tracer's replay-stall spans and the latency audit's
  // replay-stage accounting; record them when either consumer is installed.
  if (Tracer::Global() != nullptr || LatencyAudit::Global() != nullptr) {
    state.missing_since.emplace(seq, fabric_->simulator()->now());
  }
}

void SlimEndpoint::ResolveMissing(PeerRecvState& state, uint64_t seq, const char* reason) {
  if (state.missing_since.empty()) {
    return;
  }
  const auto it = state.missing_since.find(seq);
  if (it == state.missing_since.end()) {
    return;
  }
  const SimTime now = fabric_->simulator()->now();
  if (Tracer* tracer = Tracer::Global()) {
    tracer->Complete(it->second, now - it->second, "transport.replay_stall", "transport",
                     kTraceTidTransportBase + static_cast<int>(self_),
                     {{"seq", JsonValue(static_cast<int64_t>(seq))},
                      {"reason", JsonValue(reason)}});
  }
  if (LatencyAudit* audit = LatencyAudit::Global()) {
    // We are the receiving endpoint: the (self, seq) key is how the audit mapped the
    // departed command, and a give-up reason breaches its input event immediately.
    audit->NoteReplayResolved(self_, seq, it->second, now, reason);
  }
  state.missing_since.erase(it);
}

uint64_t SlimEndpoint::Send(NodeId peer, uint32_t session_id, MessageBody body) {
  if (dead_) {
    return 0;  // a killed server emits nothing
  }
  Message msg;
  msg.session_id = session_id;
  // NACKs are control traffic: unsequenced (seq 0), never replayed, never batched — they
  // must not themselves enter the loss-tracking they exist to serve.
  const bool is_nack = std::holds_alternative<NackMsg>(body);
  msg.seq = is_nack ? 0 : ++next_seq_[peer];
  msg.body = std::move(body);
  const std::vector<uint8_t> bytes = SerializeMessage(msg);
  ++stats_.messages_sent;
  stats_.bytes_sent += static_cast<int64_t>(bytes.size());
  if (Tracer* tracer = Tracer::Global(); tracer != nullptr && !is_nack) {
    tracer->Instant(fabric_->simulator()->now(), "transport.send", "transport",
                    kTraceTidTransportBase + static_cast<int>(self_),
                    {{"seq", JsonValue(static_cast<int64_t>(msg.seq))},
                     {"bytes", JsonValue(static_cast<int64_t>(bytes.size()))}});
  }
  if (!is_nack) {
    // Replay history stores the full framing so a NACKed message replays standalone even if
    // it was originally batched.
    auto& history = history_[peer];
    history.emplace_back(msg.seq, bytes);
    while (history.size() > kReplayHistory) {
      history.pop_front();
    }
  }
  if (options_.enable_batching && !is_nack) {
    if (bytes.size() - kMessageHeaderBytes <= kMaxBatchableBody) {
      AppendToBatch(peer, session_id, msg.seq, msg.body);
      return msg.seq;
    }
    // A large message bypasses the batch; anything still held must go first so display
    // commands arrive in the order they were issued.
    FlushBatch(peer);
  }
  SendSerialized(peer, msg.seq, bytes);
  return msg.seq;
}

void SlimEndpoint::AppendToBatch(NodeId peer, uint32_t session_id, uint64_t seq,
                                 const MessageBody& body) {
  Batch& batch = batches_[peer];
  if (!batch.items.empty() && batch.session_id != session_id) {
    FlushBatch(peer);  // one session per batch keeps the compressed header tiny
  }
  BatchItem item;
  item.type = TypeOfBody(body);
  item.seq = seq;
  item.payload = SerializeMessageBody(body);
  const size_t item_bytes = kBatchItemHeaderBytes + item.payload.size();
  if (kBatchHeaderBytes + batch.bytes + item_bytes > static_cast<size_t>(kMtuBytes)) {
    FlushBatch(peer);
  }
  Batch& fresh = batches_[peer];
  fresh.session_id = session_id;
  fresh.items.push_back(std::move(item));
  fresh.bytes += item_bytes;
  ++stats_.messages_batched;
  if (fresh.flush_event == kInvalidEventId) {
    fresh.flush_event = fabric_->simulator()->Schedule(options_.batch_delay,
                                                       [this, peer] { FlushBatch(peer); });
  }
}

void SlimEndpoint::FlushBatch(NodeId peer) {
  const auto it = batches_.find(peer);
  if (it == batches_.end() || it->second.items.empty()) {
    return;
  }
  Batch batch = std::move(it->second);
  batches_.erase(it);
  if (batch.flush_event != kInvalidEventId) {
    fabric_->simulator()->Cancel(batch.flush_event);
  }
  ByteWriter w;
  w.U8(kBatchMagic);
  w.U32(0);  // checksum placeholder, filled by SealDatagram
  w.U32(batch.session_id);
  w.U16(static_cast<uint16_t>(batch.items.size()));
  for (const BatchItem& item : batch.items) {
    w.U8(static_cast<uint8_t>(item.type));
    w.U16(static_cast<uint16_t>(item.payload.size()));
    w.U64(item.seq);
    w.Bytes(item.payload);
  }
  Datagram dgram;
  dgram.src = self_;
  dgram.dst = peer;
  dgram.payload = SealDatagram(std::move(w));
  ++stats_.batches_sent;
  ++stats_.fragments_sent;
  fabric_->Send(std::move(dgram));
}

void SlimEndpoint::OnBatchDatagram(const Datagram& dgram, std::span<const uint8_t> body) {
  ByteReader r(body);
  const uint32_t session_id = r.U32();
  const uint16_t count = r.U16();
  for (uint16_t i = 0; i < count; ++i) {
    const auto type = static_cast<MessageType>(r.U8());
    const uint16_t len = r.U16();
    const uint64_t seq = r.U64();
    const std::vector<uint8_t> payload = r.Bytes(len);
    if (!r.ok()) {
      ++stats_.reassembly_failures;
      return;
    }
    auto parsed = ParseMessageBody(type, payload);
    if (!parsed.has_value()) {
      ++stats_.reassembly_failures;
      return;
    }
    // Re-frame and route through the common delivery path (dedup, NACK tracking).
    Message msg;
    msg.session_id = session_id;
    msg.seq = seq;
    msg.body = std::move(*parsed);
    DeliverMessage(SerializeMessage(msg), dgram.src);
  }
  if (r.remaining() != 0) {
    // Trailing bytes a well-formed sender never produces; flag rather than ignore.
    ++stats_.reassembly_failures;
  }
}

void SlimEndpoint::SendSerialized(NodeId peer, uint64_t msg_seq,
                                  const std::vector<uint8_t>& bytes) {
  const size_t frag_count = std::max<size_t>(1, (bytes.size() + kMaxFragmentPayload - 1) /
                                                    kMaxFragmentPayload);
  SLIM_CHECK(frag_count <= 0xffff);
  for (size_t i = 0; i < frag_count; ++i) {
    const size_t offset = i * kMaxFragmentPayload;
    const size_t len = std::min(kMaxFragmentPayload, bytes.size() - offset);
    ByteWriter w;
    w.Reserve(kFragmentHeaderBytes + len);
    w.U8(kFragmentMagic);
    w.U32(0);  // checksum placeholder, filled by SealDatagram
    w.U16(static_cast<uint16_t>(i));
    w.U16(static_cast<uint16_t>(frag_count));
    w.U64(msg_seq);
    w.Bytes(std::span<const uint8_t>(bytes).subspan(offset, len));
    Datagram dgram;
    dgram.src = self_;
    dgram.dst = peer;
    dgram.payload = SealDatagram(std::move(w));
    ++stats_.fragments_sent;
    fabric_->Send(std::move(dgram));
  }
}

void SlimEndpoint::OnDatagram(Datagram dgram) {
  if (dead_) {
    return;  // a killed server hears nothing
  }
  // Framing gate: the magic and everything after [magic][checksum] must hash to the
  // checksum. A flipped bit (in the magic too), a chopped tail or a stray datagram is
  // counted and dropped here, never parsed.
  ByteReader r(dgram.payload);
  const uint8_t magic = r.U8();
  if (!r.ok() || (magic != kFragmentMagic && magic != kBatchMagic)) {
    ++stats_.datagrams_corrupted;
    return;
  }
  const uint32_t checksum = r.U32();
  if (!r.ok() || FrameChecksum32(magic, r.Rest()) != checksum) {
    ++stats_.datagrams_corrupted;
    return;
  }
  if (magic == kBatchMagic) {
    OnBatchDatagram(dgram, r.Rest());
  } else {
    OnFragmentDatagram(dgram, r.Rest());
  }
}

void SlimEndpoint::OnFragmentDatagram(const Datagram& dgram, std::span<const uint8_t> body) {
  ByteReader r(body);
  const uint16_t index = r.U16();
  const uint16_t count = r.U16();
  const uint64_t msg_seq = r.U64();
  if (!r.ok() || count == 0 || index >= count) {
    ++stats_.reassembly_failures;
    return;
  }
  ++stats_.fragments_received;
  std::vector<uint8_t> data = r.Bytes(r.remaining());

  if (count == 1) {
    DeliverMessage(std::move(data), dgram.src);
    return;
  }

  const auto key = std::make_pair(dgram.src, msg_seq);
  Reassembly& ctx = reasm_[key];
  if (ctx.frag_count == 0) {
    ctx.frag_count = count;
    ctx.fragments.resize(count);
  }
  if (ctx.frag_count != count) {
    ++stats_.reassembly_failures;
    reasm_.erase(key);
    return;
  }
  ctx.last_update = fabric_->simulator()->now();
  if (!ctx.fragments[index].has_value()) {
    ctx.fragments[index] = std::move(data);
    ++ctx.received;
  }
  if (ctx.received == ctx.frag_count) {
    size_t total = 0;
    for (const auto& frag : ctx.fragments) {
      total += frag->size();
    }
    std::vector<uint8_t> whole;
    whole.reserve(total);
    for (auto& frag : ctx.fragments) {
      whole.insert(whole.end(), frag->begin(), frag->end());
    }
    reasm_.erase(key);
    DeliverMessage(std::move(whole), dgram.src);
    return;
  }
  if (reasm_.size() > options_.max_reassembly) {
    EvictOldestReassembly();
  }
  ArmReassemblySweep();
}

void SlimEndpoint::EvictOldestReassembly() {
  auto oldest = reasm_.begin();
  for (auto it = std::next(reasm_.begin()); it != reasm_.end(); ++it) {
    if (it->second.last_update < oldest->second.last_update) {
      oldest = it;
    }
  }
  ++stats_.reassembly_failures;
  const auto key = oldest->first;
  reasm_.erase(oldest);
  NackAbandonedMessage(key.first, key.second);
}

void SlimEndpoint::SweepReassembly() {
  reasm_sweep_event_ = kInvalidEventId;
  const SimTime now = fabric_->simulator()->now();
  std::vector<std::pair<NodeId, uint64_t>> expired;
  for (auto it = reasm_.begin(); it != reasm_.end();) {
    if (now - it->second.last_update >= options_.reassembly_timeout) {
      ++stats_.reassembly_timeouts;
      expired.push_back(it->first);
      it = reasm_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [src, msg_seq] : expired) {
    NackAbandonedMessage(src, msg_seq);
  }
  ArmReassemblySweep();
}

void SlimEndpoint::NackAbandonedMessage(NodeId src, uint64_t msg_seq) {
  // A context died with fragments still missing, so `msg_seq` is a message we know exists
  // and know we do not have. Recovery is normally driven by later deliveries exposing the
  // gap, but when the abandoned message was itself the *last* traffic in flight (the tail
  // of a burst, or a replay that arrived partially) nothing else will ever trigger the
  // NACK — so trigger it here. Unsequenced control traffic (seq 0) is not replayable.
  if (!options_.enable_nack || msg_seq == 0) {
    return;
  }
  PeerRecvState& state = recv_state_[src];
  if (state.missing.insert(msg_seq).second) {
    NoteMissing(state, msg_seq);
  }
  MaybeSendNack(src, 0, state);
}

void SlimEndpoint::ArmReassemblySweep() {
  if (reasm_sweep_event_ != kInvalidEventId || reasm_.empty() ||
      options_.reassembly_timeout <= 0) {
    return;
  }
  SimTime oldest = reasm_.begin()->second.last_update;
  for (const auto& [key, ctx] : reasm_) {
    oldest = std::min(oldest, ctx.last_update);
  }
  const SimTime now = fabric_->simulator()->now();
  const SimDuration delay = std::max<SimDuration>(0, oldest + options_.reassembly_timeout - now);
  reasm_sweep_event_ =
      fabric_->simulator()->Schedule(delay, [this] { SweepReassembly(); });
}

void SlimEndpoint::DeliverMessage(std::vector<uint8_t> bytes, NodeId from) {
  std::optional<Message> msg = ParseMessage(bytes);
  if (!msg.has_value()) {
    ++stats_.reassembly_failures;
    return;
  }
  if (std::holds_alternative<NackMsg>(msg->body)) {
    HandleNack(std::get<NackMsg>(msg->body), from);
    return;
  }
  if (msg->seq != 0) {
    DedupWindow& dedup = recent_delivered_[from];
    // At or below the floor means the seq was already delivered and then aged out of the
    // window; without the floor, a sufficiently stale replay would be applied twice.
    if (msg->seq <= dedup.floor || dedup.seen.count(msg->seq) > 0) {
      ++stats_.duplicate_messages;
      // An abandoned duplicate context may have re-flagged this seq as missing; it is not.
      PeerRecvState& dup_state = recv_state_[from];
      ResolveMissing(dup_state, msg->seq, "replayed");
      dup_state.missing.erase(msg->seq);
      return;  // Idempotent replay: already applied, drop quietly.
    }
    dedup.seen.insert(msg->seq);
    while (dedup.seen.size() > kDedupWindow) {
      dedup.floor = *dedup.seen.begin();
      dedup.seen.erase(dedup.seen.begin());
    }
    PeerRecvState& state = recv_state_[from];
    if (msg->seq > state.max_seq) {
      // Sequences start at 1, so anything between the last maximum and this message was
      // lost (or is still in flight; a spurious NACK is harmless, replay is idempotent).
      for (uint64_t s = state.max_seq + 1; s < msg->seq && state.missing.size() < 512; ++s) {
        state.missing.insert(s);
        NoteMissing(state, s);
      }
      state.max_seq = msg->seq;
    } else {
      ResolveMissing(state, msg->seq, "replayed");
      state.missing.erase(msg->seq);
    }
    if (options_.enable_nack) {
      MaybeSendNack(from, msg->session_id, state);
    }
  }
  ++stats_.messages_received;
  if (handler_) {
    handler_(*msg, from);
  }
}

void SlimEndpoint::MaybeSendNack(NodeId peer, uint32_t session_id, PeerRecvState& state) {
  // Give up on sequences that have fallen out of any plausible replay history; the display
  // stream is self-correcting (a later full repaint supersedes lost updates).
  while (!state.missing.empty() &&
         *state.missing.begin() + kReplayHistory < state.max_seq) {
    ResolveMissing(state, *state.missing.begin(), "gave_up_history");
    state.missing.erase(state.missing.begin());
  }
  if (state.missing.empty()) {
    state.nack_gate = kNackBackoffMin;
    state.last_nack_first = 0;
    state.nack_strikes = 0;
    return;
  }
  if (state.nack_gate <= 0) {
    state.nack_gate = kNackBackoffMin;
  }
  const SimTime now = fabric_->simulator()->now();
  if (now - state.last_nack_at < state.nack_gate) {
    // Gate: one outstanding request per back-off window. Arm a retry at gate expiry so
    // recovery does not depend on another delivery happening to land after the window.
    ArmNackRetry(peer, state);
    return;
  }
  // Request the oldest contiguous missing range.
  const uint64_t first = *state.missing.begin();
  uint64_t last = first;
  for (auto it = std::next(state.missing.begin());
       it != state.missing.end() && *it == last + 1; ++it) {
    last = *it;
  }
  if (first == state.last_nack_first) {
    // If fragments of the requested message are still streaming in, the replay is working;
    // re-NACKing now would just provoke a duplicate replay. Slide the clock to the last
    // fragment arrival and check again one gate later (if reassembly stalls for a full
    // gate, the strike logic below resumes).
    const auto ctx = reasm_.find(std::make_pair(peer, first));
    if (ctx != reasm_.end() && now - ctx->second.last_update < state.nack_gate) {
      state.last_nack_at = std::max(state.last_nack_at, ctx->second.last_update);
      ArmNackRetry(peer, state);
      return;
    }
    // The previous NACK for this very range produced no progress — it or its replay was
    // lost, or the peer cannot replay it. Widen the gate (bounded) instead of hammering,
    // and after kNackMaxStrikes fruitless tries give the range up for good: the display
    // stream is self-correcting (a later full repaint supersedes lost updates), and an
    // unreplayable range must not keep the retry timer alive forever.
    state.nack_gate = std::min(state.nack_gate * 2, kNackBackoffMax);
    ++stats_.nack_backoffs;
    if (++state.nack_strikes >= kNackMaxStrikes) {
      for (uint64_t s = first; s <= last; ++s) {
        ResolveMissing(state, s, "gave_up_strikes");
      }
      state.missing.erase(state.missing.lower_bound(first), state.missing.upper_bound(last));
      state.last_nack_first = 0;
      state.nack_strikes = 0;
      state.nack_gate = kNackBackoffMin;
      if (!state.missing.empty()) {
        ArmNackRetry(peer, state);  // move on to the next range
      }
      return;
    }
  } else {
    state.nack_gate = kNackBackoffMin;
    state.last_nack_first = first;
    state.nack_strikes = 0;
  }
  state.last_nack_at = now;
  ++stats_.nacks_sent;
  if (Tracer* tracer = Tracer::Global()) {
    tracer->Instant(now, "transport.nack", "transport",
                    kTraceTidTransportBase + static_cast<int>(self_),
                    {{"first", JsonValue(static_cast<int64_t>(first))},
                     {"last", JsonValue(static_cast<int64_t>(last))},
                     {"strikes", JsonValue(int64_t{state.nack_strikes})}});
  }
  Send(peer, session_id, NackMsg{first, last});
  // If the NACK or its entire replay is lost there will be no delivery to re-trigger us;
  // the retry re-examines the range once the gate reopens.
  ArmNackRetry(peer, state);
}

void SlimEndpoint::ArmNackRetry(NodeId peer, PeerRecvState& state) {
  if (state.nack_retry_event != kInvalidEventId) {
    return;
  }
  const SimTime now = fabric_->simulator()->now();
  const SimDuration delay =
      std::max<SimDuration>(0, state.last_nack_at + state.nack_gate - now);
  state.nack_retry_event = fabric_->simulator()->Schedule(delay, [this, peer] {
    PeerRecvState& st = recv_state_[peer];
    st.nack_retry_event = kInvalidEventId;
    if (options_.enable_nack) {
      MaybeSendNack(peer, 0, st);
    }
  });
}

void SlimEndpoint::HandleNack(const NackMsg& nack, NodeId from) {
  int64_t replayed = 0;
  if (const auto hist = history_.find(from); hist != history_.end()) {
    for (const auto& [seq, bytes] : hist->second) {
      if (seq >= nack.first_seq && seq <= nack.last_seq) {
        ++stats_.replays_sent;
        ++replayed;
        SendSerialized(from, seq, bytes);
      }
    }
  }
  if (Tracer* tracer = Tracer::Global()) {
    tracer->Instant(fabric_->simulator()->now(), "transport.replay", "transport",
                    kTraceTidTransportBase + static_cast<int>(self_),
                    {{"first", JsonValue(static_cast<int64_t>(nack.first_seq))},
                     {"last", JsonValue(static_cast<int64_t>(nack.last_seq))},
                     {"replayed", JsonValue(replayed)}});
  }
}

}  // namespace slim
